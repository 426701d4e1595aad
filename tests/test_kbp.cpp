// Knowledge-based-program tests: the implementation theorems checked
// mechanically on exhaustively enumerated contexts —
//   Thm 6.5: P_min implements P0 in γ_min,
//   Thm 6.6: P_basic implements P0 in γ_basic,
//   Thm A.21 (+ Cor 7.8): P_opt implements P1 in γ_fip,
// and the round-by-round synthesis procedure re-deriving P_min / P_basic
// from P0.
#include <gtest/gtest.h>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "kripke/kbp.hpp"
#include "kripke/synthesis.hpp"
#include "kripke/system.hpp"

namespace eba {
namespace {

std::string describe(const KbpMismatch& m) {
  return "run " + std::to_string(m.point.run) + " time " +
         std::to_string(m.point.time) + " agent " + std::to_string(m.agent) +
         ": concrete=" + to_string(m.concrete) + " program=" +
         to_string(m.program);
}

// Epistemic adequacy: enumerating adversaries with drops confined to the
// first R rounds yields exactly the full context's set of time-m states for
// m <= R, so knowledge (and the KBP's tests) are faithful up to time R.
// Beyond that the truncated system gives agents spurious knowledge, so the
// implementation checks stop at max_time = R unless every agent has decided
// by then anyway (which holds when R >= t+2-1, since actions at time t+1 are
// determined by time-(t+1) states... see per-test comments).
template <class Sys, class Program>
void expect_implements(const Sys& sys, const Program& program, int max_time) {
  const auto mismatches = check_implementation(sys, program, max_time);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches; first: " << describe(mismatches[0]);
}

// Thm 6.5: P_min implements P0 in γ_min (n=3, t=1 and n=4, t=1, drops in the
// first two rounds, every preference vector). With t=1 every agent decides
// by round t+2 = 3, so checking through time 3 is sound: times 0..2 are
// epistemically adequate (R=2), and at time 3 everyone has decided, making
// both sides noop.
TEST(Theorem65, PMinImplementsP0) {
  for (const int n : {3, 4}) {
    InterpretedSystem<MinExchange, PMin> sys(MinExchange(n), PMin(n, 1), 1, 4);
    sys.add_all_runs(EnumerationConfig{.n = n, .t = 1, .rounds = 2});
    sys.finalize();
    expect_implements(
        sys,
        [](const auto& I, Point pt, AgentId i) { return eval_p0(I, pt, i); },
        3);
  }
}

// Thm 6.6: P_basic implements P0 in γ_basic.
TEST(Theorem66, PBasicImplementsP0) {
  for (const int n : {3, 4}) {
    InterpretedSystem<BasicExchange, PBasic> sys(BasicExchange(n),
                                                 PBasic(n, 1), 1, 4);
    sys.add_all_runs(EnumerationConfig{.n = n, .t = 1, .rounds = 2});
    sys.finalize();
    expect_implements(
        sys,
        [](const auto& I, Point pt, AgentId i) { return eval_p0(I, pt, i); },
        3);
  }
}

// Thm A.21 / Cor 7.8: P_opt implements P1 in the full-information context.
TEST(TheoremA21, POptImplementsP1) {
  for (const int n : {3, 4}) {
    InterpretedSystem<FipExchange, POpt> sys(FipExchange(n), POpt(n, 1), 1, 4);
    sys.add_all_runs(EnumerationConfig{.n = n, .t = 1, .rounds = 2});
    sys.finalize();
    expect_implements(
        sys,
        [](const auto& I, Point pt, AgentId i) { return eval_p1(I, pt, i); },
        3);
  }
}

// Two faulty agents (n=4, t=2), drops in round 1 only: the truncated system
// is adequate through time 1, which is where the interesting common-
// knowledge decisions of P1 appear in this family (silent faults are
// detected at time 1).
TEST(TheoremA21, POptImplementsP1TwoFaults) {
  InterpretedSystem<FipExchange, POpt> sys(FipExchange(4), POpt(4, 2), 2, 5);
  sys.add_all_runs(EnumerationConfig{.n = 4, .t = 2, .rounds = 1});
  sys.finalize();
  expect_implements(
      sys,
      [](const auto& I, Point pt, AgentId i) { return eval_p1(I, pt, i); },
      1);
}

std::vector<std::pair<FailurePattern, std::vector<Value>>> all_worlds(
    const EnumerationConfig& cfg) {
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const auto prefs = all_preference_vectors(cfg.n);
  enumerate_adversaries(cfg, [&](const FailurePattern& alpha) {
    for (const auto& p : prefs) worlds.emplace_back(alpha, p);
    return true;
  });
  return worlds;
}

// Synthesis from P0 in γ_min re-derives exactly P_min on reachable states.
TEST(Synthesis, P0InMinContextYieldsPMin) {
  const int n = 3;
  const int t = 1;
  KbpSynthesizer<MinExchange> synth(MinExchange(n), t, KbpProgram::p0);
  const auto result =
      synth.run(all_worlds(EnumerationConfig{.n = n, .t = t, .rounds = 2}), 4);
  const PMin pmin(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pmin(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd);
}

// Synthesis from P0 in γ_basic re-derives exactly P_basic.
TEST(Synthesis, P0InBasicContextYieldsPBasic) {
  const int n = 3;
  const int t = 1;
  KbpSynthesizer<BasicExchange> synth(BasicExchange(n), t, KbpProgram::p0);
  const auto result =
      synth.run(all_worlds(EnumerationConfig{.n = n, .t = t, .rounds = 2}), 4);
  const PBasic pbasic(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pbasic(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd) << " #1=" << state.ones;
}

// Synthesis from P1 in γ_fip reproduces P_opt's runs decision-for-decision.
// Enumeration must cover drops through round t+1 = 2 so the partial system
// is epistemically adequate at every time where decisions happen.
TEST(Synthesis, P1InFipContextMatchesPOpt) {
  const int n = 3;
  const int t = 1;
  const auto worlds = all_worlds(EnumerationConfig{.n = n, .t = t, .rounds = 2});
  KbpSynthesizer<FipExchange> synth(FipExchange(n), t, KbpProgram::p1);
  const auto result = synth.run(worlds, 4);

  const auto drive = [&](const FailurePattern& alpha,
                         const std::vector<Value>& inits) {
    StepperOptions opt;
    opt.max_rounds = 4;
    opt.stop_when_all_decided = false;
    return simulate(FipExchange(n), POpt(n, t), alpha, inits, t, opt);
  };
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    const auto run = drive(worlds[w].first, worlds[w].second);
    for (AgentId i = 0; i < n; ++i) {
      const auto expected = run.record.decision(i);
      const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
      ASSERT_EQ(got.has_value(), expected.has_value()) << "world " << w;
      if (expected) {
        EXPECT_EQ(got->value, expected->value) << "world " << w;
        EXPECT_EQ(got->round, expected->round) << "world " << w;
      }
    }
  }
}

// The synthesized P0 protocol satisfies the EBA spec in every world.
TEST(Synthesis, SynthesizedProtocolSatisfiesSpec) {
  const int n = 3;
  const int t = 1;
  const auto worlds = all_worlds(EnumerationConfig{.n = n, .t = t, .rounds = 2});
  KbpSynthesizer<MinExchange> synth(MinExchange(n), t, KbpProgram::p0);
  const auto result = synth.run(worlds, 4);
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    const auto& nonfaulty = worlds[w].first.nonfaulty();
    std::optional<Value> agreed;
    for (AgentId i : nonfaulty) {
      const auto& d = result.decisions[w][static_cast<std::size_t>(i)];
      ASSERT_TRUE(d.has_value()) << "termination, world " << w;
      EXPECT_LE(d->round, t + 2);
      if (agreed)
        EXPECT_EQ(*agreed, d->value) << "agreement, world " << w;
      else
        agreed = d->value;
    }
  }
}

}  // namespace
}  // namespace eba
