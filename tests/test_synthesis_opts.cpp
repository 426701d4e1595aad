// KbpSynthesizer scaling tests: (a) the optimizations are invisible —
// synthesis produces bit-identical decision tables and per-world decisions
// with and without memoization (world dedup, class and component memos)
// and parallelism; (b) the optimized synthesizer re-derives the paper's
// protocols at n = 5 (Thm 6.5/6.6 beyond the seed's n <= 4 ceiling) and in
// a γ_fip context at n = 4.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "failure/generators.hpp"
#include "kripke/synthesis.hpp"

namespace eba {
namespace {

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

/// The option grid: baseline (everything off), memoization, and each with
/// oversubscribed parallelism (4 threads even on a 1-core box exercises the
/// pool paths).
std::vector<std::pair<std::string, SynthesisOptions>> option_grid() {
  return {
      {"baseline", {.memoize = false, .workers = 1}},
      {"memoize", {.memoize = true, .workers = 1}},
      {"memoize+parallel", {.memoize = true, .workers = 4}},
      {"parallel-no-memo", {.memoize = false, .workers = 4}},
  };
}

template <class X>
void expect_invariant_under_options(X x, int t, KbpProgram program,
                                    const EnumerationConfig& cfg,
                                    int horizon) {
  const auto worlds = all_worlds(cfg);
  KbpSynthesizer<X> baseline_synth(x, t, program,
                                   {.memoize = false, .workers = 1});
  const auto baseline = baseline_synth.run(worlds, horizon);
  EXPECT_EQ(baseline.stats.evaluated_rounds, baseline.stats.world_rounds)
      << "baseline must evaluate every world every round";
  for (const auto& [name, opt] : option_grid()) {
    KbpSynthesizer<X> synth(x, t, program, opt);
    const auto result = synth.run(worlds, horizon);
    EXPECT_EQ(result.table, baseline.table) << name;
    ASSERT_EQ(result.decisions.size(), baseline.decisions.size()) << name;
    for (std::size_t w = 0; w < worlds.size(); ++w) {
      for (AgentId i = 0; i < x.n(); ++i) {
        const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
        const auto& want = baseline.decisions[w][static_cast<std::size_t>(i)];
        ASSERT_EQ(got.has_value(), want.has_value())
            << name << " world " << w << " agent " << i;
        if (want) {
          EXPECT_EQ(got->value, want->value) << name << " world " << w;
          EXPECT_EQ(got->round, want->round) << name << " world " << w;
        }
      }
    }
    if (opt.memoize) {
      EXPECT_LT(result.stats.evaluated_rounds, result.stats.world_rounds)
          << name << ": dedup found no duplicate joint signatures";
    }
  }
}

TEST(SynthesisOptions, P0MinContextInvariant) {
  expect_invariant_under_options(MinExchange(3), 1, KbpProgram::p0,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P0BasicContextInvariant) {
  expect_invariant_under_options(BasicExchange(3), 1, KbpProgram::p0,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P1MinContextInvariant) {
  expect_invariant_under_options(MinExchange(3), 1, KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

TEST(SynthesisOptions, P1FipContextInvariant) {
  expect_invariant_under_options(FipExchange(3), 1, KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4);
}

// Component memoization must slash the number of C_N traversals, not just
// match results: in the γ_fip n=3 context the baseline runs one BFS per
// (world, peer) test, the memoized path one per component.
TEST(SynthesisOptions, MemoizationCollapsesBfsCount) {
  const auto worlds = all_worlds({.n = 3, .t = 1, .rounds = 2});
  KbpSynthesizer<FipExchange> baseline(FipExchange(3), 1, KbpProgram::p1,
                                       {.memoize = false, .workers = 1});
  KbpSynthesizer<FipExchange> memoized(FipExchange(3), 1, KbpProgram::p1,
                                       {.memoize = true, .workers = 1});
  const auto slow = baseline.run(worlds, 4);
  const auto fast = memoized.run(worlds, 4);
  EXPECT_GT(slow.stats.common_bfs, 10 * fast.stats.common_bfs);
}

// Thm 6.5 at n = 5: synthesis from P0 over the full γ_min(5, 1) context
// (1281 adversaries × 32 preference vectors = 40992 worlds) re-derives
// exactly P_min on every reachable local state.
TEST(SynthesisScale, P0MinContextYieldsPMinAtN5) {
  const int n = 5;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  ASSERT_EQ(worlds.size(), 40992u);
  KbpSynthesizer<MinExchange> synth(MinExchange(n), t, KbpProgram::p0);
  const auto result = synth.run(worlds, 4);
  const PMin pmin(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pmin(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd);
  EXPECT_LT(result.stats.evaluated_rounds, result.stats.world_rounds / 50)
      << "dedup should collapse the n=5 context by orders of magnitude";
}

// Thm 6.6 at n = 5: synthesis from P0 over γ_basic(5, 1) re-derives P_basic.
TEST(SynthesisScale, P0BasicContextYieldsPBasicAtN5) {
  const int n = 5;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  KbpSynthesizer<BasicExchange> synth(BasicExchange(n), t, KbpProgram::p0);
  const auto result = synth.run(worlds, 4);
  const PBasic pbasic(n, t);
  EXPECT_GT(result.table.size(), 10u);
  for (const auto& [state, action] : result.table)
    EXPECT_EQ(action, pbasic(state))
        << "state time=" << state.time << " init=" << to_string(state.init)
        << " jd=" << to_string(state.jd) << " #1=" << state.ones;
}

// γ_fip beyond n = 3: P1 synthesized over the full-information context
// (n = 4, drops through round t+1 = 2 so the partial system is
// epistemically adequate wherever decisions happen) reproduces P_opt's runs
// decision-for-decision.
TEST(SynthesisScale, P1FipContextMatchesPOptAtN4) {
  const int n = 4;
  const int t = 1;
  const auto worlds = all_worlds({.n = n, .t = t, .rounds = 2});
  ASSERT_EQ(worlds.size(), 4112u);
  KbpSynthesizer<FipExchange> synth(FipExchange(n), t, KbpProgram::p1);
  const auto result = synth.run(worlds, 4);
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    SimulateOptions opt;
    opt.max_rounds = 4;
    opt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), POpt(n, t), worlds[w].first,
                              worlds[w].second, t, opt);
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

}  // namespace
}  // namespace eba
