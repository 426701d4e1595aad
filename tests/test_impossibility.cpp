// The paper's §1 impossibility argument, reproduced mechanically: there is
// no EBA protocol for omission failures that is 0-biased in the naive sense
// ("decide 0 as soon as you learn some agent preferred 0").
//
// We implement the naive 0-biased protocol PZeroBiased over the eager
// gossip exchange E_relay and show:
//   1. it IS a correct EBA protocol under crash failures (exhaustively);
//   2. under sending omissions, the paper's run r' — the faulty agent sits
//      on its 0 and releases it to exactly one agent in round t+1 — makes
//      two nonfaulty agents decide differently;
//   3. the chain-based protocols of §6 survive that very adversary.
#include <gtest/gtest.h>

#include "action/p_zero_biased.hpp"
#include "core/spec.hpp"
#include "exchange/relay.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "sim/simulator.hpp"

namespace eba {
namespace {

RunSummary drive_zero_biased(int n, int t, const FailurePattern& alpha,
                             const std::vector<Value>& prefs) {
  return simulate(RelayExchange(n), PZeroBiased(n, t), alpha, prefs, t);
}

/// The paper's run r': n agents, agent 0 faulty with init 0, everyone else
/// init 1; agent 0 is silent except for one message to agent 2 in round t+1.
FailurePattern intro_adversary(int n, int t) {
  AgentSet faulty{0};
  FailurePattern p(n, faulty.complement(n));
  for (int m = 0; m <= t + 2; ++m)
    for (AgentId to = 1; to < n; ++to)
      if (!(m == t && to == 2)) p.drop(m, 0, to);
  return p;
}

std::vector<Value> intro_prefs(int n) {
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  return prefs;
}

// §1, the positive half: under crash failures the naive 0-biased protocol
// satisfies EBA — exhaustively over every crash adversary shape (crash
// agent, crash round, survivor subset) and every preference vector.
TEST(ZeroBiased, CorrectUnderCrashFailures) {
  const int n = 4;
  const int t = 1;
  const auto prefs = all_preference_vectors(n);
  int checked = 0;
  for (AgentId who = 0; who < n; ++who) {
    for (int round = 0; round <= t + 1; ++round) {
      // Every survivor subset of the crash round.
      for (std::uint64_t bits = 0; bits < (1u << (n - 1)); ++bits) {
        AgentSet survivors;
        int slot = 0;
        for (AgentId j = 0; j < n; ++j) {
          if (j == who) continue;
          if ((bits >> slot) & 1u) survivors.insert(j);
          ++slot;
        }
        const auto alpha = crash_pattern(n, who, round, survivors, t + 3);
        ASSERT_TRUE(alpha.is_crash());
        for (const auto& p : prefs) {
          const RunSummary s = drive_zero_biased(n, t, alpha, p);
          const SpecReport rep = check_eba(s.record);
          ASSERT_TRUE(rep.ok())
              << (rep.violations.empty() ? "?" : rep.violations[0]);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

// Also correct in every failure-free run, deciding 0 by round 2 whenever a
// 0 exists — the "biased" speed that makes the protocol attractive.
TEST(ZeroBiased, FastZeroDecisionsWithoutFailures) {
  const int n = 5;
  const int t = 2;
  const auto alpha = FailurePattern::failure_free(n);
  for (const auto& p : all_preference_vectors(n)) {
    const RunSummary s = drive_zero_biased(n, t, alpha, p);
    EXPECT_TRUE(check_eba(s.record).ok());
    bool has0 = false;
    for (Value v : p) has0 = has0 || v == Value::zero;
    if (has0) {
      for (AgentId i = 0; i < n; ++i) EXPECT_LE(s.round_of(i), 2);
    }
  }
}

// §1, the impossibility half: the intro adversary splits the nonfaulty
// agents. Agent 2 learns the withheld 0 in round t+1 and decides 0; the
// other nonfaulty agents decide 1 at the same time.
TEST(ZeroBiased, IntroAdversaryViolatesAgreement) {
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{3, 1}, {4, 2},
                                                             {5, 1}}) {
    const RunSummary s =
        drive_zero_biased(n, t, intro_adversary(n, t), intro_prefs(n));
    const SpecReport rep = check_eba(s.record);
    EXPECT_FALSE(rep.agreement)
        << "n=" << n << " t=" << t
        << ": the naive 0-biased protocol should split here";
    // Concretely: agent 2 decides 0, agent 1 decides 1, both nonfaulty.
    EXPECT_EQ(s.record.decision(2)->value, Value::zero);
    EXPECT_EQ(s.record.decision(1)->value, Value::one);
  }
}

// The impossibility is not an artifact of one handcrafted pattern: an
// exhaustive scan over all SO(1) adversaries finds violations for the naive
// protocol, and their count is nonzero — while the chain-based P_min has
// none anywhere (re-checked side by side).
TEST(ZeroBiased, ExhaustiveScanFindsViolationsOnlyForNaive) {
  const int n = 3;
  const int t = 1;
  const auto prefs = all_preference_vectors(n);
  const auto min_driver = make_min_driver(n, t);
  std::uint64_t naive_violations = 0;
  std::uint64_t min_violations = 0;
  enumerate_adversaries(
      EnumerationConfig{.n = n, .t = t, .rounds = 3},
      [&](const FailurePattern& alpha) {
        for (const auto& p : prefs) {
          if (!check_eba(drive_zero_biased(n, t, alpha, p).record).agreement)
            ++naive_violations;
          if (!check_eba(min_driver(alpha, p).record).ok()) ++min_violations;
        }
        return true;
      });
  EXPECT_GT(naive_violations, 0u);
  EXPECT_EQ(min_violations, 0u);
}

// The chain-based protocols survive the intro adversary itself.
TEST(ZeroBiased, ChainProtocolsSurviveIntroAdversary) {
  const int n = 4;
  const int t = 2;
  const auto alpha = intro_adversary(n, t);
  const auto prefs = intro_prefs(n);
  for (const auto& [name, drive] : paper_drivers(n, t)) {
    const SpecReport rep = check_eba(drive(alpha, prefs).record);
    EXPECT_TRUE(rep.ok()) << name;
  }
}

// Crash failures cannot express the intro adversary: a crashed agent cannot
// fall silent and then speak again.
TEST(ZeroBiased, IntroAdversaryIsNotACrashPattern) {
  EXPECT_FALSE(intro_adversary(3, 1).is_crash());
  EXPECT_FALSE(intro_adversary(4, 2).is_crash());
}

}  // namespace
}  // namespace eba
