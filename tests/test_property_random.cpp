// Randomized property sweeps at larger scales than the exhaustive tests can
// reach: the EBA specification, the termination bound, the 0-chain
// characterization of 0-decisions, and cross-protocol agreement of decided
// values, over thousands of sampled (adversary, preference) pairs.
#include <gtest/gtest.h>

#include "core/chain.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

struct Sweep {
  int n;
  int t;
  int samples;
  double drop_prob;
};

class RandomSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(RandomSweep, SpecHoldsForAllThreeProtocols) {
  const auto [n, t, samples, drop_prob] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + t));
  const auto drivers = paper_drivers(n, t);
  for (int k = 0; k < samples; ++k) {
    const int faults = rng.below(t + 1);
    const auto alpha = sample_adversary(n, faults, t + 2, drop_prob, rng);
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : drivers) {
      const RunSummary s = drive(alpha, prefs);
      const SpecReport rep = check_eba(s.record);
      ASSERT_TRUE(rep.ok_strict())
          << name << " sample " << k << ": "
          << (rep.violations.empty() ? "?" : rep.violations[0]);
    }
  }
}

// Every 0-decision is backed by a 0-chain ending at the decider (the key
// lemma behind Agreement in Prop 6.1 and Lemma A.5).
TEST_P(RandomSweep, ZeroDecisionsAreChainBacked) {
  const auto [n, t, samples, drop_prob] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 77 + t));
  const auto drivers = paper_drivers(n, t);
  for (int k = 0; k < samples / 2; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, drop_prob, rng);
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : drivers) {
      const RunSummary s = drive(alpha, prefs);
      const auto chains = analyze_zero_chains(s.record);
      for (AgentId i = 0; i < n; ++i) {
        const auto d = s.record.decision(i);
        if (!d || d->value != Value::zero) continue;
        EXPECT_TRUE(chains.receives_chain(i, d->round - 1))
            << name << ": agent " << i << " decided 0 in round " << d->round
            << " without receiving a 0-chain";
      }
    }
  }
}

// If anyone decides 0, every nonfaulty 0-decision happens within one round
// of a nonfaulty chain position (decision-time coherence); and nonfaulty
// agents never split across values — re-checked here against the raw chain
// structure rather than the spec checker.
TEST_P(RandomSweep, NonfaultyValuesNeverSplit) {
  const auto [n, t, samples, drop_prob] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 31 + t));
  for (int k = 0; k < samples / 2; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, drop_prob, rng);
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : paper_drivers(n, t)) {
      const RunSummary s = drive(alpha, prefs);
      AgentSet zeros, ones;
      for (AgentId i : alpha.nonfaulty()) {
        const auto d = s.record.decision(i);
        ASSERT_TRUE(d.has_value()) << name;
        (d->value == Value::zero ? zeros : ones).insert(i);
      }
      EXPECT_TRUE(zeros.empty() || ones.empty()) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RandomSweep,
    ::testing::Values(Sweep{5, 2, 400, 0.3}, Sweep{6, 3, 300, 0.5},
                      Sweep{8, 4, 200, 0.25}, Sweep{10, 3, 150, 0.4},
                      Sweep{12, 5, 80, 0.35}, Sweep{16, 6, 30, 0.3},
                      Sweep{24, 4, 10, 0.5}),
    [](const ::testing::TestParamInfo<Sweep>& pinfo) {
      std::string name = "n";
      name += std::to_string(pinfo.param.n);
      name += "t";
      name += std::to_string(pinfo.param.t);
      return name;
    });

// Crash failures are a special case of sending omissions (paper §3): the
// protocols must satisfy the spec under crash patterns too.
TEST(CrashSweep, SpecHoldsUnderCrashFailures) {
  const int n = 6;
  const int t = 2;
  Rng rng(55);
  for (int k = 0; k < 200; ++k) {
    const AgentId who = rng.below(n);
    const int round = rng.below(t + 2);
    AgentSet survivors;
    for (AgentId j = 0; j < n; ++j)
      if (j != who && rng.chance(0.5)) survivors.insert(j);
    const auto alpha = crash_pattern(n, who, round, survivors, t + 3);
    ASSERT_TRUE(alpha.is_crash());
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : paper_drivers(n, t)) {
      const RunSummary s = drive(alpha, prefs);
      ASSERT_TRUE(check_eba(s.record).ok_strict()) << name << " sample " << k;
    }
  }
}

// Degenerate shapes: t = 0 (no failures allowed) and the largest legal t.
TEST(EdgeShapes, TZeroDecidesFast) {
  const int n = 4;
  const auto alpha = FailurePattern::failure_free(n);
  for (const auto& [name, drive] : paper_drivers(n, 0)) {
    const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);
    const RunSummary s = drive(alpha, ones);
    for (AgentId i = 0; i < n; ++i)
      EXPECT_LE(s.round_of(i), 2) << name << " agent " << i;
    EXPECT_TRUE(check_eba(s.record).ok_strict()) << name;
  }
}

TEST(EdgeShapes, MaximalTIsExercised) {
  const int n = 5;
  const int t = n - 2;
  Rng rng(91);
  for (int k = 0; k < 50; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.6, rng);
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : paper_drivers(n, t)) {
      const RunSummary s = drive(alpha, prefs);
      ASSERT_TRUE(check_eba(s.record).ok_strict()) << name;
    }
  }
}

TEST(EdgeShapes, MaxAgentsBoundary) {
  // The AgentSet representation caps the system at 64 agents; the limited-
  // information protocols must work right at the boundary.
  const int n = kMaxAgents;
  const int t = 8;
  Rng rng(64);
  const auto alpha = sample_adversary(n, t, t + 2, 0.3, rng);
  const auto prefs = sample_preferences(n, rng);
  for (const auto& [name, drive] :
       std::vector<NamedDriver>{{"P_min", make_min_driver(n, t)},
                                {"P_basic", make_basic_driver(n, t)}}) {
    const RunSummary s = drive(alpha, prefs);
    EXPECT_TRUE(check_eba(s.record).ok_strict()) << name;
  }
}

TEST(EdgeShapes, TwoAgents) {
  // n=2, t=0: the smallest legal system.
  for (const auto& [name, drive] : paper_drivers(2, 0)) {
    const RunSummary s = drive(FailurePattern::failure_free(2),
                               {Value::one, Value::zero});
    EXPECT_TRUE(check_eba(s.record).ok_strict()) << name;
    for (AgentId i = 0; i < 2; ++i) {
      ASSERT_TRUE(s.record.decision(i).has_value());
      EXPECT_EQ(s.record.decision(i)->value, Value::zero);
    }
  }
}

}  // namespace
}  // namespace eba
