// Cross-protocol behavioural tests: the paper's worked claims
// (Prop 8.2 failure-free decision rounds, Example 7.1, Prop 6.1 termination
// bound) on concrete runs of P_min, P_basic and P_fip.
#include <gtest/gtest.h>

#include "core/spec.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "sim/drivers.hpp"

namespace eba {
namespace {

std::vector<Value> all_ones(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), Value::one);
}

std::vector<Value> ones_with_zero_at(int n, AgentId who) {
  auto v = all_ones(n);
  v[static_cast<std::size_t>(who)] = Value::zero;
  return v;
}

struct Shape {
  int n;
  int t;
};

class FailureFree : public ::testing::TestWithParam<Shape> {};

// Prop 8.2(a): failure-free with some 0 preference: everyone decides 0 by
// round 2 under all three protocols.
TEST_P(FailureFree, SomeZeroDecidesByRoundTwo) {
  const auto [n, t] = GetParam();
  const auto alpha = FailurePattern::failure_free(n);
  for (const auto& [name, drive] : paper_drivers(n, t)) {
    for (AgentId z = 0; z < n; ++z) {
      const RunSummary s = drive(alpha, ones_with_zero_at(n, z));
      for (AgentId i = 0; i < n; ++i) {
        ASSERT_TRUE(s.record.decision(i).has_value())
            << name << " agent " << i;
        EXPECT_EQ(s.record.decision(i)->value, Value::zero)
            << name;
        EXPECT_LE(s.record.decision(i)->round, 2) << name;
      }
      EXPECT_TRUE(check_eba(s.record).ok_strict()) << name;
    }
  }
}

// Prop 8.2(b): failure-free all-1: P_min decides in round t+2; P_basic and
// P_fip decide in round 2.
TEST_P(FailureFree, AllOnesRounds) {
  const auto [n, t] = GetParam();
  const auto alpha = FailurePattern::failure_free(n);
  const auto prefs = all_ones(n);

  const RunSummary min_run = make_min_driver(n, t)(alpha, prefs);
  const RunSummary basic_run = make_basic_driver(n, t)(alpha, prefs);
  const RunSummary fip_run = make_fip_driver(n, t)(alpha, prefs);

  for (AgentId i = 0; i < n; ++i) {
    EXPECT_EQ(min_run.round_of(i), t + 2) << "P_min agent " << i;
    EXPECT_EQ(basic_run.round_of(i), 2) << "P_basic agent " << i;
    EXPECT_EQ(fip_run.round_of(i), 2) << "P_fip agent " << i;
    EXPECT_EQ(min_run.record.decision(i)->value, Value::one);
    EXPECT_EQ(basic_run.record.decision(i)->value, Value::one);
    EXPECT_EQ(fip_run.record.decision(i)->value, Value::one);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FailureFree,
                         ::testing::Values(Shape{3, 1}, Shape{4, 1}, Shape{4, 2},
                                           Shape{5, 2}, Shape{5, 3}, Shape{6, 2},
                                           Shape{7, 4}, Shape{8, 3}),
                         [](const ::testing::TestParamInfo<Shape>& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param.n);
                           name += "t";
                           name += std::to_string(pinfo.param.t);
                           return name;
                         });

// Example 7.1: n=20, t=10, all preferences 1, agents 0..9 faulty and silent.
// The FIP decides in round 3; P_min and P_basic decide in round 12.
TEST(Example71, FipDecidesRoundThreeOthersRoundTwelve) {
  const int n = 20;
  const int t = 10;
  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const auto alpha = silent_agents_pattern(n, silent, t + 3);
  const auto prefs = all_ones(n);

  const RunSummary fip_run = make_fip_driver(n, t)(alpha, prefs);
  const RunSummary min_run = make_min_driver(n, t)(alpha, prefs);
  const RunSummary basic_run = make_basic_driver(n, t)(alpha, prefs);

  for (AgentId i : alpha.nonfaulty()) {
    EXPECT_EQ(fip_run.round_of(i), 3) << "P_fip agent " << i;
    EXPECT_EQ(min_run.round_of(i), t + 2) << "P_min agent " << i;
    EXPECT_EQ(basic_run.round_of(i), t + 2) << "P_basic agent " << i;
  }
  EXPECT_TRUE(check_eba(fip_run.record).ok());
  EXPECT_TRUE(check_eba(min_run.record).ok());
  EXPECT_TRUE(check_eba(basic_run.record).ok());
}

// Prop 6.1 / Prop 7.3 over every small adversary: all three protocols
// satisfy the EBA spec (with validity even for faulty agents and the t+2
// termination bound) on every SO(t) pattern with drops in the first two
// rounds and every preference vector. The sweep visits one representative
// world per (agent-renaming orbit × stabilizer preference class)
// (failure/orbit_sweep.hpp): spec-satisfaction is relabeling-invariant, so
// representative coverage equals full coverage — the run-level symmetry
// reduction that lets the sweep reach n = 7 — and the world weights are
// checked to sum to the unreduced (pattern × preference) count.
class ExhaustiveSpec : public ::testing::TestWithParam<Shape> {};

TEST_P(ExhaustiveSpec, AllAdversariesAllPreferences) {
  const auto [n, t] = GetParam();
  EnumerationConfig cfg{.n = n, .t = t, .rounds = 2};
  const auto drivers = paper_drivers(n, t);
  std::uint64_t checked = 0;
  const std::uint64_t covered = for_each_representative_world(
      cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
               std::uint64_t /*weight*/) {
        for (const auto& [name, drive] : drivers) {
          const RunSummary s = drive(alpha, p);
          const SpecReport rep = check_eba(s.record);
          EXPECT_TRUE(rep.ok_strict())
              << name << ": "
              << (rep.violations.empty() ? "?" : rep.violations[0]);
          ++checked;
          if (::testing::Test::HasFailure()) return false;
        }
        return true;
      });
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(covered,
            count_adversaries(cfg) * (std::uint64_t{1} << cfg.n))
      << "representative weights must cover the whole world space";
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExhaustiveSpec,
                         ::testing::Values(Shape{3, 1}, Shape{4, 1},
                                           Shape{4, 2}, Shape{5, 1},
                                           Shape{6, 1}, Shape{7, 1}),
                         [](const ::testing::TestParamInfo<Shape>& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param.n);
                           name += "t";
                           name += std::to_string(pinfo.param.t);
                           return name;
                         });

// The protocol-zoo baselines (P_es over E_report, P_auth over E_auth) under
// the same exhaustive representative-world sweep, plus the early-stopping
// round bound on every swept world: with f realized faults, every agent
// decides in round ≤ min(f+2, t+2) — equivalently at state time
// ≤ min(f+1, t+1), which implies the classical min(f+2, t+1) early-stopping
// *time* bound (see docs/PROTOCOL_ZOO.md on the round-vs-time numbering).
class ZooExhaustive : public ::testing::TestWithParam<Shape> {};

TEST_P(ZooExhaustive, SpecAndEarlyStoppingBound) {
  const auto [n, t] = GetParam();
  EnumerationConfig cfg{.n = n, .t = t, .rounds = 2};
  const std::vector<std::pair<const char*, RunDriver>> drivers = {
      {"P_es", make_early_stop_driver(n, t)},
      {"P_auth", make_auth_driver(n, t)},
  };
  std::uint64_t checked = 0;
  const std::uint64_t covered = for_each_representative_world(
      cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
               std::uint64_t /*weight*/) {
        const int f = alpha.num_faulty();
        const int bound = std::min(f + 2, t + 2);
        for (const auto& [name, drive] : drivers) {
          const RunSummary s = drive(alpha, p);
          const SpecReport rep = check_eba(s.record);
          EXPECT_TRUE(rep.ok_strict())
              << name << ": "
              << (rep.violations.empty() ? "?" : rep.violations[0]);
          for (AgentId i = 0; i < n; ++i)
            EXPECT_LE(s.round_of(i), bound)
                << name << " agent " << i << " missed the early-stopping "
                << "bound min(f+2, t+2) with f=" << f;
          ++checked;
          if (::testing::Test::HasFailure()) return false;
        }
        return true;
      });
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(covered, count_adversaries(cfg) * (std::uint64_t{1} << cfg.n))
      << "representative weights must cover the whole world space";
}

INSTANTIATE_TEST_SUITE_P(Shapes, ZooExhaustive,
                         ::testing::Values(Shape{3, 1}, Shape{4, 1},
                                           Shape{4, 2}, Shape{5, 1},
                                           Shape{5, 2}),
                         [](const ::testing::TestParamInfo<Shape>& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param.n);
                           name += "t";
                           name += std::to_string(pinfo.param.t);
                           return name;
                         });

// Failure-free behaviour of the zoo baselines: any 0 preference decides 0
// by round 2; unanimous 1 decides 1 in round 2 (f=0 ⇒ the count test fires
// at time 1) — the low-f regime where early stopping beats P_min's fixed
// t+2 (pinned against P_min in test_zoo.cpp).
TEST_P(FailureFree, ZooBaselinesDecideByRoundTwo) {
  const auto [n, t] = GetParam();
  const auto alpha = FailurePattern::failure_free(n);
  const std::vector<std::pair<const char*, RunDriver>> drivers = {
      {"P_es", make_early_stop_driver(n, t)},
      {"P_auth", make_auth_driver(n, t)},
  };
  for (const auto& [name, drive] : drivers) {
    const RunSummary ones_run = drive(alpha, all_ones(n));
    for (AgentId i = 0; i < n; ++i) {
      EXPECT_EQ(ones_run.round_of(i), 2) << name << " agent " << i;
      EXPECT_EQ(ones_run.record.decision(i)->value,
                Value::one)
          << name;
    }
    EXPECT_TRUE(check_eba(ones_run.record).ok_strict()) << name;
    for (AgentId z = 0; z < n; ++z) {
      const RunSummary s = drive(alpha, ones_with_zero_at(n, z));
      for (AgentId i = 0; i < n; ++i) {
        ASSERT_TRUE(s.record.decision(i).has_value())
            << name << " agent " << i;
        EXPECT_EQ(s.record.decision(i)->value, Value::zero)
            << name;
        EXPECT_LE(s.round_of(i), 2) << name;
      }
      EXPECT_TRUE(check_eba(s.record).ok_strict()) << name;
    }
  }
}

// Example 7.1's world for the zoo baselines: t silent faulty agents,
// unanimous 1. The budget-common test pins the faulty set at exactly t in
// round 2 and fires simultaneously: both baselines decide in round 3, the
// same round as P_opt (f = t is early stopping's worst case; the win is at
// low f).
TEST(Example71, ZooBaselinesDecideRoundThree) {
  const int n = 20;
  const int t = 10;
  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const auto alpha = silent_agents_pattern(n, silent, t + 3);
  const auto prefs = all_ones(n);

  for (const auto& [name, drive] :
       std::vector<std::pair<const char*, RunDriver>>{
           {"P_es", make_early_stop_driver(n, t)},
           {"P_auth", make_auth_driver(n, t)}}) {
    const RunSummary s = drive(alpha, prefs);
    for (AgentId i : alpha.nonfaulty())
      EXPECT_EQ(s.round_of(i), 3) << name << " agent " << i;
    EXPECT_TRUE(check_eba(s.record).ok()) << name;
  }
}

}  // namespace
}  // namespace eba
