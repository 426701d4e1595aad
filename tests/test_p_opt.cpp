// Unit tests for P_opt's graph tests (Def. A.19): common_v, cond_0, cond_1,
// and the inferred-action machinery, on hand-picked scenarios where the
// expected truth values are derivable from the paper's arguments.
#include <gtest/gtest.h>

#include <type_traits>

#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "graph/knowledge.hpp"
#include "sim/simulator.hpp"

namespace eba {
namespace {

Run<FipExchange> run_fip(int n, int t, const FailurePattern& alpha,
                         const std::vector<Value>& inits, int rounds) {
  SimulateOptions opt;
  opt.max_rounds = rounds;
  opt.stop_when_all_decided = false;
  return simulate(FipExchange(n), POpt(n, t), alpha, inits, t, opt);
}

std::vector<Value> all_ones(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), Value::one);
}

TEST(POptConditions, Cond0AtTimeZeroIsOwnInit) {
  const FipExchange x(3);
  const FipState s0 = x.initial_state(0, Value::zero);
  const FipState s1 = x.initial_state(1, Value::one);
  EXPECT_TRUE(POpt::cond0_test(s0.graph(), 0, Value::zero, s0.inferred));
  EXPECT_FALSE(POpt::cond0_test(s1.graph(), 1, Value::one, s1.inferred));
}

TEST(POptConditions, Cond1FalseAtTimeZero) {
  const FipExchange x(3);
  const FipState s = x.initial_state(0, Value::one);
  EXPECT_FALSE(POpt::cond1_test(s.graph(), 0, s.inferred));
}

TEST(POptConditions, Cond0SeesDeliveredZeroDecision) {
  // Agent 0 has init 0 and decides in round 1; its round-1 graph reaches
  // agent 1 but (by omission... agent 0 is nonfaulty, so everyone) hears it.
  const int n = 3;
  const auto run = run_fip(n, 1, FailurePattern::failure_free(n),
                           {Value::zero, Value::one, Value::one}, 2);
  const FipState& s1 = run.states[1][1];
  const POpt p(n, 1);
  p.infer_actions(s1);
  EXPECT_TRUE(POpt::cond0_test(s1.graph(), 1, Value::one, s1.inferred));
  EXPECT_EQ(s1.inferred.get(0, 0), KnownAction::decide0);
}

TEST(POptConditions, Cond1TrueWhenEveryoneHeardAndNoZeros) {
  // Failure-free all-ones at time 1: no hidden 0-chain can exist because
  // every agent's init is known to be 1.
  const int n = 4;
  const auto run = run_fip(n, 2, FailurePattern::failure_free(n), all_ones(n), 1);
  const FipState& s = run.states[1][0];
  const POpt p(n, 2);
  p.infer_actions(s);
  EXPECT_TRUE(POpt::cond1_test(s.graph(), 0, s.inferred));
}

TEST(POptConditions, Cond1FalseWhileHiddenChainPossible) {
  // One silent faulty agent with unknown preference: it could have had
  // init 0 and be feeding a hidden 0-chain, so cond_1 must fail at time 1
  // (the silent agent plus one more unheard slot would be needed at time 2;
  // at time 1 a chain of length 1 through the silent agent is conceivable).
  const int n = 4;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 3);
  const auto run = run_fip(n, 1, alpha, all_ones(n), 1);
  const FipState& s = run.states[1][0];
  const POpt p(n, 1);
  p.infer_actions(s);
  EXPECT_FALSE(POpt::cond1_test(s.graph(), 0, s.inferred));
}

TEST(POptConditions, CommonRequiresAtLeastOneRound) {
  const FipExchange x(3);
  const FipState s = x.initial_state(0, Value::one);
  EXPECT_FALSE(POpt::common_test(s.graph(), 0, Value::one, 1, s.inferred));
  EXPECT_FALSE(POpt::common_test(s.graph(), 0, Value::zero, 1, s.inferred));
}

TEST(POptConditions, CommonOneHoldsAfterSilentFaultsDetected) {
  // Example 7.1 in miniature: n=4, t=1, agent 3 silent, all inits 1.
  // At time 1 each nonfaulty agent detects the fault (dist holds); at time 2
  // C_N(t-faulty ∧ no-decided(0) ∧ ∃1) holds and common_test must fire.
  const int n = 4;
  const int t = 1;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 3);
  const auto run = run_fip(n, t, alpha, all_ones(n), 2);
  const POpt p(n, t);

  const FipState& s1 = run.states[1][0];
  p.infer_actions(s1);
  EXPECT_FALSE(POpt::common_test(s1.graph(), 0, Value::one, t, s1.inferred))
      << "only distributed knowledge at time 1, not common";

  const FipState& s2 = run.states[2][0];
  p.infer_actions(s2);
  EXPECT_TRUE(POpt::common_test(s2.graph(), 0, Value::one, t, s2.inferred));
  EXPECT_FALSE(POpt::common_test(s2.graph(), 0, Value::zero, t, s2.inferred))
      << "no agent is known to prefer 0";
}

TEST(POptConditions, CommonZeroBlockedByKnownOneDecision) {
  // If some possibly-nonfaulty agent already decided 1, common_0 cannot
  // hold (condition (b) of Def. A.19).
  const int n = 4;
  const int t = 1;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 4);
  SimulateOptions opt;
  opt.max_rounds = 4;
  opt.stop_when_all_decided = false;
  const auto run = simulate(FipExchange(n), POpt(n, t), alpha, all_ones(n), t, opt);
  // By time 3, the nonfaulty agents decided 1 in round 3; common_0 stays
  // false ever after.
  const FipState& s3 = run.states[3][0];
  const POpt p(n, t);
  p.infer_actions(s3);
  EXPECT_FALSE(POpt::common_test(s3.graph(), 0, Value::zero, t, s3.inferred));
}

TEST(POptConditions, CommonZeroTakesPriorityOverCommonOne) {
  // n=4, t=2, agents 0 and 1 faulty. Agent 1 (init 0) decides 0 in round 1
  // and agent 0 follows in round 2, each hidden from agents 2 and 3 in its
  // deciding round. At time 3 the nonfaulty agents know both faults and that
  // ∃0 and ∃1 were known at time 2, so common_0 and common_1 both hold; P1
  // tests common_0 first, so they decide 0.
  const int n = 4;
  const int t = 2;
  FailurePattern alpha(n, AgentSet{2, 3});
  for (AgentId to : {2, 3}) {
    alpha.drop(0, 1, to);
    alpha.drop(1, 0, to);
  }
  const std::vector<Value> prefs = {Value::one, Value::zero, Value::one,
                                    Value::one};
  SimulateOptions opt;
  opt.max_rounds = 4;
  opt.stop_when_all_decided = false;
  const POpt p(n, t);
  const auto run = simulate(FipExchange(n), p, alpha, prefs, t, opt);

  const FipState& s3 = run.states[3][2];
  p.infer_actions(s3);
  EXPECT_TRUE(POpt::common_test(s3.graph(), 2, Value::zero, t, s3.inferred));
  EXPECT_TRUE(POpt::common_test(s3.graph(), 2, Value::one, t, s3.inferred));
  for (AgentId i : {2, 3})
    EXPECT_EQ(run.record.decision(i), (Decision{Value::zero, 4})) << i;
}

TEST(POptInference, TablesAreConsistentWithActualActions) {
  // Whatever an agent infers about (j, m) must match what j actually did.
  const int n = 5;
  const int t = 2;
  Rng rng(77);
  for (int k = 0; k < 20; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    SimulateOptions opt;
    opt.max_rounds = t + 3;
    opt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), POpt(n, t), alpha, prefs, t, opt);
    const POpt p(n, t);
    for (int m = 0; m <= t + 3; ++m) {
      for (AgentId i = 0; i < n; ++i) {
        const FipState& s = run.states[static_cast<std::size_t>(m)]
                                      [static_cast<std::size_t>(i)];
        p.infer_actions(s);
        for (AgentId j = 0; j < n; ++j) {
          for (int m2 = 0; m2 < m; ++m2) {
            const KnownAction known = s.inferred.get(j, m2);
            if (known == KnownAction::unknown) continue;
            const Action actual =
                m2 < run.record.rounds
                    ? run.record.actions[static_cast<std::size_t>(m2)]
                                        [static_cast<std::size_t>(j)]
                    : Action::noop();
            EXPECT_EQ(known, to_known(actual))
                << "observer " << i << " about (" << j << "," << m2 << ")";
          }
        }
      }
    }
  }
}

TEST(POptInference, SilentAgentStaysUnknown) {
  const int n = 4;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 3);
  const auto run = run_fip(n, 1, alpha, all_ones(n), 2);
  const FipState& s = run.states[2][0];
  const POpt p(n, 1);
  p.infer_actions(s);
  EXPECT_EQ(s.inferred.get(3, 0), KnownAction::unknown);
  EXPECT_EQ(s.inferred.get(3, 1), KnownAction::unknown);
}

// The constructor and state guards of the shared rule, per failure model
// and with the common-knowledge lines on and off.
template <class P>
class OptimalRuleBothModels : public ::testing::Test {};
using Models = ::testing::Types<POpt, POptGo>;
TYPED_TEST_SUITE(OptimalRuleBothModels, Models);

TYPED_TEST(OptimalRuleBothModels, RejectsForeignState) {
  using CK = typename TypeParam::CommonKnowledge;
  const FipExchange x(3);
  const FipState s = x.initial_state(0, Value::one);
  for (CK ck : {CK::enabled, CK::disabled}) {
    const TypeParam p(4, 1, ck);
    EXPECT_THROW((void)p(s), std::logic_error);
  }
}

TYPED_TEST(OptimalRuleBothModels, BoundsValidated) {
  using CK = typename TypeParam::CommonKnowledge;
  for (CK ck : {CK::enabled, CK::disabled}) {
    EXPECT_THROW(TypeParam(3, 2, ck), std::logic_error);  // needs n - t >= 2
    EXPECT_THROW(TypeParam(3, -1, ck), std::logic_error);
    EXPECT_NO_THROW(TypeParam(3, 1, ck));
    EXPECT_EQ(TypeParam(3, 1, ck).t(), 1);
  }
}

/// Agent states at times 1..rounds of `runs` seeded runs of P, each with an
/// empty inferred table, run by run and time by time: SO patterns for
/// POpt, GO patterns for POptGo.
template <class P>
std::vector<std::vector<FipState>> cold_states(int n, int t, int rounds,
                                               int runs, Rng& rng) {
  std::vector<std::vector<FipState>> out;
  for (int k = 0; k < runs; ++k) {
    const auto alpha =
        std::is_same_v<P, POptGo>
            ? sample_go_adversary(n, t, rounds + 1, 0.4, 0.3, rng)
            : sample_adversary(n, t, rounds + 1, 0.4, rng);
    SimulateOptions opt;
    opt.max_rounds = rounds;
    opt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), P(n, t), alpha,
                              sample_preferences(n, rng), t, opt);
    for (int m = 1; m <= rounds; ++m) {
      out.push_back(run.states[static_cast<std::size_t>(m)]);
      for (FipState& s : out.back()) s.inferred = ActionTable{};
    }
  }
  return out;
}

void expect_same_inferences(const FipState& got, const FipState& want) {
  for (AgentId j = 0; j < want.graph().n(); ++j)
    for (int m = 0; m <= want.time; ++m)
      EXPECT_EQ(got.inferred.get(j, m), want.inferred.get(j, m))
          << "d(" << j << ", " << m << ")";
}

// The knowledge cache of the agent's own graph is per-thread scratch keyed
// on (graph address, revision), and invalidated on entry to every call.
// Two states sharing both — loaded one after the other into one state whose
// graph is copy-assigned in place, which keeps its address and takes the
// source's revision, a mutation count that lockstep agents repeat — and the
// agents of two runs evaluated interleaved on one thread must each decide
// and infer exactly as a fresh single evaluation does.
TYPED_TEST(OptimalRuleBothModels, OwnGraphCacheNeverAnswersForAnotherState) {
  const int n = 6;
  const int t = 2;
  const int rounds = 3;
  const TypeParam p(n, t);
  Rng rng(20261018);
  const auto cold = cold_states<TypeParam>(n, t, rounds, 16, rng);

  // The reference: every state evaluated once, in place, all alive at once.
  auto fresh = cold;
  std::vector<std::vector<Action>> want(fresh.size());
  for (std::size_t r = 0; r < fresh.size(); ++r)
    for (const FipState& s : fresh[r]) want[r].push_back(p(s));

  // Loaded in place: same self, time, graph address and revision, different
  // labels. The slot owns its graph alone, so writable_graph() is always the
  // same object (where sole_owned can answer; elsewhere every load clones).
  int reused = 0;
  FipState slot = cold[0][0];
  const CommGraph* const home = &slot.writable_graph();
  const auto load = [&](const FipState& s) {
    slot.time = s.time;
    slot.self = s.self;
    slot.init = s.init;
    slot.decided = s.decided;
    slot.inferred = s.inferred;
    slot.writable_graph() = s.graph();
  };
  for (std::size_t a = 0; a < cold.size(); ++a)
    for (std::size_t b = 0; b < cold.size(); ++b)
      for (AgentId i = 0; i < n; ++i) {
        const FipState& sa = cold[a][static_cast<std::size_t>(i)];
        const FipState& sb = cold[b][static_cast<std::size_t>(i)];
        if (sa.time != sb.time || sa.graph() == sb.graph() ||
            sa.graph().revision() != sb.graph().revision())
          continue;
        SCOPED_TRACE(testing::Message() << "agent " << i << " time "
                                        << sb.time << ": state " << a
                                        << " then " << b);
        load(sa);
        (void)p(slot);
        load(sb);
        if (kSoleOwnedWrites) {
          ASSERT_EQ(&slot.graph(), home) << "the slot's graph moved";
        }
        ASSERT_EQ(slot.graph().revision(), sa.graph().revision());
        EXPECT_EQ(p(slot), want[b][static_cast<std::size_t>(i)]);
        expect_same_inferences(slot, fresh[b][static_cast<std::size_t>(i)]);
        ++reused;
      }
  EXPECT_GE(reused, 20) << "too few same-revision pairs to exercise reuse";

  // Interleaved: the agents of two runs at one time, alternately (cold[r]
  // and cold[r + rounds] are consecutive runs at the same time).
  for (std::size_t r = 0; r + rounds < cold.size(); ++r) {
    const std::size_t q = r + rounds;
    auto xa = cold[r];
    auto xb = cold[q];
    for (std::size_t i = 0; i < xa.size(); ++i) {
      EXPECT_EQ(p(xa[i]), want[r][i]);
      EXPECT_EQ(p(xb[i]), want[q][i]);
      EXPECT_EQ(p(xa[i]), want[r][i]) << "second call on a filled table";
      expect_same_inferences(xa[i], fresh[r][i]);
      expect_same_inferences(xb[i], fresh[q][i]);
    }
  }
}

}  // namespace
}  // namespace eba
