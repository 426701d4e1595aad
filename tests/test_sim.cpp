// Simulator-level tests: determinism, round semantics, early stopping,
// message/bit accounting (the raw material of Prop 8.1).
#include <gtest/gtest.h>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "sim/protocol_table.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

std::vector<Value> all_ones(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), Value::one);
}

TEST(SimulatorTest, DeterministicAcrossCalls) {
  const int n = 6;
  const int t = 2;
  Rng rng(11);
  for (int k = 0; k < 10; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    for (const auto& [name, drive] : paper_drivers(n, t)) {
      const RunSummary a = drive(alpha, prefs);
      const RunSummary b = drive(alpha, prefs);
      EXPECT_EQ(a.record.actions, b.record.actions) << name;
      EXPECT_EQ(a.bits_sent, b.bits_sent) << name;
    }
  }
}

TEST(SimulatorTest, StopsWhenAllDecided) {
  const int n = 4;
  const int t = 2;
  // Failure-free with a 0: everything is over in 2 rounds even though the
  // horizon allows t+4 = 6.
  auto prefs = all_ones(n);
  prefs[0] = Value::zero;
  const RunSummary s =
      make_min_driver(n, t)(FailurePattern::failure_free(n), prefs);
  EXPECT_EQ(s.record.rounds, 2);
}

TEST(SimulatorTest, NoEarlyStopCoversHorizon) {
  const MinExchange x(4);
  const PMin p(4, 2);
  StepperOptions opt;
  opt.max_rounds = 6;
  opt.stop_when_all_decided = false;
  const auto run = simulate(x, p, FailurePattern::failure_free(4), all_ones(4),
                            2, opt);
  EXPECT_EQ(run.record.rounds, 6);
  EXPECT_EQ(run.states.size(), 7u);
}

// Prop 8.1, exact accounting for P_min: each agent sends exactly one
// decision message to the n-1 others, so n(n-1) bits per run — the paper's
// "n^2 bits" with self-messages excluded.
TEST(BitAccounting, PMinSendsExactlyNTimesNMinusOneBits) {
  for (int n : {3, 5, 8, 13}) {
    const int t = n - 2;
    const auto s =
        make_min_driver(n, t)(FailurePattern::failure_free(n), all_ones(n));
    EXPECT_EQ(s.bits_sent, static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n - 1));
    EXPECT_EQ(s.messages_sent, static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(n - 1));
  }
}

// P_min sends n(n-1) bits in every run, not just failure-free ones.
TEST(BitAccounting, PMinBitsInvariantUnderFailures) {
  const int n = 6;
  const int t = 2;
  Rng rng(5);
  for (int k = 0; k < 30; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.5, rng);
    const auto prefs = sample_preferences(n, rng);
    const auto s = make_min_driver(n, t)(alpha, prefs);
    EXPECT_EQ(s.bits_sent, static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n - 1));
  }
}

// P_basic in the all-ones failure-free run: every agent broadcasts (init,1)
// in round 1 (2 bits each) and its decision in round 2 (2 bits each).
TEST(BitAccounting, PBasicFailureFreeAllOnes) {
  const int n = 5;
  const int t = 3;
  const auto s =
      make_basic_driver(n, t)(FailurePattern::failure_free(n), all_ones(n));
  EXPECT_EQ(s.record.rounds, 2);
  EXPECT_EQ(s.bits_sent, 2u * 2u * static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(n - 1));
}

// P_basic total bits are bounded by the Prop 8.1 envelope O(n^2 t):
// at most (t+2) rounds of 2-bit broadcasts.
TEST(BitAccounting, PBasicWithinEnvelope) {
  const int n = 8;
  const int t = 4;
  Rng rng(17);
  for (int k = 0; k < 30; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const auto s = make_basic_driver(n, t)(alpha, prefs);
    EXPECT_LE(s.bits_sent, 2u * static_cast<std::size_t>(t + 2) *
                               static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n - 1));
  }
}

// The FIP's graph messages grow with time: round r+1 graphs carry
// 2(r n^2 + n) bits.
TEST(BitAccounting, FipGraphSizesGrowLinearlyInTime) {
  const int n = 4;
  const int t = 2;
  const FipExchange x(n);
  const POpt p(n, t);
  StepperOptions opt;
  opt.max_rounds = 3;
  opt.stop_when_all_decided = false;
  const auto run =
      simulate(x, p, FailurePattern::failure_free(n), all_ones(n), t, opt);
  std::size_t expected = 0;
  for (int r = 0; r < 3; ++r)
    expected += static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) *
                (2u * static_cast<std::size_t>(r) * static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(n) +
                 2u * static_cast<std::size_t>(n));
  EXPECT_EQ(run.bits_sent, expected);
}

TEST(SimulatorTest, RecordsSentAndDelivered) {
  const int n = 3;
  const int t = 1;
  FailurePattern alpha(n, AgentSet{0, 1});
  alpha.drop(0, 2, 0);
  auto prefs = all_ones(n);
  prefs[2] = Value::zero;  // agent 2 decides round 1 and announces
  const auto s = make_min_driver(n, t)(alpha, prefs);
  EXPECT_EQ(s.record.sent[0][2], (AgentSet{0, 1}));
  EXPECT_EQ(s.record.delivered[0][2], AgentSet{1}) << "message to 0 dropped";
}

TEST(SimulatorTest, MismatchedInputsThrow) {
  const MinExchange x(3);
  const PMin p(3, 1);
  EXPECT_THROW(
      simulate(x, p, FailurePattern::failure_free(4), all_ones(3), 1),
      std::logic_error);
  EXPECT_THROW(
      simulate(x, p, FailurePattern::failure_free(3), all_ones(2), 1),
      std::logic_error);
}

// The type-erased drivers against simulate() of the same (exchange, action)
// pair: equal records and wire accounting for every ProtocolKind on sampled
// SO patterns (and GO patterns for the _go kinds), at the default horizon
// and with max_rounds cutting the run short.
TEST(DriverEquivalence, EveryKindMatchesSimulate) {
  const int n = 5;
  const int t = 2;
  Rng rng(29);
  int truncated = 0;
  for (const ProtocolKind k :
       {ProtocolKind::p_min, ProtocolKind::p_basic, ProtocolKind::p_opt,
        ProtocolKind::p_opt_p0, ProtocolKind::p_opt_go,
        ProtocolKind::p_opt_go_p0, ProtocolKind::early_stop,
        ProtocolKind::authenticated}) {
    std::vector<FailurePattern> patterns;
    for (int s = 0; s < 4; ++s) {
      patterns.push_back(sample_adversary(n, t, t + 2, 0.4, rng));
      if (model_of(k) == FailureModel::general)
        patterns.push_back(sample_go_adversary(n, t, t + 2, 0.4, 0.3, rng));
    }
    for (const int max_rounds : {0, 1, 2}) {
      const RunDriver drive = make_driver(k, n, t, max_rounds);
      for (const FailurePattern& alpha : patterns) {
        const auto prefs = sample_preferences(n, rng);
        const RunSummary got = drive(alpha, prefs);
        const RunSummary want = with_protocol(
            k, n, t, [&](const auto& x, const auto& p) -> RunSummary {
              return simulate(x, p, alpha, prefs, t,
                              {.max_rounds = max_rounds});
            });
        const std::string what =
            std::string(to_string(k)) + " max_rounds=" +
            std::to_string(max_rounds);
        EXPECT_EQ(got.record, want.record) << what;
        EXPECT_EQ(got.bits_sent, want.bits_sent) << what;
        EXPECT_EQ(got.messages_sent, want.messages_sent) << what;
        if (max_rounds > 0) {
          EXPECT_LE(got.record.rounds, max_rounds) << what;
          truncated += got.last_nonfaulty_round() < 0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(truncated, 0) << "no run was cut short by max_rounds";
}

}  // namespace
}  // namespace eba
