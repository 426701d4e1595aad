// Equivalence suite for the instance-oriented run engine.
//
// The refactor's correctness oracle is RunRecord equality: the in-place
// Stepper behind simulate(), the opt-in trace-sink materialization and the
// many-instance worker-pool workload must all reproduce the seed
// simulator's semantics (tests/reference_simulator.hpp, kept verbatim)
// for seeded (pattern, preferences) sweeps across P_min / P_basic / P_opt —
// including the early-decide and max_rounds-truncation edges. The
// single-instance run_cluster wrapper is pinned against simulate() in
// test_net.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "action/early_stop.hpp"
#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_zero_biased.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

void expect_records_equal(const RunRecord& got, const RunRecord& want,
                          const std::string& what) {
  EXPECT_EQ(got.n, want.n) << what;
  EXPECT_EQ(got.t, want.t) << what;
  ASSERT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.inits, want.inits) << what;
  EXPECT_EQ(got.nonfaulty, want.nonfaulty) << what;
  EXPECT_EQ(got.actions, want.actions) << what;
  EXPECT_EQ(got.sent, want.sent) << what;
  EXPECT_EQ(got.delivered, want.delivered) << what;
}

template <class X, class P>
void expect_engine_matches_reference(const X& x, const P& p,
                                     const FailurePattern& alpha,
                                     const std::vector<Value>& inits, int t,
                                     const StepperOptions& opt,
                                     const std::string& what) {
  const auto want = testing::reference_simulate(x, p, alpha, inits, t, opt);

  // simulate(): Stepper + MaterializingSink, byte-compatible Run<X>.
  const auto got = simulate(x, p, alpha, inits, t, opt);
  expect_records_equal(got.record, want.record, what + " [simulate]");
  EXPECT_EQ(got.bits_sent, want.bits_sent) << what;
  EXPECT_EQ(got.messages_sent, want.messages_sent) << what;
  ASSERT_EQ(got.states.size(), want.states.size()) << what;
  for (std::size_t m = 0; m < want.states.size(); ++m)
    EXPECT_EQ(got.states[m], want.states[m]) << what << " states at time " << m;

  // A bare Stepper (no sink): identical record, identical final states.
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  sopt.stop_when_all_decided = opt.stop_when_all_decided;
  Stepper<X, P> stepper(x, p, alpha, inits, t, sopt);
  while (stepper.step()) {
  }
  EXPECT_EQ(stepper.bits_sent(), want.bits_sent) << what;
  EXPECT_EQ(stepper.messages_sent(), want.messages_sent) << what;
  expect_records_equal(stepper.record(), want.record, what + " [stepper]");
  EXPECT_EQ(stepper.states(), want.states.back()) << what << " final states";
}

template <class MakeX, class MakeP>
void sweep_protocol(MakeX make_x, MakeP make_p, int n, int t,
                    std::uint64_t seed, int iterations,
                    const std::string& name) {
  const auto x = make_x(n);
  const auto p = make_p(n, t);
  Rng rng(seed);
  for (int k = 0; k < iterations; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const std::string what = name + " seed=" + std::to_string(seed) +
                             " iter=" + std::to_string(k);
    // Default early-stopping semantics.
    expect_engine_matches_reference(x, p, alpha, prefs, t, StepperOptions{},
                                    what);
    // max_rounds truncation: a horizon so short runs are cut mid-protocol.
    StepperOptions truncated;
    truncated.max_rounds = 2;
    expect_engine_matches_reference(x, p, alpha, prefs, t, truncated,
                                    what + " truncated");
    // No early stop: the run must cover the whole horizon even after
    // every agent decided.
    StepperOptions full;
    full.max_rounds = t + 3;
    full.stop_when_all_decided = false;
    expect_engine_matches_reference(x, p, alpha, prefs, t, full,
                                    what + " no-early-stop");
  }
}

TEST(StepperEquivalence, PMinMatchesSeedSemantics) {
  sweep_protocol([](int n) { return MinExchange(n); },
                 [](int n, int t) { return PMin(n, t); }, 5, 2, 101, 12,
                 "P_min");
}

TEST(StepperEquivalence, PBasicMatchesSeedSemantics) {
  sweep_protocol([](int n) { return BasicExchange(n); },
                 [](int n, int t) { return PBasic(n, t); }, 5, 2, 102, 12,
                 "P_basic");
}

TEST(StepperEquivalence, POptMatchesSeedSemantics) {
  // E_fip's graph messages through step()'s broadcast round (one shared
  // graph per sender, fanned out by apply_broadcast) against the seed's
  // n×n inbox of shared_ptr messages.
  sweep_protocol([](int n) { return FipExchange(n); },
                 [](int n, int t) { return POpt(n, t); }, 4, 2, 103, 8,
                 "P_opt");
}

TEST(StepperEquivalence, EarlyDecideStopsLikeSeed) {
  // Failure-free with a zero preference: everyone decides 0 in round 1 and
  // the early-stop kicks in identically (the Stepper's running undecided
  // counter vs the seed's per-round rescan).
  const int n = 6;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  expect_engine_matches_reference(MinExchange(n), PMin(n, t),
                                  FailurePattern::failure_free(n), prefs, t,
                                  StepperOptions{}, "early-decide");
}

TEST(StepperTest, UndecidedCounterTracksDecisions) {
  const int n = 4;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  // The stepper borrows the exchange and protocol: they must outlive it.
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(x, p, FailurePattern::failure_free(n),
                                     prefs, t);
  EXPECT_EQ(stepper.undecided(), n);
  ASSERT_TRUE(stepper.step());  // round 1: agent 0 decides 0, announces
  EXPECT_EQ(stepper.undecided(), n - 1);
  ASSERT_TRUE(stepper.step());  // round 2: everyone else hears and decides
  EXPECT_EQ(stepper.undecided(), 0);
  EXPECT_TRUE(stepper.done());
  EXPECT_FALSE(stepper.step());
}

TEST(StepperTest, TraceSinkSeesEveryTime) {
  const int n = 4;
  const int t = 1;
  MaterializingSink<MinExchange> sink;
  StepperOptions opt;
  opt.max_rounds = 3;
  opt.stop_when_all_decided = false;
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(
      x, p, FailurePattern::failure_free(n),
      std::vector<Value>(static_cast<std::size_t>(n), Value::one), t, opt,
      &sink);
  while (stepper.step()) {
  }
  ASSERT_EQ(sink.states().size(), 4u) << "times 0..3";
  for (const auto& states : sink.states())
    EXPECT_EQ(states.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(sink.states().back(), stepper.states());
}

/// A sink that records every (time, states) callback verbatim, so tests can
/// pin WHEN the stepper publishes, not just what ended up materialized.
template <class X>
class RecordingSink final : public TraceSink<X> {
 public:
  void on_states(int time,
                 std::span<const typename X::State> states) override {
    times.push_back(time);
    snapshots.emplace_back(states.begin(), states.end());
  }
  std::vector<int> times;
  std::vector<std::vector<typename X::State>> snapshots;
};

/// The sink contract: exactly one callback per round boundary — time 0 at
/// construction, then time m after round m completes — and each snapshot
/// equal to the reference simulator's states[m]. Checked for both halting
/// modes the driver exercises: early decide and max_rounds truncation.
template <class X, class P>
void expect_sink_pins_reference(const X& x, const P& p,
                                const FailurePattern& alpha,
                                const std::vector<Value>& inits, int t,
                                const StepperOptions& opt,
                                const std::string& what) {
  const auto want = testing::reference_simulate(x, p, alpha, inits, t, opt);

  RecordingSink<X> sink;
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  sopt.stop_when_all_decided = opt.stop_when_all_decided;
  Stepper<X, P> stepper(x, p, alpha, inits, t, sopt, &sink);
  while (stepper.step()) {
  }

  ASSERT_EQ(sink.times.size(),
            static_cast<std::size_t>(want.record.rounds) + 1)
      << what << ": one callback per time 0..rounds";
  for (std::size_t m = 0; m < sink.times.size(); ++m)
    EXPECT_EQ(sink.times[m], static_cast<int>(m))
        << what << ": boundary callbacks in round order";
  ASSERT_EQ(sink.snapshots.size(), want.states.size()) << what;
  for (std::size_t m = 0; m < want.states.size(); ++m)
    EXPECT_EQ(sink.snapshots[m], want.states[m])
        << what << " states at time " << m;

  // MaterializingSink is the same stream, stored: rerun and compare.
  MaterializingSink<X> mat;
  Stepper<X, P> again(x, p, alpha, inits, t, sopt, &mat);
  while (again.step()) {
  }
  EXPECT_EQ(mat.states(), want.states) << what << " [materializing]";
}

TEST(StepperTest, SinkBoundariesUnderEarlyDecideMatchReference) {
  // Failure-free with one zero preference: P_min decides early and the
  // stepper halts before the horizon. The sink must stop with it — no
  // phantom boundary for rounds that never ran.
  const int n = 5;
  const int t = 2;
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[1] = Value::zero;
  expect_sink_pins_reference(MinExchange(n), PMin(n, t),
                             FailurePattern::failure_free(n), prefs, t,
                             StepperOptions{}, "sink early-decide p_min");

  Rng rng(404);
  for (int k = 0; k < 3; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    expect_sink_pins_reference(FipExchange(n), POpt(n, t), alpha,
                               sample_preferences(n, rng), t,
                               StepperOptions{},
                               "sink early-decide p_opt iter=" +
                                   std::to_string(k));
  }
}

TEST(StepperTest, SinkBoundariesUnderMaxRoundsTruncationMatchReference) {
  const int n = 5;
  const int t = 2;
  Rng rng(405);
  for (int max_rounds : {1, 2}) {
    StepperOptions opt;
    opt.max_rounds = max_rounds;
    opt.stop_when_all_decided = false;
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_sink_pins_reference(
        MinExchange(n), PMin(n, t), alpha, prefs, t, opt,
        "sink truncated p_min R=" + std::to_string(max_rounds));
    expect_sink_pins_reference(
        FipExchange(n), POpt(n, t), alpha, prefs, t, opt,
        "sink truncated p_opt R=" + std::to_string(max_rounds));
  }
}

TEST(ParallelForTest, OneChunkRunsOnceOnTheCallingThread) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{40},
                                  std::size_t{64}}) {
    int calls = 0;
    std::thread::id ran_on;
    parallel_for(4, count, 64, [&](std::size_t begin, std::size_t end) {
      calls += 1;
      ran_on = std::this_thread::get_id();
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, count);
    });
    EXPECT_EQ(calls, 1) << count;
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << count;
  }
}

TEST(ParallelForTest, MultiChunkOutputIsTheSameAtEveryWorkerCount) {
  const std::size_t count = 1000;
  const auto fill = [&](int workers) {
    std::vector<std::uint64_t> out(count, 0);
    parallel_for(workers, count, 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * i + 7;
    });
    return out;
  };
  const std::vector<std::uint64_t> one = fill(1);
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(one[i], i * i + 7);
  EXPECT_EQ(fill(2), one);
  EXPECT_EQ(fill(4), one);
}

TEST(BusPoolTest, AcquireReleaseAndExhaustion) {
  BusPool pool(2);
  EXPECT_EQ(pool.capacity(), 2u);
  const auto a = pool.acquire(FailurePattern::failure_free(3));
  const auto b = pool.acquire(FailurePattern::failure_free(3));
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_THROW((void)pool.acquire(FailurePattern::failure_free(3)),
               std::logic_error);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);
  const auto c = pool.acquire(FailurePattern::failure_free(4));
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_THROW(pool.release(c), std::logic_error) << "double release";
}

TEST(BusPoolTest, ExchangeRoundFiltersLikeThePattern) {
  const int n = 3;
  FailurePattern alpha(n, AgentSet{0, 1});
  alpha.drop(0, 2, 0);
  BusPool pool(1);
  const auto slot = pool.acquire(alpha);

  std::vector<std::optional<Bytes>> outbox;
  for (AgentId i = 0; i < n; ++i)
    outbox.push_back(Bytes{static_cast<std::uint8_t>(i)});
  const auto res = pool.exchange_round(slot, std::move(outbox));
  EXPECT_EQ(res.round, 0);
  EXPECT_FALSE(res.inbox[0][2].has_value()) << "dropped by the adversary";
  EXPECT_TRUE(res.inbox[1][2].has_value());
  EXPECT_TRUE(res.inbox[2][2].has_value()) << "self-delivery";
  EXPECT_EQ((*res.inbox[1][2])[0], 2);
  EXPECT_EQ(res.sent[2], (AgentSet{0, 1}));
  EXPECT_EQ(res.delivered[2], AgentSet{1});
  EXPECT_EQ(pool.completed_rounds(slot), 1);

  // ⊥ payloads are not delivered anywhere.
  std::vector<std::optional<Bytes>> silent(static_cast<std::size_t>(n));
  const auto res2 = pool.exchange_round(slot, std::move(silent));
  EXPECT_EQ(res2.round, 1);
  for (AgentId to = 0; to < n; ++to)
    for (AgentId from = 0; from < n; ++from)
      EXPECT_FALSE(res2.inbox[static_cast<std::size_t>(to)]
                             [static_cast<std::size_t>(from)]
                                 .has_value());
  pool.release(slot);
}

TEST(BusPoolTest, ReceivedMasksAndInboxViewFollowThePatternEdgeByEdge) {
  // The bus contract over seeded SO and GO (two-plane) patterns, with ⊥
  // senders and restored slots: received[to] is exactly {from : from sent
  // and alpha.delivered(m, from, to)}, the inbox view agrees with it, every
  // receiver reads the one stored payload, and the sent/delivered logs
  // match the pattern. Both the 8-agent and the full-word 64-agent layout.
  Rng rng(601);
  bool saw_receive_drops = false;
  for (int n : {8, 64}) {
    const int t = n / 8;
    const auto un = static_cast<std::size_t>(n);
    for (int k = 0; k < 6; ++k) {
      const bool go = k % 2 == 1;
      const FailurePattern alpha =
          go ? sample_go_adversary(n, t, t + 2, 0.4, 0.4, rng)
             : sample_adversary(n, t, t + 2, 0.4, rng);
      saw_receive_drops = saw_receive_drops || alpha.has_receive_drops();
      const int resume = k % 3 == 2 ? 2 : 0;
      BusPool pool(1);
      const auto slot = pool.acquire(alpha, resume);
      for (int m = resume; m < t + 3; ++m) {
        const std::string what = "n=" + std::to_string(n) + " k=" +
                                 std::to_string(k) + " m=" + std::to_string(m);
        std::vector<std::optional<Bytes>> outbox(un);
        for (std::size_t i = 0; i < un; ++i)
          if (rng.below(4) != 0)
            outbox[i] = Bytes{static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(m)};
        const auto want = outbox;
        const BusPool::RoundResult res =
            pool.exchange_round(slot, std::move(outbox));
        ASSERT_EQ(res.round, m) << what;
        ASSERT_EQ(res.received().size(), un) << what;
        for (AgentId to = 0; to < n; ++to) {
          const auto uto = static_cast<std::size_t>(to);
          AgentSet expect;
          for (AgentId from = 0; from < n; ++from)
            if (want[static_cast<std::size_t>(from)] &&
                alpha.delivered(m, from, to))
              expect.insert(from);
          EXPECT_EQ(res.received()[uto], expect) << what << " to=" << to;
          for (std::size_t from = 0; from < un; ++from) {
            const std::optional<Bytes>& got = res.inbox[uto][from];
            ASSERT_EQ(got.has_value(),
                      expect.contains(static_cast<AgentId>(from)))
                << what << " edge " << from << "->" << to;
            if (!got) continue;
            EXPECT_EQ(*got, *want[from]) << what;
            EXPECT_EQ(&got, &res.payloads()[from])
                << what << ": a receiver got a copy, not the stored payload";
          }
        }
        for (AgentId from = 0; from < n; ++from) {
          const auto ufrom = static_cast<std::size_t>(from);
          AgentSet sent;
          AgentSet delivered;
          if (want[ufrom])
            for (AgentId to = 0; to < n; ++to) {
              if (to == from) continue;
              sent.insert(to);
              if (alpha.delivered(m, from, to)) delivered.insert(to);
            }
          EXPECT_EQ(res.sent[ufrom], sent) << what << " from=" << from;
          EXPECT_EQ(res.delivered[ufrom], delivered)
              << what << " from=" << from;
        }
      }
      pool.release(slot);
    }
  }
  EXPECT_TRUE(saw_receive_drops) << "no GO pattern exercised the receive plane";
}

TEST(BusPoolTest, BroadcastPayloadIsStoredOnceAndReadByReference) {
  // Zero-copy, pinned by address: every receiver of a broadcast (its sender
  // included) reads the same object, and moving the result moves that one
  // buffer without invalidating the view.
  const int n = 4;
  BusPool pool(1);
  const auto slot = pool.acquire(FailurePattern::failure_free(n));
  std::vector<std::optional<Bytes>> outbox(static_cast<std::size_t>(n));
  outbox[0] = Bytes{7, 7, 7};
  BusPool::RoundResult res = pool.exchange_round(slot, std::move(outbox));
  const std::optional<Bytes>* stored = &res.inbox[1][0];
  EXPECT_EQ(stored, &res.payloads()[0]);
  EXPECT_EQ(&res.inbox[2][0], stored);
  EXPECT_EQ(&res.inbox[3][0], stored);
  EXPECT_EQ(&res.inbox[0][0], stored) << "self-delivery reads the same copy";
  EXPECT_FALSE(res.inbox[2][1].has_value()) << "⊥ sender";
  EXPECT_EQ(res.received()[2], AgentSet{0});

  BusPool::RoundResult moved = std::move(res);
  EXPECT_EQ(&moved.inbox[3][0], stored);
  BusPool::RoundResult assigned;
  assigned = std::move(moved);
  EXPECT_EQ(&assigned.inbox[2][0], stored);
  EXPECT_EQ(*assigned.inbox[2][0], (Bytes{7, 7, 7}));
  EXPECT_THROW((void)assigned.inbox[4], std::logic_error);
  EXPECT_THROW((void)assigned.inbox[0][4], std::logic_error);
  pool.release(slot);
}

TEST(BusPoolTest, PerDestinationViewReadsEachEdgesOwnPayload) {
  const int n = 3;
  const auto un = static_cast<std::size_t>(n);
  FailurePattern alpha(n, AgentSet{0, 1});
  alpha.drop(0, 2, 0);
  BusPool pool(1);
  const auto slot = pool.acquire(alpha);
  std::vector<std::vector<std::optional<Bytes>>> outbox(
      un, std::vector<std::optional<Bytes>>(un));
  for (std::size_t from = 0; from < un; ++from)
    for (std::size_t to = 0; to < un; ++to)
      if (!(from == 1 && to == 2))  // 1 -> 2 is ⊥
        outbox[from][to] = Bytes{static_cast<std::uint8_t>(from),
                                 static_cast<std::uint8_t>(to)};
  const BusPool::RoundResult res = pool.exchange_round(slot, std::move(outbox));
  for (std::size_t to = 0; to < un; ++to) {
    AgentSet expect;
    for (std::size_t from = 0; from < un; ++from) {
      const bool arrives = !(from == 1 && to == 2) && !(from == 2 && to == 0);
      const std::optional<Bytes>& got = res.inbox[to][from];
      ASSERT_EQ(got.has_value(), arrives) << from << "->" << to;
      if (!arrives) continue;
      expect.insert(static_cast<AgentId>(from));
      EXPECT_EQ(*got, (Bytes{static_cast<std::uint8_t>(from),
                             static_cast<std::uint8_t>(to)}));
      EXPECT_EQ(&got, &res.payloads()[from * un + to]);
    }
    EXPECT_EQ(res.received()[to], expect) << "to=" << to;
  }
  EXPECT_EQ(res.sent[1], AgentSet{0});
  EXPECT_EQ(res.delivered[2], AgentSet{1});
  pool.release(slot);
}

TEST(BusPoolTest, TakePayloadsHandsBackEveryBufferAndKillsTheView) {
  // The wire path recycles a round's payload buffers as the next round's
  // encode buffers; after the hand-back the inbox view must refuse reads,
  // not dangle into the moved-out storage.
  const int n = 3;
  const auto un = static_cast<std::size_t>(n);
  BusPool pool(1);
  const auto slot = pool.acquire(FailurePattern::failure_free(n));
  std::vector<std::optional<Bytes>> outbox(un);
  outbox[0] = Bytes{1, 2, 3};
  outbox[2] = Bytes{4};
  const std::uint8_t* storage = outbox[0]->data();
  BusPool::RoundResult res = pool.exchange_round(slot, std::move(outbox));
  EXPECT_EQ(*res.inbox[1][0], (Bytes{1, 2, 3}));
  const std::vector<std::optional<Bytes>> back = res.take_payloads();
  ASSERT_EQ(back.size(), un);
  EXPECT_EQ(back[0]->data(), storage) << "the buffer itself comes back";
  EXPECT_FALSE(back[1].has_value());
  EXPECT_EQ(*back[2], Bytes{4});
  EXPECT_TRUE(res.payloads().empty());
  EXPECT_THROW((void)res.inbox[1], std::logic_error);
  EXPECT_EQ(res.received()[1], (AgentSet{0, 2})) << "masks stay readable";

  std::vector<std::vector<std::optional<Bytes>>> matrix(
      un, std::vector<std::optional<Bytes>>(un, Bytes{9}));
  BusPool::RoundResult edges = pool.exchange_round(slot, std::move(matrix));
  EXPECT_EQ(edges.take_payloads().size(), un * un);
  EXPECT_THROW((void)edges.inbox[0], std::logic_error);
  pool.release(slot);
}

/// Three steppers on one world in lockstep: one completes each round through
/// the matrix finish_round, one through the sender-major overload, and one
/// runs step(). The first two get the same µ results from a hand-rolled
/// loop, filtered edge by edge through FailurePattern::delivered() rather
/// than the mask filter the engines use; step() stages µ through
/// stage_broadcast, so its states and its bit/message accounting pin the
/// shared staging helper against that independent loop. States and
/// accounting must agree after every round, and every record must equal
/// the seed simulator's. For E_fip the matrix overload runs the inbox-form
/// update and the other two the joined δ, so this is also the join's
/// differential.
template <class X, class P>
void expect_lockstep_world(const X& x, const P& p, int t,
                           const FailurePattern& alpha,
                           const std::vector<Value>& prefs,
                           const std::string& what) {
  using Message = typename X::Message;
  const int n = x.n();
  const auto un = static_cast<std::size_t>(n);
  Stepper<X, P> matrix(x, p, alpha, prefs, t);
  Stepper<X, P> sender_major(x, p, alpha, prefs, t);
  Stepper<X, P> stepped(x, p, alpha, prefs, t);
  while (const std::vector<Action>* actions = matrix.begin_round()) {
    ASSERT_NE(sender_major.begin_round(), nullptr) << what;
    ASSERT_TRUE(stepped.step()) << what;
    const int m = matrix.time();
    std::vector<std::optional<Message>> by_sender(un);
    std::vector<std::vector<std::optional<Message>>> inbox(
        un, std::vector<std::optional<Message>>(un));
    std::vector<AgentSet> received(un);
    std::vector<AgentSet> sent(un);
    std::vector<AgentSet> delivered(un);
    std::size_t bits = 0;
    std::size_t messages = 0;
    for (AgentId i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      by_sender[ui] = x.message(matrix.states()[ui], (*actions)[ui], 0);
      if (!by_sender[ui]) continue;
      bits += (un - 1) * x.message_bits(*by_sender[ui]);
      messages += un - 1;
      sent[ui] = AgentSet::all(n).minus(AgentSet{i});
      for (AgentId j = 0; j < n; ++j) {
        if (!alpha.delivered(m, i, j)) continue;
        inbox[static_cast<std::size_t>(j)][ui] = by_sender[ui];
        received[static_cast<std::size_t>(j)].insert(i);
        if (j != i) delivered[ui].insert(j);
      }
    }
    matrix.finish_round(inbox, sent, delivered, bits, messages);
    sender_major.finish_round(by_sender, received, sent, delivered, bits,
                              messages);
    const std::string after = what + " after round " + std::to_string(m + 1);
    ASSERT_EQ(sender_major.states(), matrix.states()) << after;
    ASSERT_EQ(stepped.states(), matrix.states()) << after << " [step]";
    ASSERT_EQ(stepped.bits_sent(), matrix.bits_sent()) << after;
    ASSERT_EQ(stepped.messages_sent(), matrix.messages_sent()) << after;
  }
  EXPECT_TRUE(sender_major.done()) << what;
  EXPECT_TRUE(stepped.done()) << what;
  EXPECT_EQ(sender_major.bits_sent(), matrix.bits_sent()) << what;
  EXPECT_EQ(sender_major.messages_sent(), matrix.messages_sent()) << what;
  const auto want = testing::reference_simulate(x, p, alpha, prefs, t);
  expect_records_equal(matrix.record(), want.record, what + " [matrix]");
  expect_records_equal(sender_major.record(), want.record,
                       what + " [sender-major]");
  expect_records_equal(stepped.record(), want.record, what + " [step]");
  EXPECT_EQ(sender_major.states(), want.states.back()) << what;
}

/// expect_lockstep_world over seeded worlds, alternating SO(t) and GO(t).
template <class X, class P>
void expect_sender_major_matches_matrix(const X& x, const P& p, int t,
                                        std::uint64_t seed, int worlds,
                                        const std::string& name) {
  const int n = x.n();
  Rng rng(seed);
  for (int k = 0; k < worlds; ++k) {
    const FailurePattern alpha =
        k % 2 == 0 ? sample_adversary(n, t, t + 2, 0.4, rng)
                   : sample_go_adversary(n, t, t + 2, 0.3, 0.3, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_lockstep_world(x, p, t, alpha, prefs,
                          name + " world " + std::to_string(k));
  }
}

TEST(StepperTest, SenderMajorFinishRoundMatchesMatrixForEveryBroadcastExchange) {
  expect_sender_major_matches_matrix(MinExchange(8), PMin(8, 2), 2, 701, 6,
                                     "E_min");
  expect_sender_major_matches_matrix(MinExchange(64), PMin(64, 8), 8, 702, 4,
                                     "E_min n=64");
  expect_sender_major_matches_matrix(BasicExchange(8), PBasic(8, 2), 2, 703,
                                     6, "E_basic");
  expect_sender_major_matches_matrix(RelayExchange(8), PZeroBiased(8, 2), 2,
                                     704, 6, "E_relay");
  expect_sender_major_matches_matrix(FipExchange(8), POpt(8, 2), 2, 705, 4,
                                     "E_fip");
  // The scale E_fip's joined δ targets: C is the n − t or more nonfaulty
  // senders, plus any faulty one that happened to reach everyone.
  expect_sender_major_matches_matrix(FipExchange(32), POpt(32, 8), 8, 707, 4,
                                     "E_fip n=32");
  expect_sender_major_matches_matrix(ReportExchange(8, 2), PEarlyStop(8, 2),
                                     2, 706, 6, "E_report");
}

/// C of round m+1 under `alpha` when everyone broadcasts: the senders every
/// receiver hears, which E_fip's joined δ merges once.
AgentSet commonly_heard(const FailurePattern& alpha, int m) {
  const auto un = static_cast<std::size_t>(alpha.n());
  std::vector<AgentSet> received(un);
  std::vector<AgentSet> delivered(un);
  alpha.filter_broadcast(m, AgentSet::all(alpha.n()), received, delivered);
  AgentSet common = AgentSet::all(alpha.n());
  for (const AgentSet r : received) common = common.intersected(r);
  return common;
}

// Hand-built rounds at each edge of the join: no common sender, one (too
// few to join), and GO(t) receive drops shrinking C below the nonfaulty
// senders. Every round of each run has the same drops, so every round hits
// the edge; the lockstep differential pins the joined δ to the matrix one.
TEST(StepperTest, JoinedFipDeltaMatchesMatrixAtEveryCommonSenderCount) {
  const int n = 8;
  const int t = 2;
  const FipExchange x(n);
  const POpt p(n, t);
  const AgentSet faulty{0, 1};
  struct Case {
    std::string name;
    AgentSet deaf0;  ///< senders receiver 0 receive-drops
    AgentSet deaf1;  ///< senders receiver 1 receive-drops
    AgentSet mute1;  ///< receivers sender 1 send-drops
    AgentSet common;
  };
  const std::vector<Case> cases = {
      {"C empty", {1, 2, 3, 4}, {0, 5, 6, 7}, {}, {}},
      {"C one sender", {1, 2, 3, 4, 5, 6}, {0}, {}, {7}},
      {"GO receive drops shrink C", {4, 5}, {}, {3}, {0, 2, 3, 6, 7}},
  };
  Rng rng(708);
  for (const Case& c : cases) {
    FailurePattern alpha(n, faulty.complement(n));
    for (int m = 0; m < t + 4; ++m) {
      for (AgentId from : c.deaf0) alpha.drop_receive(m, from, 0);
      for (AgentId from : c.deaf1) alpha.drop_receive(m, from, 1);
      for (AgentId to : c.mute1) alpha.drop(m, 1, to);
      ASSERT_EQ(commonly_heard(alpha, m), c.common) << c.name;
    }
    for (int k = 0; k < 3; ++k)
      expect_lockstep_world(x, p, t, alpha, sample_preferences(n, rng),
                            c.name + " prefs " + std::to_string(k));
  }
}

// The joined δ keeps merge's conflict check: a forged graph that
// contradicts another sender's throws in both finish_round overloads,
// whether the forger is in C (the join itself conflicts) or outside it
// (its graph conflicts with the join at the receivers that heard it).
TEST(StepperTest, JoinedFipDeltaKeepsTheConflictCheck) {
  const int n = 4;
  const int t = 1;
  const auto un = static_cast<std::size_t>(n);
  const FipExchange x(n);
  const POpt p(n, t);
  const std::vector<Value> prefs = {Value::one, Value::zero, Value::one,
                                    Value::one};
  const AgentId forger = 3;
  using Message = FipExchange::Message;
  for (const bool forger_in_common : {true, false}) {
    FailurePattern alpha(n, AgentSet::all(n).minus(AgentSet{forger}));
    if (!forger_in_common) alpha.drop(0, forger, 1);
    ASSERT_EQ(commonly_heard(alpha, 0).contains(forger), forger_in_common);
    for (const bool sender_major : {true, false}) {
      const std::string what =
          std::string(forger_in_common ? "forger in C" : "forger outside C") +
          (sender_major ? " [sender-major]" : " [matrix]");
      Stepper<FipExchange, POpt> s(x, p, alpha, prefs, t);
      const std::vector<Action>* actions = s.begin_round();
      ASSERT_NE(actions, nullptr);
      std::vector<std::optional<Message>> by_sender(un);
      for (std::size_t i = 0; i < un; ++i)
        by_sender[i] = x.message(s.states()[i], (*actions)[i], 0);
      // Agent 1 prefers 0 and says so in its graph; the forger claims 1.
      CommGraph forged = s.states()[forger].graph();
      forged.set_pref(1, PrefLabel::one);
      by_sender[forger] = std::make_shared<const CommGraph>(forged);
      std::vector<AgentSet> received(un);
      std::vector<AgentSet> delivered(un);
      alpha.filter_broadcast(0, AgentSet::all(n), received, delivered);
      if (sender_major) {
        EXPECT_THROW(s.finish_round(by_sender, received,
                                    std::vector<AgentSet>(un), delivered, 0,
                                    0),
                     std::logic_error)
            << what;
      } else {
        std::vector<std::vector<std::optional<Message>>> inbox(
            un, std::vector<std::optional<Message>>(un));
        for (std::size_t j = 0; j < un; ++j)
          for (AgentId i : received[j])
            inbox[j][static_cast<std::size_t>(i)] =
                by_sender[static_cast<std::size_t>(i)];
        EXPECT_THROW(s.finish_round(inbox, std::vector<AgentSet>(un),
                                    delivered, 0, 0),
                     std::logic_error)
            << what;
      }
    }
  }
}

// E_fip's graphs are copy-on-write: µ shares the state's graph, and δ
// clones it first while a message or a copied state still holds it. Each
// holder keeps the graph it saw; a sole owner is written in place.
TEST(FipStateTest, DeltaClonesAGraphThatAMessageOrACopyStillHolds) {
  const int n = 4;
  const auto un = static_cast<std::size_t>(n);
  const FipExchange x(n);
  std::vector<FipState> states;
  for (AgentId i = 0; i < n; ++i)
    states.push_back(x.initial_state(i, i % 2 ? Value::one : Value::zero));
  const auto round = [&] {
    std::vector<std::optional<FipExchange::Message>> inbox(un);
    for (std::size_t i = 0; i < un; ++i)
      inbox[i] = x.message(states[i], Action::noop(), 0);
    for (FipState& s : states) x.update(s, Action::noop(), inbox);
  };
  round();  // every δ clones: the round's inbox holds every graph

  FipState& s = states[0];
  const FipState before = s;  // shares s's graph
  const std::optional<FipExchange::Message> mu =
      x.message(s, Action::noop(), 0);
  ASSERT_EQ(mu->get(), &s.graph()) << "µ copied the graph";
  const CommGraph seen = **mu;
  round();
  EXPECT_EQ(s.time, 2);
  EXPECT_NE(&s.graph(), mu->get());
  EXPECT_EQ(**mu, seen) << "δ changed a sent message";
  EXPECT_EQ(before.graph(), seen) << "δ changed a copied state";
  EXPECT_EQ(before.time, 1);
  EXPECT_NE(s, before);

  // Nothing else holds states[2]'s graph once the round's inbox is gone,
  // so δ writes it in place.
  const FipState alone = states[1];
  const CommGraph* own = &states[2].graph();
  std::vector<std::optional<FipExchange::Message>> inbox(un);
  inbox[1] = alone.shared_graph();
  x.update(states[2], Action::noop(), inbox);
  if (kSoleOwnedWrites) {
    EXPECT_EQ(&states[2].graph(), own) << "a sole owner was cloned";
  }
  EXPECT_EQ(states[2].graph().label(2, 1, 2), Label::present);
}

// The sole-owner test is race-free across threads: a copy read and dropped
// on another thread, with only a relaxed flag between that drop and δ,
// still happens before δ's in-place write (ThreadSanitizer checks this).
TEST(FipStateTest, SoleOwnerSeesAnotherThreadsDropBeforeWritingInPlace) {
  if (!kSoleOwnedWrites) GTEST_SKIP() << "every δ clones on this library";
  const FipExchange x(4);
  FipState s = x.initial_state(0, Value::one);
  auto held = std::make_unique<FipState>(s);
  std::atomic<bool> dropped{false};
  std::size_t seen = 0;
  std::thread reader([&] {
    seen = held->graph().hash();
    held.reset();
    dropped.store(true, std::memory_order_relaxed);
  });
  while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
  const CommGraph* own = &s.graph();
  x.update(s, Action::noop(),
           std::vector<std::optional<FipExchange::Message>>(4));
  reader.join();
  EXPECT_EQ(&s.graph(), own);
  EXPECT_EQ(s.graph().time(), 1);
  EXPECT_EQ(seen, x.initial_state(0, Value::one).graph().hash());
}

// step() is begin_round() + an in-memory transport + finish_round(), so
// it leans on the split-phase contract: a round, once begun, is finished
// exactly once before anything else touches the stepper.
TEST(StepperTest, SplitPhaseContractRefusesMixedPhases) {
  const int n = 4;
  const int t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  const std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  const auto un = static_cast<std::size_t>(n);
  using Message = MinExchange::Message;
  const std::vector<std::vector<std::optional<Message>>> inbox(
      un, std::vector<std::optional<Message>>(un));
  const std::vector<std::optional<Message>> by_sender(un);
  const std::vector<AgentSet> received(un);

  Stepper<MinExchange, PMin> s(x, p, FailurePattern::failure_free(n), prefs,
                               t);
  // finish_round without begin_round, in either overload.
  EXPECT_THROW(s.finish_round(inbox, std::vector<AgentSet>(un),
                              std::vector<AgentSet>(un), 0, 0),
               std::logic_error);
  EXPECT_THROW(s.finish_round(by_sender, received, std::vector<AgentSet>(un),
                              std::vector<AgentSet>(un), 0, 0),
               std::logic_error);

  ASSERT_NE(s.begin_round(), nullptr);
  ASSERT_TRUE(s.in_round());
  EXPECT_THROW((void)s.begin_round(), std::logic_error);
  EXPECT_THROW((void)s.step(), std::logic_error);
  EXPECT_THROW((void)s.take_record(), std::logic_error);
  EXPECT_THROW((void)s.take_states(), std::logic_error);
  EXPECT_THROW((void)checkpoint_stepper(s), std::logic_error);

  // None of the refusals disturbed the round: it still finishes, and the
  // stepper then runs to the end through step().
  s.finish_round(inbox, std::vector<AgentSet>(un), std::vector<AgentSet>(un),
                 0, 0);
  EXPECT_FALSE(s.in_round());
  EXPECT_EQ(s.time(), 1);
  EXPECT_THROW(s.finish_round(inbox, std::vector<AgentSet>(un),
                              std::vector<AgentSet>(un), 0, 0),
               std::logic_error);
  while (s.step()) {
  }
  EXPECT_TRUE(s.done());
}

template <class X, class P>
std::vector<InstanceSpec> seeded_specs(const X& x, int t, int count,
                                       std::uint64_t seed) {
  std::vector<InstanceSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (int k = 0; k < count; ++k)
    specs.push_back({sample_adversary(x.n(), t, t + 2, 0.4, rng),
                     sample_preferences(x.n(), rng)});
  return specs;
}

/// `check_spec` = false for protocols that are not EBA protocols under
/// omissions (P_zero_biased): the engines must still agree run for run.
template <class X, class P>
void expect_workload_matches_reference(const X& x, const P& p, int t,
                                       int count, std::uint64_t seed,
                                       int workers, const std::string& name,
                                       bool check_spec = true) {
  const auto specs = seeded_specs<X, P>(x, t, count, seed);
  WorkloadOptions opt;
  opt.workers = workers;
  const auto result = run_workload(x, p, std::span(specs), t, opt);
  ASSERT_EQ(result.instances.size(), specs.size());
  ASSERT_EQ(result.latency_us.size(), specs.size());
  EXPECT_EQ(result.concurrent_instances, specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto want = testing::reference_simulate(
        x, p, specs[k].alpha, specs[k].inits, t, StepperOptions{});
    expect_records_equal(result.instances[k].record, want.record,
                         name + " instance " + std::to_string(k));
    EXPECT_EQ(result.instances[k].final_states, want.states.back())
        << name << " instance " << k;
    EXPECT_GT(result.latency_us[k], 0.0) << name << " instance " << k;
    if (check_spec) {
      EXPECT_TRUE(check_eba(result.instances[k].record).ok())
          << name << " instance " << k;
    }
  }
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePMin) {
  expect_workload_matches_reference(MinExchange(5), PMin(5, 2), 2, 48, 201, 4,
                                    "P_min");
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePBasic) {
  expect_workload_matches_reference(BasicExchange(5), PBasic(5, 2), 2, 48,
                                    202, 4, "P_basic");
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePOptOverTheWire) {
  expect_workload_matches_reference(FipExchange(4), POpt(4, 2), 2, 24, 203, 4,
                                    "P_opt");
}

// The benchmark's shapes (e2ebench: pmin_n64, popt_n32): at n = 64 every
// AgentSet mask fills its whole word, where an off-by-one in a shift or a
// mask filter would first show.
TEST(WorkloadTest, WorkerPoolMatchesReferencePMinAtN64) {
  expect_workload_matches_reference(MinExchange(64), PMin(64, 8), 8, 16, 206,
                                    2, "P_min n=64");
}

TEST(WorkloadTest, WorkerPoolMatchesReferencePOptAtN32) {
  expect_workload_matches_reference(FipExchange(32), POpt(32, 8), 8, 3, 207, 2,
                                    "P_opt n=32");
}

TEST(WorkloadTest, WorkerPoolMatchesReferenceRelay) {
  // E_relay keeps broadcasting once 0 is known: the densest broadcast round
  // on the wire. P_zero_biased violates EBA under omissions
  // (test_impossibility.cpp), so only engine agreement is checked.
  expect_workload_matches_reference(RelayExchange(64), PZeroBiased(64, 8), 8,
                                    8, 208, 2, "E_relay n=64",
                                    /*check_spec=*/false);
  expect_workload_matches_reference(RelayExchange(5), PZeroBiased(5, 2), 2, 24,
                                    209, 4, "E_relay n=5",
                                    /*check_spec=*/false);
}

TEST(WorkloadTest, SingleWorkerMatchesManyWorkers) {
  const FipExchange x(4);
  const POpt p(4, 2);
  const auto specs = seeded_specs<FipExchange, POpt>(x, 2, 16, 204);
  WorkloadOptions one;
  one.workers = 1;
  WorkloadOptions many;
  many.workers = 4;
  const auto a = run_workload(x, p, std::span(specs), 2, one);
  const auto b = run_workload(x, p, std::span(specs), 2, many);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    expect_records_equal(a.instances[k].record, b.instances[k].record,
                         "instance " + std::to_string(k));
    EXPECT_EQ(a.instances[k].final_states, b.instances[k].final_states);
  }
}

TEST(WorkloadTest, MaxRoundsTruncatesEveryInstance) {
  const MinExchange x(4);
  const PMin p(4, 2);
  // All-ones preferences, failure-free: P_min normally decides in round
  // t+2; a horizon of 1 truncates it.
  std::vector<InstanceSpec> specs(
      8, {FailurePattern::failure_free(4),
          std::vector<Value>(4, Value::one)});
  WorkloadOptions opt;
  opt.workers = 3;
  opt.max_rounds = 1;
  const auto result = run_workload(x, p, std::span(specs), 2, opt);
  for (const auto& inst : result.instances) EXPECT_EQ(inst.record.rounds, 1);
}

TEST(AdaptiveWorkloadTest, ThreeEnginesAgreeOnSeededStrategies) {
  // The adaptive differential: a fresh same-seeded strategy driven through
  // (a) the bare Stepper (run_adaptive), (b) simulate_adaptive and (c) the
  // wire-path worker pool must produce identical RunRecords and identical
  // realized patterns. Strategy RNG consumption is observation-independent,
  // so the seed pins the whole run; any divergence means one engine shows
  // the strategy a different world (or applies its drops differently).
  const int n = 4;
  const int t = 2;
  const FipExchange x(n);
  const POpt p(n, t);
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[static_cast<std::size_t>(n - 1)] = Value::zero;

  for (const auto& factory : shipped_strategies(n, t, FailureModel::general)) {
    for (std::uint64_t seed : {5ull, 6ull}) {
      const std::string what = factory.name + " seed " + std::to_string(seed);

      auto bare_strat = factory.make(seed);
      const AdaptiveOutcome bare = run_adaptive(x, p, *bare_strat, prefs, t);

      auto sim_strat = factory.make(seed);
      FailurePattern sim_realized = FailurePattern::failure_free(1);
      const auto sim = simulate_adaptive(x, p, *sim_strat, prefs, t,
                                         StepperOptions{}, &sim_realized);

      std::vector<AdaptiveInstanceSpec> specs;
      specs.push_back({factory.make(seed), prefs});
      WorkloadOptions wopt;
      wopt.workers = 2;
      const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, wopt);
      ASSERT_EQ(pooled.instances.size(), 1u) << what;

      expect_records_equal(sim.record, bare.summary.record, what + " [sim]");
      expect_records_equal(pooled.instances[0].record, bare.summary.record,
                           what + " [pool]");
      EXPECT_TRUE(sim_realized == bare.realized) << what;
    }
  }
}

TEST(AdaptiveWorkloadTest, ManyInstancesUnderManyWorkers) {
  // A batch of seeded random-budget instances over the pool equals the bare
  // runs instance-for-instance, regardless of worker interleaving.
  const int n = 5;
  const int t = 2;
  const MinExchange x(n);
  const PMin p(n, t);
  Rng rng(301);
  std::vector<AdaptiveInstanceSpec> specs;
  std::vector<std::vector<Value>> all_prefs;
  for (int k = 0; k < 24; ++k) {
    const auto prefs = sample_preferences(n, rng);
    specs.push_back({make_random_budget_strategy(
                         n, t, FailureModel::general,
                         static_cast<std::uint64_t>(k)),
                     prefs});
    all_prefs.push_back(prefs);
  }
  WorkloadOptions wopt;
  wopt.workers = 4;
  const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, wopt);
  ASSERT_EQ(pooled.instances.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto strat = make_random_budget_strategy(n, t, FailureModel::general,
                                             static_cast<std::uint64_t>(k));
    const AdaptiveOutcome want = run_adaptive(x, p, *strat, all_prefs[k], t);
    expect_records_equal(pooled.instances[k].record, want.summary.record,
                         "instance " + std::to_string(k));
  }
}

/// Commits one fixed pattern up front and adds no drops online: replays a
/// static adversary through run_adaptive_workload, whose wire path re-syncs
/// the slot's pattern from the stepper every round.
class FixedPatternStrategy final : public AdversaryStrategy {
 public:
  explicit FixedPatternStrategy(FailurePattern alpha)
      : alpha_(std::move(alpha)) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] FailureModel model() const override {
    return FailureModel::general;
  }
  [[nodiscard]] FailurePattern base_pattern() override { return alpha_; }
  void on_round(const StagedRound&, FailurePattern&) override {}

 private:
  FailurePattern alpha_;
};

/// Commits a base pattern with t+1 faulty agents and counts the rounds it
/// is shown.
class OverBudgetStrategy final : public AdversaryStrategy {
 public:
  OverBudgetStrategy(int n, int t) : n_(n), t_(t) {}
  [[nodiscard]] std::string name() const override { return "over_budget"; }
  [[nodiscard]] FailureModel model() const override {
    return FailureModel::general;
  }
  [[nodiscard]] FailurePattern base_pattern() override {
    return FailurePattern(n_, AgentSet::all(n_).minus(AgentSet::all(t_ + 1)));
  }
  void on_round(const StagedRound&, FailurePattern&) override { ++rounds; }
  int rounds = 0;

 private:
  int n_;
  int t_;
};

TEST(AdaptiveWorkloadTest, EveryEngineRejectsAnOverBudgetBaseBeforeRoundOne) {
  // The base pattern's model/budget check belongs to the shared setup, so
  // every engine refuses the instance before the strategy sees a round.
  const int n = 4;
  const int t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  const std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);

  OverBudgetStrategy bare(n, t);
  EXPECT_THROW((void)run_adaptive(x, p, bare, prefs, t), std::logic_error);
  EXPECT_EQ(bare.rounds, 0);

  OverBudgetStrategy sim(n, t);
  EXPECT_THROW((void)simulate_adaptive(x, p, sim, prefs, t), std::logic_error);
  EXPECT_EQ(sim.rounds, 0);

  std::vector<AdaptiveInstanceSpec> specs;
  specs.push_back({std::make_unique<OverBudgetStrategy>(n, t), prefs});
  const auto* pooled = static_cast<OverBudgetStrategy*>(specs[0].strategy.get());
  EXPECT_THROW((void)run_adaptive_workload(x, p, std::span(specs), t, {}),
               std::logic_error);
  EXPECT_EQ(pooled->rounds, 0);
}

/// GO(t) worlds with receive-plane drops through the adaptive driver's
/// sync_pattern path: the bus must filter with both planes exactly as the
/// seed simulator does.
template <class X, class P>
void expect_go_wire_matches_reference(const X& x, const P& p, int t,
                                      double recv_drop_prob, int count,
                                      std::uint64_t seed,
                                      const std::string& name) {
  const int n = x.n();
  Rng rng(seed);
  std::vector<AdaptiveInstanceSpec> specs;
  std::vector<FailurePattern> patterns;
  for (int k = 0; k < count; ++k) {
    patterns.push_back(
        sample_go_adversary(n, t, t + 2, 0.3, recv_drop_prob, rng));
    ASSERT_TRUE(patterns.back().has_receive_drops()) << name;
    specs.push_back({std::make_unique<FixedPatternStrategy>(patterns.back()),
                     sample_preferences(n, rng)});
  }
  WorkloadOptions wopt;
  wopt.workers = 2;
  const auto pooled = run_adaptive_workload(x, p, std::span(specs), t, wopt);
  ASSERT_EQ(pooled.instances.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto want = testing::reference_simulate(x, p, patterns[k],
                                                  specs[k].inits, t);
    const std::string what = name + " instance " + std::to_string(k);
    expect_records_equal(pooled.instances[k].record, want.record, what);
    EXPECT_EQ(pooled.instances[k].final_states, want.states.back()) << what;
  }
}

TEST(AdaptiveWorkloadTest, GoReceiveDropsCrossTheSyncedWirePath) {
  // The full-word shape of the benchmark's pmin_n64, and a small dense one
  // where a lost receive drop changes states.
  expect_go_wire_matches_reference(MinExchange(64), PMin(64, 8), 8, 0.3, 8,
                                   210, "GO P_min n=64");
  expect_go_wire_matches_reference(BasicExchange(5), PBasic(5, 2), 2, 0.6, 24,
                                   211, "GO P_basic n=5");
}

}  // namespace
}  // namespace eba
