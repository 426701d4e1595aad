// Protocol-zoo comparison suite.
//
// Three obligations for the early-stopping/authenticated baselines:
//  * Domination order: on shared worlds, P_opt decides no later than P_es,
//    and P_es no later than P_basic — per agent, exhaustively on small
//    shapes (representative-world sweep) and on seeded samples at n=8.
//  * The analytic crossover: at f=0 the early stoppers decide in round 2
//    while P_min sits at its fixed t+2; at f=t they match P_opt's round 3
//    on Example 7.1's worst case.
//  * Engine agreement for the per-destination wire path: E_auth (the first
//    non-broadcast exchange) must produce identical records and accounting
//    across simulate(), a bare Stepper, and the worker-pool workload
//    driver — the three-engine differential that replaced PR 3's broadcast
//    static_assert.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "action/authenticated.hpp"
#include "action/early_stop.hpp"
#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "exchange/authenticated.hpp"
#include "exchange/fip.hpp"
#include "exchange/report.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "net/workload.hpp"
#include "sim/drivers.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

std::vector<Value> all_ones(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), Value::one);
}

// ---------------------------------------------------------------------------
// Domination: P_opt ≤ P_es ≤ P_basic, per agent, on shared worlds
// ---------------------------------------------------------------------------

void expect_domination(const FailurePattern& alpha,
                       const std::vector<Value>& prefs, const RunDriver& opt,
                       const RunDriver& es, const RunDriver& basic,
                       const std::string& what) {
  const RunSummary r_opt = opt(alpha, prefs);
  const RunSummary r_es = es(alpha, prefs);
  const RunSummary r_basic = basic(alpha, prefs);
  for (AgentId i = 0; i < alpha.n(); ++i) {
    const int o = r_opt.round_of(i);
    const int e = r_es.round_of(i);
    const int b = r_basic.round_of(i);
    ASSERT_GT(o, 0) << what << " agent " << i << " undecided under P_opt";
    ASSERT_GT(e, 0) << what << " agent " << i << " undecided under P_es";
    ASSERT_GT(b, 0) << what << " agent " << i << " undecided under P_basic";
    EXPECT_LE(o, e) << what << ": P_opt later than P_es at agent " << i;
    EXPECT_LE(e, b) << what << ": P_es later than P_basic at agent " << i;
  }
}

struct Shape {
  int n;
  int t;
};

class ZooDomination : public ::testing::TestWithParam<Shape> {};

TEST_P(ZooDomination, ExhaustiveOnSmallShapes) {
  const auto [n, t] = GetParam();
  EnumerationConfig cfg{.n = n, .t = t, .rounds = 2};
  const RunDriver opt = make_fip_driver(n, t);
  const RunDriver es = make_early_stop_driver(n, t);
  const RunDriver basic = make_basic_driver(n, t);
  const std::uint64_t covered = for_each_representative_world(
      cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
               std::uint64_t /*weight*/) {
        expect_domination(alpha, p, opt, es, basic, "exhaustive");
        return !::testing::Test::HasFailure();
      });
  EXPECT_EQ(covered, count_adversaries(cfg) * (std::uint64_t{1} << cfg.n));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ZooDomination,
                         ::testing::Values(Shape{3, 1}, Shape{4, 1},
                                           Shape{4, 2}, Shape{5, 2}),
                         [](const ::testing::TestParamInfo<Shape>& pinfo) {
                           return "n" + std::to_string(pinfo.param.n) + "t" +
                                  std::to_string(pinfo.param.t);
                         });

TEST(ZooDomination, SampledWorldsAtN8) {
  const int n = 8;
  const int t = 2;
  const RunDriver opt = make_fip_driver(n, t);
  const RunDriver es = make_early_stop_driver(n, t);
  const RunDriver basic = make_basic_driver(n, t);
  Rng rng(0x200d);
  for (int k = 0; k < 60; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_domination(alpha, prefs, opt, es, basic,
                      "sampled iter=" + std::to_string(k));
    if (::testing::Test::HasFailure()) break;
  }
}

// P_auth rides the same evidence through signed per-destination messages:
// under omission failures (nobody forges) its decision rounds must equal
// P_es's on every shared world.
TEST(ZooDomination, AuthMatchesEarlyStopRounds) {
  const int n = 8;
  const int t = 2;
  const RunDriver es = make_early_stop_driver(n, t);
  const RunDriver auth = make_auth_driver(n, t);
  Rng rng(0xa07b);
  for (int k = 0; k < 40; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const RunSummary r_es = es(alpha, prefs);
    const RunSummary r_auth = auth(alpha, prefs);
    for (AgentId i = 0; i < n; ++i)
      EXPECT_EQ(r_es.round_of(i), r_auth.round_of(i))
          << "iter " << k << " agent " << i;
    // The signatures are pure overhead under omissions: same message count,
    // 64 extra bits each.
    EXPECT_EQ(r_auth.messages_sent, r_es.messages_sent) << "iter " << k;
    EXPECT_EQ(r_auth.bits_sent,
              r_es.bits_sent + 64 * r_es.messages_sent)
        << "iter " << k;
  }
}

// ---------------------------------------------------------------------------
// The analytic crossover: where early stopping beats the t+1-style baselines
// ---------------------------------------------------------------------------

TEST(ZooCrossover, FailureFreePinsRoundTwoAgainstPMinTPlusTwo) {
  const int n = 8;
  const int t = 3;
  const auto alpha = FailurePattern::failure_free(n);
  const auto prefs = all_ones(n);
  const RunSummary r_min = make_min_driver(n, t)(alpha, prefs);
  const RunSummary r_es = make_early_stop_driver(n, t)(alpha, prefs);
  const RunSummary r_auth = make_auth_driver(n, t)(alpha, prefs);
  const RunSummary r_opt = make_fip_driver(n, t)(alpha, prefs);
  for (AgentId i = 0; i < n; ++i) {
    // f=0: the count test (|faults ∪ zeros| = 0 < time) fires at time 1.
    EXPECT_EQ(r_es.round_of(i), 2) << "agent " << i;
    EXPECT_EQ(r_auth.round_of(i), 2) << "agent " << i;
    EXPECT_EQ(r_opt.round_of(i), 2) << "agent " << i;
    // P_min cannot stop early: unanimous 1 always costs t+2 rounds.
    EXPECT_EQ(r_min.round_of(i), t + 2) << "agent " << i;
  }
}

TEST(ZooCrossover, WorstCaseFEqualsTMatchesPOptRoundThree) {
  // Example 7.1's world (t silent faulty agents, unanimous 1) at n=8, t=2:
  // f = t is early stopping's worst case — the budget-common test pins the
  // faulty set in round 2 and decides in round 3, exactly P_opt's round.
  const int n = 8;
  const int t = 2;
  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const auto alpha = silent_agents_pattern(n, silent, t + 3);
  const auto prefs = all_ones(n);
  const RunSummary r_es = make_early_stop_driver(n, t)(alpha, prefs);
  const RunSummary r_opt = make_fip_driver(n, t)(alpha, prefs);
  for (AgentId i : alpha.nonfaulty()) {
    EXPECT_EQ(r_es.round_of(i), 3) << "agent " << i;
    EXPECT_EQ(r_opt.round_of(i), 3) << "agent " << i;
  }
}

// ---------------------------------------------------------------------------
// Three-engine differential for the per-destination wire path
// ---------------------------------------------------------------------------

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
void expect_three_engines_agree(const X& x, const P& p, int n, int t,
                                std::uint64_t seed, int count,
                                const std::string& name) {
  // Shared seeded worlds.
  std::vector<InstanceSpec> specs;
  Rng rng(seed);
  for (int k = 0; k < count; ++k)
    specs.push_back({sample_adversary(n, t, t + 2, 0.4, rng),
                     sample_preferences(n, rng)});

  // Engine 3: the worker-pool workload driver (serialize µ → byte bus with
  // per-(from,to) payloads → decode → δ).
  WorkloadOptions wopt;
  wopt.workers = 2;
  const auto pooled = run_workload(x, p, std::span(specs), t, wopt);
  ASSERT_EQ(pooled.instances.size(), specs.size());

  for (int k = 0; k < count; ++k) {
    const auto& alpha = specs[static_cast<std::size_t>(k)].alpha;
    const auto& prefs = specs[static_cast<std::size_t>(k)].inits;
    const std::string what = name + " iter=" + std::to_string(k);

    // Engine 1: simulate() (stepper + materializing sink).
    const auto sim = simulate(x, p, alpha, prefs, t);

    // Engine 2: a bare stepper.
    Stepper<X, P> stepper(x, p, alpha, prefs, t, StepperOptions{});
    while (stepper.step()) {
    }

    expect_records_equal(stepper.record(), sim.record, what + " [stepper]");
    EXPECT_EQ(stepper.bits_sent(), sim.bits_sent) << what;
    EXPECT_EQ(stepper.messages_sent(), sim.messages_sent) << what;

    const auto& wire = pooled.instances[static_cast<std::size_t>(k)];
    expect_records_equal(wire.record, sim.record, what + " [workload]");

    EXPECT_TRUE(check_eba(sim.record).ok()) << what;
  }
}

TEST(ZooWirePath, AuthThreeEngineDifferential) {
  const int n = 5;
  const int t = 2;
  expect_three_engines_agree(AuthExchange(n, t, kDefaultAuthKey), PAuth(n, t),
                             n, t, 0x3e9, 12, "E_auth");
}

TEST(ZooWirePath, AuthThreeEngineDifferentialAtBenchmarkShape) {
  // The pauth_n16 shape: 256 signed payloads per round through the byte bus.
  const int n = 16;
  const int t = 4;
  expect_three_engines_agree(AuthExchange(n, t, kDefaultAuthKey), PAuth(n, t),
                             n, t, 0x3eb, 12, "E_auth n=16");
}

TEST(ZooWirePath, ReportThreeEngineDifferential) {
  // The broadcast sibling through the same wire path: E_report payloads
  // round-trip the byte bus with the one-decode-per-sender fan-out.
  const int n = 5;
  const int t = 2;
  expect_three_engines_agree(ReportExchange(n, t), PEarlyStop(n, t), n, t,
                             0x3ea, 12, "E_report");
}

/// run_workload at 1, 2 and 4 workers, twice each in one process, against
/// simulate(), record for record and state for state. Each worker encodes
/// into payload buffers recycled from its previous round and decodes into
/// a reused message matrix (net/workload.hpp WireScratch), across rounds
/// and instances, so a byte or message left over from another round would
/// show here as a diverging record or state.
template <class X, class P>
void expect_recycled_wire_matches_simulate(const X& x, const P& p, int t,
                                           std::uint64_t seed, int count,
                                           const std::string& name) {
  std::vector<InstanceSpec> specs;
  std::vector<Run<X>> want;
  Rng rng(seed);
  for (int k = 0; k < count; ++k) {
    specs.push_back({sample_adversary(x.n(), t, t + 2, 0.4, rng),
                     sample_preferences(x.n(), rng)});
    want.push_back(simulate(x, p, specs.back().alpha, specs.back().inits, t));
  }
  for (int workers : {1, 2, 4})
    for (int pass = 0; pass < 2; ++pass) {
      WorkloadOptions opt;
      opt.workers = workers;
      const auto got = run_workload(x, p, std::span(specs), t, opt);
      ASSERT_EQ(got.instances.size(), specs.size());
      for (std::size_t k = 0; k < specs.size(); ++k) {
        std::string what = name + " workers=" + std::to_string(workers);
        what += " pass=" + std::to_string(pass);
        what += " instance=" + std::to_string(k);
        expect_records_equal(got.instances[k].record, want[k].record, what);
        EXPECT_EQ(got.instances[k].final_states, want[k].states.back())
            << what;
      }
    }
}

TEST(ZooWirePath, RecycledBuffersMatchSimulateAtEveryWorkerCount) {
  // Per-destination: the n×n decode matrix and 256 payloads per round.
  expect_recycled_wire_matches_simulate(AuthExchange(16, 4, kDefaultAuthKey),
                                        PAuth(16, 4), 4, 0x3ec, 24,
                                        "E_auth n=16");
  // Broadcast: a graph payload grows every round, so a recycled buffer is
  // too small for its next payload, and one from a shorter run oversized.
  expect_recycled_wire_matches_simulate(FipExchange(32), POpt(32, 8), 8, 0x3ed,
                                        12, "E_fip n=32");
}

// ---------------------------------------------------------------------------
// Signature semantics: a bad signature is an omission, not a crash
// ---------------------------------------------------------------------------

TEST(ZooAuth, CachedSignerPrefixMatchesFromScratchSignature) {
  // sign() continues a per-sender prefix cached at construction; the result
  // must equal the digest computed from the key, byte for byte.
  const int n = 16;
  const ReportMsg m{.fresh_decide = Value::one,
                    .decided_ever = Value::one,
                    .zeros = AgentSet{3, 9},
                    .faults = AgentSet{0, 15}};
  for (std::uint64_t master : {kDefaultAuthKey, std::uint64_t{0}}) {
    const AuthExchange x(n, 4, master);
    for (int time : {0, 3})
      for (AgentId i = 0; i < n; ++i)
        for (AgentId j = 0; j < n; ++j) {
          KeyedDigest64 d(x.agent_key(i));
          d.u32(static_cast<std::uint32_t>(i));
          d.u32(static_cast<std::uint32_t>(j));
          d.u32(static_cast<std::uint32_t>(time));
          d.u8(2);  // fresh_decide = one
          d.u8(2);  // decided_ever = one
          d.word(m.zeros);
          d.word(m.faults);
          ASSERT_EQ(x.sign(i, j, time, m), d.value())
              << "master=" << master << " time=" << time << " i=" << i
              << " j=" << j;
        }
  }
}

TEST(ZooAuth, TamperedSignatureConvictsTheSender) {
  const int n = 4;
  const int t = 1;
  const AuthExchange x(n, t, kDefaultAuthKey);
  AuthState s = x.initial_state(0, Value::one);

  // A full round-1 inbox of honest payloads for agent 0...
  std::vector<std::optional<AuthMsg>> inbox;
  for (AgentId j = 0; j < n; ++j) {
    AuthState sender = x.initial_state(j, Value::one);
    inbox.push_back(x.message(sender, Action::noop(), /*dest=*/0));
  }
  // ...except agent 2's signature is flipped.
  inbox[2]->sig ^= 1;

  x.update(s, Action::noop(),
           std::span<const std::optional<AuthMsg>>(inbox));
  EXPECT_TRUE(s.faults.contains(2)) << "forged payload must convict";
  EXPECT_EQ(s.faults.size(), 1);

  // A payload signed for another destination is equally dead: replay
  // agent 3's report addressed to agent 1 into agent 0's inbox.
  AuthState s2 = x.initial_state(0, Value::one);
  std::vector<std::optional<AuthMsg>> replay;
  for (AgentId j = 0; j < n; ++j) {
    AuthState sender = x.initial_state(j, Value::one);
    replay.push_back(
        x.message(sender, Action::noop(), /*dest=*/j == 3 ? 1 : 0));
  }
  x.update(s2, Action::noop(),
           std::span<const std::optional<AuthMsg>>(replay));
  EXPECT_TRUE(s2.faults.contains(3)) << "cross-destination replay must fail";
}

}  // namespace
}  // namespace eba
