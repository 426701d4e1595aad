// General-omissions model GO(t) end-to-end:
//
//   * model-checked implementation: P_opt_go implements the knowledge-based
//     program P1 in exhaustively enumerated γ_go contexts, and the
//     synthesizer re-derives its decisions from P1 semantics alone;
//   * exhaustive spec + domination sweeps over canonical GO orbits at
//     n = 4 (t = 1, 2) and n = 5 (t = 1), with multiplicity-coverage
//     asserts against the closed-form GO space counts;
//   * the GO fault machinery (clause/cover reasoning, self-conviction of
//     receive-faulty agents, the n > 2t identifiability boundary);
//   * differential pins: a GO pattern with an empty receive-drop plane is
//     bit-identical to the SO pattern with the same send plane, across the
//     simulate/Stepper/worker-pool execution paths (reference_simulator.hpp
//     oracle), and the GO adversary walk begins with exactly the SO walk.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "kripke/kbp.hpp"
#include "kripke/synthesis.hpp"
#include "kripke/system.hpp"
#include "net/workload.hpp"
#include "reference_simulator.hpp"
#include "sim/drivers.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

std::string describe(const KbpMismatch& m) {
  return "run " + std::to_string(m.point.run) + " time " +
         std::to_string(m.point.time) + " agent " + std::to_string(m.agent) +
         ": concrete=" + to_string(m.concrete) +
         " program=" + to_string(m.program);
}

// ---------------------------------------------------------------------------
// Model-checked implementation theorems in γ_go.
// ---------------------------------------------------------------------------

// P_opt_go implements P1 in γ_go(3, 1) (drops on either plane in the first
// two rounds, every preference vector). With t = 1 every agent decides by
// round t+2 = 3 — except provably-receive-faulty agents, which may run
// later, and whose times 0..2 are still epistemically adequate (R = 2), so
// the check runs through time 3 as in the SO test.
TEST(KripkeGo, POptGoImplementsP1) {
  InterpretedSystem<FipExchange, POptGo> sys(FipExchange(3), POptGo(3, 1), 1,
                                             4);
  sys.add_all_runs(go_config(3, 1, 2));
  sys.finalize();
  EXPECT_EQ(sys.num_runs(), 769 * 8);
  const auto mismatches = check_implementation(
      sys,
      [](const auto& I, Point pt, AgentId i) { return eval_p1(I, pt, i); }, 3);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches; first: " << describe(mismatches[0]);
}

// n = 4 with drops in round 1 only: adequate through time 1, which is where
// the interesting GO decisions of this family appear (cf. the SO TwoFaults
// test). The receive plane makes this context 16x the SO one.
TEST(KripkeGo, POptGoImplementsP1AtN4) {
  InterpretedSystem<FipExchange, POptGo> sys(FipExchange(4), POptGo(4, 1), 1,
                                             4);
  sys.add_all_runs(go_config(4, 1, 1));
  sys.finalize();
  EXPECT_EQ(sys.num_runs(), 257 * 16);
  const auto mismatches = check_implementation(
      sys,
      [](const auto& I, Point pt, AgentId i) { return eval_p1(I, pt, i); }, 1);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches; first: " << describe(mismatches[0]);
}

// ---------------------------------------------------------------------------
// Synthesis: round-by-round construction from P1 semantics over γ_go worlds
// reproduces P_opt_go's decisions (value AND round), with no knowledge of
// the concrete protocol. Horizon r+1 keeps every compared action inside the
// truncated context's adequacy range (actions in rounds <= r+1 are decided
// from states at times <= r).
// ---------------------------------------------------------------------------
class SynthesisGo
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SynthesisGo, P1InGoContextMatchesPOptGo) {
  const auto [n, t, rounds, horizon] = GetParam();
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const auto prefs = all_preference_vectors(n);
  enumerate_adversaries(go_config(n, t, rounds), [&](const FailurePattern& a) {
    for (const auto& p : prefs) worlds.emplace_back(a, p);
    return true;
  });
  KbpSynthesizer<FipExchange> synth(FipExchange(n), t, KbpProgram::p1);
  const auto result = synth.run(worlds, horizon);
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    SimulateOptions opt;
    opt.max_rounds = horizon;
    opt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), POptGo(n, t), worlds[w].first,
                              worlds[w].second, t, opt);
    for (AgentId i = 0; i < n; ++i) {
      const auto expected = run.record.decision(i);
      const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
      ASSERT_EQ(got.has_value(), expected.has_value()) << "world " << w;
      if (expected) {
        ASSERT_EQ(got->value, expected->value) << "world " << w;
        ASSERT_EQ(got->round, expected->round) << "world " << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Contexts, SynthesisGo,
    ::testing::Values(std::tuple{3, 1, 2, 4},   // full γ_go(3,1), deep horizon
                      std::tuple{4, 1, 1, 2},   // round-1 drops
                      std::tuple{4, 1, 2, 3}),  // 262144 worlds, both planes
    [](const ::testing::TestParamInfo<std::tuple<int, int, int, int>>& info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "t";
      name += std::to_string(std::get<1>(info.param));
      name += "r";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Exhaustive spec sweep over canonical GO orbits (spec satisfaction is
// relabeling-invariant; multiplicities must cover the whole GO space).
// ---------------------------------------------------------------------------
struct Shape {
  int n;
  int t;
  int rounds;
};

class ExhaustiveSpecGo : public ::testing::TestWithParam<Shape> {};

TEST_P(ExhaustiveSpecGo, AllGoAdversariesAllPreferences) {
  const auto [n, t, rounds] = GetParam();
  const EnumerationConfig cfg = go_config(n, t, rounds);
  const auto prefs = all_preference_vectors(n);
  const auto go = make_go_driver(n, t);
  std::uint64_t checked = 0;
  std::uint64_t covered = 0;
  enumerate_canonical_adversaries(
      cfg, [&](const FailurePattern& alpha, std::uint64_t multiplicity) {
        covered += multiplicity;
        EXPECT_TRUE(alpha.in_go(t));
        for (const auto& p : prefs) {
          const RunSummary s = go(alpha, p);
          const SpecReport rep = check_eba(s.record);
          EXPECT_TRUE(rep.ok_strict())
              << "n=" << n << " t=" << t << ": "
              << (rep.violations.empty() ? "?" : rep.violations[0]);
          ++checked;
          if (::testing::Test::HasFailure()) return false;
        }
        return true;
      });
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(covered, count_go_adversaries(cfg))
      << "orbit multiplicities must cover the whole GO space";
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExhaustiveSpecGo,
                         ::testing::Values(Shape{3, 1, 2}, Shape{4, 1, 2},
                                           Shape{4, 2, 1}, Shape{5, 1, 1}),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param.n);
                           name += "t";
                           name += std::to_string(info.param.t);
                           name += "r";
                           name += std::to_string(info.param.rounds);
                           return name;
                         });

// ---------------------------------------------------------------------------
// Domination over canonical GO orbits: the common-knowledge lines never
// delay a decision (P_opt_go <= its P0 ablation pointwise), and on the SO
// members of the space (empty receive plane) the SO-optimal P_opt — which
// reasons over the smaller SO world set — is never later than P_opt_go.
// ---------------------------------------------------------------------------
TEST(DominationGo, CommonKnowledgeNeverLaterOnCanonicalOrbits) {
  for (const auto& [n, t, rounds] :
       std::vector<std::tuple<int, int, int>>{{4, 1, 2}, {4, 2, 1}}) {
    const auto go = make_go_driver(n, t);
    const auto go_p0 = make_go_p0_driver(n, t);
    const auto so_opt = make_fip_driver(n, t);
    const auto prefs = all_preference_vectors(n);
    std::uint64_t covered = 0;
    const EnumerationConfig cfg = go_config(n, t, rounds);
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& alpha, std::uint64_t multiplicity) {
          covered += multiplicity;
          for (const auto& p : prefs) {
            const RunSummary g = go(alpha, p);
            const RunSummary g0 = go_p0(alpha, p);
            for (AgentId i : alpha.nonfaulty()) {
              EXPECT_GT(g.round_of(i), 0) << "n=" << n << " t=" << t;
              EXPECT_LE(g.round_of(i), g0.round_of(i))
                  << "P_opt_go later than its P0 ablation, agent " << i;
            }
            if (!alpha.has_receive_drops()) {
              const RunSummary f = so_opt(alpha, p);
              for (AgentId i : alpha.nonfaulty())
                EXPECT_LE(f.round_of(i), g.round_of(i))
                    << "SO-optimal later than GO-optimal on an SO run, agent "
                    << i;
            }
          }
          return !::testing::Test::HasFailure();
        });
    EXPECT_EQ(covered, count_go_adversaries(cfg));
  }
}

// ---------------------------------------------------------------------------
// The GO Example-7.1 analogue: t coordinated deaf-and-mute faults, all-one
// preferences. With n > 2t the pooled evidence forces the faulty set (no
// <= t cover avoids a silent agent once it has more than t witnesses), the
// common-knowledge test fires, and P_opt_go decides in round 3 while the P0
// ablation needs t+2. At n = 2t the nonfaulty set is itself a <= t cover —
// the observers genuinely cannot tell silent senders from their own deaf
// receive plane — so NO faults are forced and both variants take t+2.
// ---------------------------------------------------------------------------
TEST(Example71Go, CommonKnowledgeShortcutIffIdentifiable) {
  for (const auto& [n, t, expect_shortcut] :
       std::vector<std::tuple<int, int, bool>>{
           {8, 3, true}, {12, 5, true}, {8, 4, false}}) {
    AgentSet silent;
    for (AgentId i = 0; i < t; ++i) silent.insert(i);
    const FailurePattern alpha = deaf_mute_agents_pattern(n, silent, t + 3);
    const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);
    const RunSummary g = make_go_driver(n, t)(alpha, ones);
    const RunSummary g0 = make_go_p0_driver(n, t)(alpha, ones);
    for (AgentId i : alpha.nonfaulty()) {
      EXPECT_EQ(g.round_of(i), expect_shortcut ? 3 : t + 2)
          << "n=" << n << " t=" << t << " agent " << i;
      EXPECT_EQ(g0.round_of(i), t + 2) << "n=" << n << " t=" << t;
    }
    EXPECT_TRUE(check_eba(g.record).ok());
    EXPECT_TRUE(check_eba(g0.record).ok());
  }
}

// ---------------------------------------------------------------------------
// GO fault machinery units.
// ---------------------------------------------------------------------------

// A receiver that misses more senders than the budget explains convicts
// ITSELF: with t = 1, two distinct missing senders leave {self} as the only
// cover. With t = 2 the evidence is ambiguous (both senders may be faulty),
// so nothing is forced and everyone is possibly faulty.
TEST(GoFaults, ReceiveFaultSelfConviction) {
  OmissionEvidence e(4);
  e.add(1, 0);  // round-1 message 1 -> 0 missing
  e.add(2, 0);  // round-1 message 2 -> 0 missing
  EXPECT_EQ(go_known_faults(e, 1), AgentSet{0});
  EXPECT_EQ(go_possibly_faulty(e, 1), AgentSet{0});
  EXPECT_EQ(go_known_faults(e, 2), AgentSet{});
  EXPECT_EQ(go_possibly_faulty(e, 2), AgentSet::all(4));
  // A single missing edge never convicts anyone.
  OmissionEvidence single(4);
  single.add(3, 1);
  EXPECT_EQ(go_known_faults(single, 1), AgentSet{});
  EXPECT_EQ(go_possibly_faulty(single, 1), (AgentSet{1, 3}).united(AgentSet{}));
  EXPECT_TRUE(go_cover_exists(single, 1, AgentSet{}));
  EXPECT_FALSE(go_cover_exists(single, 1, AgentSet{1, 3}));
  // Inconsistent evidence (needs more faults than the budget) throws.
  OmissionEvidence wide(6);
  wide.add(0, 1);
  wide.add(2, 3);
  wide.add(4, 5);
  EXPECT_FALSE(go_cover_exists(wide, 2, AgentSet{}));
  EXPECT_THROW((void)go_known_faults(wide, 2), std::logic_error);
  EXPECT_EQ(go_known_faults(wide, 3), AgentSet{});
}

// The evidence recurrence over a concrete run: after a silent round, every
// receiver holds one clause per missing sender, and evidence propagates to
// whoever hears from the receiver.
TEST(GoFaults, EvidenceRecurrenceOverARun) {
  const int n = 4;
  const int t = 1;
  FailurePattern alpha(n, AgentSet{1, 2, 3});  // 0 faulty
  alpha.deafen_forever(0, 2);                  // 0 hears nobody, rounds 1-2
  const std::vector<Value> inits{Value::one, Value::one, Value::one,
                                 Value::one};
  SimulateOptions opt;
  opt.stop_when_all_decided = false;
  opt.max_rounds = 3;
  const auto run = simulate(FipExchange(n), POptGo(n, t), alpha, inits, t, opt);
  // Agent 0 at time 2 knows it missed 1, 2, 3 twice: self-conviction.
  const auto& g0 = run.states[2][0].graph();
  const OmissionEvidence e0 = go_evidence(g0, 0, 2);
  EXPECT_EQ(e0.adj(0), (AgentSet{1, 2, 3}));
  EXPECT_EQ(go_known_faults(e0, t), AgentSet{0});
  // Agent 1 at time 2 heard 0's time-1 graph? No — 0 still SENDS (deaf, not
  // mute), so 1 has 0's evidence of round 1 and knows 0 convicts itself
  // only once the budget is exceeded; with two missing senders at t=1 the
  // round-1 evidence {1->0, 2->0, 3->0} already forces {0}.
  const auto& g1 = run.states[2][1].graph();
  EXPECT_EQ(go_known_faults(go_evidence(g1, 1, 2), t), AgentSet{0});
  // The full table agrees with the per-node query.
  const auto table = go_evidence_table(g1);
  EXPECT_EQ(table[2][1], go_evidence(g1, 1, 2));
  EXPECT_EQ(table[0][1].implicated(), AgentSet{});
}

// A provably-deaf agent still terminates: once its own evidence forces
// {self} as the fault set, every other agent is provably nonfaulty — so any
// hidden 0-cascade among them completed within two rounds, the hidden-chain
// space exhausts, and the deaf agent decides 1. This is GO-specific
// behavior the SO cond_1 cannot express (it never consults the budget).
// Note the deaf agent decides 1 even when an unseen 0 exists: agreement
// binds nonfaulty deciders only, and the deaf agent IS the fault.
TEST(GoFaults, DeafAgentEventuallyDecidesOne) {
  const int n = 4;
  const int t = 1;
  FailurePattern alpha(n, AgentSet{1, 2, 3});
  alpha.deafen_forever(0, t + 3);
  const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);
  const RunSummary s = make_go_driver(n, t)(alpha, ones);
  // Nonfaulty agents see a failure-free all-one round and decide in round 2
  // (the deaf agent still sends); the deaf agent proves itself faulty after
  // round 1 and exhausts the chain space one round later.
  EXPECT_EQ(s.round_of(0), 3);
  for (AgentId i = 1; i < n; ++i) EXPECT_EQ(s.round_of(i), 2);
  EXPECT_TRUE(check_eba(s.record).ok_strict());
  // An unseen zero does not change the deaf agent's (correct) decision.
  auto zeros = ones;
  zeros[1] = Value::zero;
  const RunSummary z = make_go_driver(n, t)(alpha, zeros);
  EXPECT_EQ(z.decisions[0]->value, Value::one);
  EXPECT_TRUE(check_eba(z.record).ok());
}

// The GO-only cond_0 clause (GeneralOmissions::forced_zero) in action: a
// partially deaf agent that SAW the 0-decision (relayed once) but whose
// budget proves the cascade among the provably-nonfaulty peers is completing
// right now decides 0 with it — even though it never received a
// just-decided message directly.
TEST(GoFaults, PartiallyDeafAgentJoinsTheForcedCascade) {
  const int n = 3;
  const int t = 1;
  FailurePattern alpha(n, AgentSet{1, 2});  // agent 0 faulty
  alpha.drop_receive(0, 2, 0);              // round 1: 0 misses 2 (the zero)
  alpha.drop_receive(1, 1, 0);              // round 2: 0 misses 1
  const std::vector<Value> prefs{Value::one, Value::one, Value::zero};
  const RunSummary s = make_go_driver(n, t)(alpha, prefs);
  // 2 decides 0 in round 1; 1 hears it and decides 0 in round 2. Agent 0
  // sees 2's decision only via 2's round-2 graph, and at time 2 its two
  // missing messages force {0} as the fault set: 1 is provably nonfaulty,
  // provably heard 2's broadcast, and provably decides 0 in round 2 — so 0
  // knows "some agent just decided 0" without having witnessed it.
  EXPECT_EQ(s.decisions[0]->value, Value::zero);
  EXPECT_EQ(s.round_of(0), 3);
  EXPECT_EQ(s.round_of(1), 2);
  EXPECT_EQ(s.round_of(2), 1);
  EXPECT_TRUE(check_eba(s.record).ok_strict());
}

// ---------------------------------------------------------------------------
// Differential pins: empty receive plane == SO, across every execution path.
// ---------------------------------------------------------------------------

// The GO walk of each faulty set starts with exactly the SO walk: the send
// block is the less significant half of the word chain, so the first
// 2^(send bits) GO patterns per faulty set have an empty receive plane and
// equal their SO counterparts bit for bit (operator== covers both planes).
TEST(GoDifferential, GoWalkExtendsSoWalk) {
  const EnumerationConfig so{.n = 4, .t = 2, .rounds = 1};
  const EnumerationConfig go = go_config(4, 2, 1);
  AdversaryIterator so_it(so);
  AdversaryIterator go_it(go);
  std::uint64_t compared = 0;
  while (const FailurePattern* sp = so_it.next()) {
    // Advance the GO iterator to the next empty-receive-plane pattern.
    const FailurePattern* gp = go_it.next();
    while (gp && gp->has_receive_drops()) gp = go_it.next();
    ASSERT_NE(gp, nullptr);
    EXPECT_EQ(*gp, *sp) << "at SO index " << compared;
    EXPECT_TRUE(gp->in_so(so.t));
    ++compared;
  }
  EXPECT_EQ(compared, count_adversaries(so));
  EXPECT_EQ(count_go_adversaries(so), count_adversaries(go));
  EXPECT_EQ(try_count_go_adversaries(so), try_count_adversaries(go));
}

/// Field-by-field record equality (RunRecord has no operator==).
void expect_records_equal(const RunRecord& got, const RunRecord& want,
                          const std::string& label) {
  EXPECT_EQ(got.n, want.n) << label;
  EXPECT_EQ(got.t, want.t) << label;
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.inits, want.inits) << label;
  EXPECT_EQ(got.nonfaulty, want.nonfaulty) << label;
  EXPECT_EQ(got.actions, want.actions) << label;
  EXPECT_EQ(got.sent, want.sent) << label;
  EXPECT_EQ(got.delivered, want.delivered) << label;
}

// GO patterns drive every execution layer identically: the Stepper-based
// simulate(), a bare Stepper, and the worker-pool workload all reproduce
// the retained seed simulator on sampled GO adversaries — receive drops
// included — and an SO pattern pushed through the same layers is unchanged
// by the receive plane's existence.
TEST(GoDifferential, EnginesMatchReferenceOnGoPatterns) {
  const int n = 5;
  const int t = 2;
  const FipExchange x(n);
  const POptGo p(n, t);
  Rng rng(424242);
  std::vector<InstanceSpec> specs;
  for (int k = 0; k < 24; ++k)
    specs.push_back({sample_go_adversary(n, rng.below(t + 1), t + 2, 0.35,
                                         0.35, rng),
                     sample_preferences(n, rng)});
  // simulate() vs the seed oracle.
  for (const auto& spec : specs) {
    const auto want =
        testing::reference_simulate(x, p, spec.alpha, spec.inits, t);
    const auto got = simulate(x, p, spec.alpha, spec.inits, t);
    expect_records_equal(got.record, want.record, "simulate");
    EXPECT_EQ(got.states, want.states) << "simulate states";
  }
  // Worker-pool workload vs the oracle.
  WorkloadOptions opt;
  opt.workers = 4;
  const auto result = run_workload(x, p, std::span(specs), t, opt);
  ASSERT_EQ(result.instances.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const auto want = testing::reference_simulate(x, p, specs[k].alpha,
                                                  specs[k].inits, t);
    expect_records_equal(result.instances[k].record, want.record,
                         "workload " + std::to_string(k));
    EXPECT_EQ(result.instances[k].final_states, want.states.back())
        << "workload " << k;
  }
}

// Equivariance extends to the receive plane: relabeled GO runs are
// relabeled runs (P_opt_go never looks at numeric ids).
TEST(GoDifferential, POptGoCommutesWithAgentRenaming) {
  Rng rng(20260801);
  for (const auto& [n, t] :
       std::vector<std::pair<int, int>>{{4, 1}, {5, 2}}) {
    const auto drive = make_go_driver(n, t);
    for (int trial = 0; trial < 8; ++trial) {
      const FailurePattern alpha =
          sample_go_adversary(n, rng.below(t + 1), t + 1, 0.5, 0.5, rng);
      const std::vector<Value> prefs = sample_preferences(n, rng);
      std::vector<AgentId> perm(static_cast<std::size_t>(n));
      for (AgentId i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
      for (int i = n - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(rng.below(i + 1))]);
      const FailurePattern beta = relabeled(alpha, perm);
      std::vector<Value> relabeled_prefs(static_cast<std::size_t>(n));
      for (AgentId i = 0; i < n; ++i)
        relabeled_prefs[static_cast<std::size_t>(
            perm[static_cast<std::size_t>(i)])] =
            prefs[static_cast<std::size_t>(i)];
      const RunSummary base = drive(alpha, prefs);
      const RunSummary image = drive(beta, relabeled_prefs);
      for (AgentId i = 0; i < n; ++i) {
        const auto& d = base.decisions[static_cast<std::size_t>(i)];
        const auto& e = image.decisions[static_cast<std::size_t>(
            perm[static_cast<std::size_t>(i)])];
        ASSERT_EQ(d.has_value(), e.has_value()) << "agent " << i;
        if (d) {
          EXPECT_EQ(d->value, e->value) << "agent " << i;
          EXPECT_EQ(d->round, e->round) << "agent " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace eba
