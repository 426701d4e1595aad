// Spec-oracle fuzzing: seeded sweeps over every shipped protocol must be
// violation-free at n beyond exhaustive reach, and the oracle + shrinker
// must actually work — proven with a deliberately broken P_min whose bug
// only fires under a drop, where the fuzzer has to find it, the shrinker
// has to reduce it to the single responsible drop, and the shrunk case has
// to replay.
#include <gtest/gtest.h>

#include "action/p_min.hpp"
#include "core/spec.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"

namespace eba {
namespace {

// ---------------------------------------------------------------------------
// Clean sweeps: every shipped protocol, SO and GO, n = 8 and 16
// ---------------------------------------------------------------------------

FuzzConfig sweep_config(ProtocolKind kind, int n, int iterations) {
  FuzzConfig cfg;
  cfg.n = n;
  cfg.t = 2;
  cfg.protocol = kind;
  cfg.model = model_of(kind);  // GO space for the _go pair, SO otherwise
  cfg.base_seed = 0xeba0 + static_cast<std::uint64_t>(kind);
  cfg.iterations = iterations;
  cfg.strict = true;  // Prop 6.1: validity-for-all and the t+2 bound too
  return cfg;
}

TEST(FuzzSweep, AllShippedProtocolsCleanAtN8) {
  for (ProtocolKind kind :
       {ProtocolKind::p_min, ProtocolKind::p_basic, ProtocolKind::p_opt,
        ProtocolKind::p_opt_p0, ProtocolKind::p_opt_go,
        ProtocolKind::p_opt_go_p0, ProtocolKind::early_stop,
        ProtocolKind::authenticated}) {
    const FuzzReport rep = run_fuzz(sweep_config(kind, 8, 40));
    EXPECT_TRUE(rep.ok()) << to_string(kind) << ": " << rep.violations
                          << " violations in " << rep.runs << " runs";
    EXPECT_EQ(rep.runs, 40u) << to_string(kind);
  }
}

TEST(FuzzSweep, CheapProtocolsCleanAtN16) {
  // The FIP state at n=16 is heavyweight; the exchange-light protocols
  // cover the large-n regime here, the FIPs at n=8 above and in
  // bench_adversary's large-n rows. The zoo baselines (report-set states,
  // no graphs) are cheap enough to ride along.
  for (ProtocolKind kind :
       {ProtocolKind::p_min, ProtocolKind::p_basic, ProtocolKind::early_stop,
        ProtocolKind::authenticated}) {
    const FuzzReport rep = run_fuzz(sweep_config(kind, 16, 60));
    EXPECT_TRUE(rep.ok()) << to_string(kind);
  }
}

TEST(FuzzSweep, GoSpaceExercisesBothPlanes) {
  // At least one sampled GO case must actually use the receive plane —
  // otherwise the GO sweep silently degenerates to SO.
  FuzzConfig cfg = sweep_config(ProtocolKind::p_opt_go, 8, 40);
  bool receive_plane_seen = false;
  for (int i = 0; i < cfg.iterations; ++i)
    receive_plane_seen = receive_plane_seen ||
                         fuzz_case(cfg, static_cast<std::uint64_t>(i))
                             .alpha.has_receive_drops();
  EXPECT_TRUE(receive_plane_seen);
}

// ---------------------------------------------------------------------------
// The oracle fires: a P_min whose jd handling is broken after round 1
// ---------------------------------------------------------------------------

/// P_min with the relay path severed: a "somebody decided 0" report (jd) is
/// honored only through time 1. An agent that misses the ORIGINAL round-1
/// announcement because of a single send drop ignores the round-2 relays
/// and decides 1 at time t+1 — an agreement violation that needs a failure
/// to fire (failure-free runs are correct, so the fuzzer must find it).
class BrokenPMin {
 public:
  BrokenPMin(int n, int t) : t_(t) {
    EBA_REQUIRE(t >= 0 && n - t >= 2, "P_min requires 0 <= t <= n-2");
  }

  [[nodiscard]] Action operator()(const MinState& s) const {
    if (s.decided) return Action::noop();
    if (s.init == Value::zero) return Action::decide(Value::zero);
    if (s.time <= 1 && s.jd == Value::zero)  // BUG: relays ignored later
      return Action::decide(Value::zero);
    if (s.time == t_ + 1) return Action::decide(Value::one);
    return Action::noop();
  }

 private:
  int t_;
};

RunDriver broken_min_driver(int n, int t) {
  return [n, t](const FailurePattern& alpha, const std::vector<Value>& prefs) {
    auto run = simulate(MinExchange(n), BrokenPMin(n, t), alpha, prefs, t);
    return RunSummary{.record = std::move(run.record)};
  };
}

/// The minimal counterexample at (n=5, t=1): agent 0 faulty with init 0,
/// everyone else init 1, and the single drop of 0's round-1 announcement to
/// agent 1. Agents 2-4 decide 0 in round 2 off the direct announcement;
/// agent 1 only gets relays, ignores them, and decides 1.
FailurePattern minimal_broken_pattern(int n) {
  AgentSet nonfaulty = AgentSet::all(n);
  nonfaulty.erase(0);
  FailurePattern alpha(n, nonfaulty);
  alpha.drop(0, 0, 1);
  return alpha;
}

std::vector<Value> minimal_broken_prefs(int n) {
  std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  prefs[0] = Value::zero;
  return prefs;
}

std::size_t total_drops(const FailurePattern& alpha) {
  std::size_t total = 0;
  for (int m = 0; m < alpha.recorded_rounds(); ++m)
    for (AgentId i = 0; i < alpha.n(); ++i)
      total += static_cast<std::size_t>(alpha.dropped(m, i).size());
  for (int m = 0; m < alpha.recorded_receive_rounds(); ++m)
    for (AgentId i = 0; i < alpha.n(); ++i)
      total += static_cast<std::size_t>(alpha.dropped_receive(m, i).size());
  return total;
}

FuzzConfig broken_config() {
  FuzzConfig cfg;
  cfg.n = 5;
  cfg.t = 1;
  cfg.model = FailureModel::sending;
  cfg.base_seed = 3;
  cfg.iterations = 600;  // deterministic: this seed finds the bug well inside
  cfg.drop_prob = 0.4;
  cfg.strict = false;  // the planted bug is a SAFETY violation; isolate it
  cfg.max_failures = 1;
  return cfg;
}

TEST(FuzzOracle, FindsThePlantedBugAndShrinksToOneDrop) {
  const FuzzConfig cfg = broken_config();
  const RunDriver driver = broken_min_driver(cfg.n, cfg.t);
  const FuzzReport rep = run_fuzz(cfg, driver);
  ASSERT_FALSE(rep.ok()) << "the oracle must fire on the planted bug";
  ASSERT_FALSE(rep.failures.empty());

  const FuzzFailure& f = rep.failures.front();
  EXPECT_FALSE(f.report.agreement) << "the planted bug breaks Agreement";
  // The shrunk case is still failing, and minimal: one faulty agent, ONE
  // drop (the severed announcement), faulty-first labels.
  EXPECT_FALSE(f.shrunk_report.ok());
  EXPECT_EQ(f.shrunk.num_faulty(), 1);
  EXPECT_FALSE(f.shrunk.is_nonfaulty(0)) << "canonical faulty-first labels";
  EXPECT_EQ(total_drops(f.shrunk), 1u);
  // Replays: the recorded (shrunk pattern, prefs) reproduce the violation.
  const SpecReport again = check_eba(driver(f.shrunk, f.shrunk_prefs).record);
  EXPECT_FALSE(again.ok());
  // And the original failing case replays from its recorded index.
  const FuzzCase orig = fuzz_case(cfg, f.index);
  EXPECT_TRUE(orig.alpha == f.alpha);
  EXPECT_EQ(orig.prefs, f.prefs);
  EXPECT_FALSE(check_eba(driver(orig.alpha, orig.prefs).record).ok());
}

TEST(FuzzOracle, ShrinkerRecognizesAnAlreadyMinimalCase) {
  const FuzzConfig cfg = broken_config();
  const RunDriver driver = broken_min_driver(cfg.n, cfg.t);
  const ShrinkResult s = shrink_failure(
      cfg, driver, minimal_broken_pattern(cfg.n), minimal_broken_prefs(cfg.n));
  EXPECT_EQ(s.steps, 0) << "nothing to remove from the minimal case";
  EXPECT_TRUE(s.alpha == minimal_broken_pattern(cfg.n));
  EXPECT_EQ(s.prefs, minimal_broken_prefs(cfg.n));
  EXPECT_FALSE(s.report.ok());
}

TEST(FuzzOracle, ShrinkRequiresAFailingCase) {
  const FuzzConfig cfg = broken_config();
  // The REAL P_min has no bug: handing the shrinker a passing case is a
  // contract violation, not a silent no-op.
  const RunDriver correct = [&](const FailurePattern& alpha,
                                const std::vector<Value>& prefs) {
    auto run = simulate(MinExchange(cfg.n), PMin(cfg.n, cfg.t), alpha, prefs,
                        cfg.t);
    return RunSummary{.record = std::move(run.record)};
  };
  EXPECT_THROW((void)shrink_failure(cfg, correct, minimal_broken_pattern(cfg.n),
                                    minimal_broken_prefs(cfg.n)),
               std::logic_error);
}

}  // namespace
}  // namespace eba
