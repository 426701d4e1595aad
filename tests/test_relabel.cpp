// Run-relabeling tests: the simulate-once-relabel-everywhere engine is
// *exact*. relabel_run reproduces re-simulation bit for bit across all four
// protocols, both omission models, and static as well as adaptive-realized
// patterns; the orbit machinery's renamings and preference quotients are
// sound; the quotiented add_all_runs and the orbit-reuse synthesizer are
// pinned identical to their re-simulation baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "exchange/basic.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "kripke/canonical_worlds.hpp"
#include "kripke/synthesis.hpp"
#include "kripke/system.hpp"
#include "sim/adaptive.hpp"
#include "sim/relabel.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

std::vector<AgentId> identity_perm(int n) {
  std::vector<AgentId> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

/// Some fixed non-trivial renamings of n agents (a rotation and a swap).
std::vector<std::vector<AgentId>> sample_perms(int n) {
  std::vector<std::vector<AgentId>> out;
  std::vector<AgentId> rot(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    rot[static_cast<std::size_t>(i)] = static_cast<AgentId>((i + 1) % n);
  out.push_back(std::move(rot));
  auto swap01 = identity_perm(n);
  std::swap(swap01[0], swap01[1]);
  out.push_back(std::move(swap01));
  std::vector<AgentId> rev(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    rev[static_cast<std::size_t>(i)] = static_cast<AgentId>(n - 1 - i);
  out.push_back(std::move(rev));
  return out;
}

/// relabel_run(run(α, p), π) == run(π·α, π·p), bit for bit, for one
/// protocol pair.
template <class X, class P>
void expect_equivariant(const X& x, const P& act, const FailurePattern& alpha,
                        const std::vector<Value>& prefs, int t,
                        const std::vector<AgentId>& perm, const char* label) {
  StepperOptions opt;
  opt.max_rounds = t + 2;
  opt.stop_when_all_decided = false;
  const Run<X> base = simulate(x, act, alpha, prefs, t, opt);
  const Run<X> relabeled_run = relabel_run(base, perm);
  const Run<X> resimulated = simulate(x, act, relabeled(alpha, perm),
                                      relabel_prefs(prefs, perm), t, opt);
  EXPECT_TRUE(relabeled_run == resimulated) << label;
}

void expect_equivariant_all_protocols(const FailurePattern& alpha,
                                      const std::vector<Value>& prefs, int t,
                                      const std::vector<AgentId>& perm,
                                      bool go_pattern) {
  const int n = alpha.n();
  // P_opt is certified for SO only; P_opt_go covers both models.
  if (!go_pattern) {
    expect_equivariant(MinExchange(n), PMin(n, t), alpha, prefs, t, perm,
                       "P_min");
    expect_equivariant(BasicExchange(n), PBasic(n, t), alpha, prefs, t, perm,
                       "P_basic");
    expect_equivariant(FipExchange(n), POpt(n, t), alpha, prefs, t, perm,
                       "P_opt");
  }
  expect_equivariant(FipExchange(n), POptGo(n, t), alpha, prefs, t, perm,
                     "P_opt_go");
}

TEST(RelabelRun, MatchesResimulationOnStaticPatterns) {
  for (const bool go : {false, true}) {
    const int n = 4;
    const int t = 2;
    EnumerationConfig cfg =
        go ? go_config(n, t, 1) : EnumerationConfig{.n = n, .t = t, .rounds = 1};
    Rng rng(7);
    std::uint64_t orbits = 0;
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t) {
          ++orbits;
          const std::vector<Value> prefs = sample_preferences(n, rng);
          for (const auto& perm : sample_perms(n))
            expect_equivariant_all_protocols(rep, prefs, t, perm, go);
          return orbits < 12;  // a spread of orbits keeps the test fast
        });
    EXPECT_GT(orbits, 0u);
  }
}

TEST(RelabelRun, MatchesResimulationOnAdaptiveRealizedPatterns) {
  const int n = 4;
  const int t = 1;
  Rng rng(11);
  for (const auto model : {FailureModel::sending, FailureModel::general}) {
    for (const auto& factory : shipped_strategies(n, t, model)) {
      const auto strat = factory.make(3);
      const std::vector<Value> prefs = sample_preferences(n, rng);
      StepperOptions aopt;
      aopt.stop_when_all_decided = false;
      const AdaptiveOutcome out = run_adaptive(
          FipExchange(n), POptGo(n, t), *strat, prefs, t, aopt);
      // The realized pattern replayed statically must relabel like any
      // other pattern.
      for (const auto& perm : sample_perms(n))
        expect_equivariant_all_protocols(out.realized, prefs, t, perm,
                                         model == FailureModel::general);
    }
  }
}

TEST(ExpandOrbitPerms, PermsReconstructMembersInMaterializedOrder) {
  for (const EnumerationConfig cfg :
       {EnumerationConfig{.n = 4, .t = 2, .rounds = 1}, go_config(3, 1, 1)}) {
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t) {
          const std::vector<FailurePattern> members = expand_orbit(rep);
          std::size_t at = 0;
          bool first_is_identity_rep = false;
          expand_orbit_perms(
              rep, [&](const FailurePattern& member,
                       const std::vector<AgentId>& perm) {
                EXPECT_LT(at, members.size());
                EXPECT_EQ(member, members[at]) << "streaming order diverged";
                EXPECT_EQ(member, relabeled(rep, perm))
                    << "perm does not produce the member";
                if (at == 0)
                  first_is_identity_rep =
                      member == rep && perm == identity_perm(cfg.n);
                ++at;
                return true;
              });
          EXPECT_EQ(at, members.size());
          EXPECT_TRUE(first_is_identity_rep)
              << "first member must be the representative under identity";
          return true;
        });
  }
}

TEST(OrbitStabilizer, FixesTheRepresentativeAndQuotientCoversTheCube) {
  for (const EnumerationConfig cfg :
       {EnumerationConfig{.n = 4, .t = 2, .rounds = 1}, go_config(3, 1, 1)}) {
    const std::uint64_t P = std::uint64_t{1} << cfg.n;
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t) {
          for (const auto& sg : orbit_stabilizer(rep))
            EXPECT_EQ(relabeled(rep, sg), rep);

          const PreferenceQuotient q = preference_quotient(rep);
          std::uint64_t total = 0;
          for (const auto& cls : q.classes) total += cls.size;
          EXPECT_EQ(total, P) << "class sizes must tile the preference cube";
          for (std::uint64_t mask = 0; mask < P; ++mask) {
            const auto& cls = q.classes[q.class_of[mask]];
            EXPECT_LE(cls.mask, mask) << "class representative is lex-min";
            const auto& sigma = q.sigma[mask];
            EXPECT_EQ(AgentSet(cls.mask).permuted(sigma).bits(), mask)
                << "sigma must carry the class representative to the mask";
            EXPECT_EQ(relabeled(rep, sigma), rep)
                << "sigma must be a stabilizer element";
          }
          EXPECT_EQ(preference_classes(rep), q.classes);
          return true;
        });
  }
}

TEST(OrbitSweep, RepresentativeWeightsCoverAllWorlds) {
  for (const EnumerationConfig cfg :
       {EnumerationConfig{.n = 5, .t = 1, .rounds = 1},
        EnumerationConfig{.n = 4, .t = 2, .rounds = 2}, go_config(4, 1, 1)}) {
    std::uint64_t visited = 0;
    const std::uint64_t covered = for_each_representative_world(
        cfg, [&](const FailurePattern&, const std::vector<Value>&,
                 std::uint64_t weight) {
          EXPECT_GT(weight, 0u);
          ++visited;
          return true;
        });
    EXPECT_GT(visited, 0u);
    EXPECT_EQ(covered,
              count_adversaries(cfg) * (std::uint64_t{1} << cfg.n));
  }
}

/// The quotiented add_all_runs produces the identical run list (bit for
/// bit, same order) and the identical finalized Kripke partition,
/// class for class.
template <class X, class P>
void expect_same_system(X x, P act, int t, int horizon,
                        const EnumerationConfig& cfg) {
  InterpretedSystem<X, P> relabel_sys(x, act, t, horizon);
  relabel_sys.add_all_runs(cfg, {.reuse = RunReuse::relabel});
  InterpretedSystem<X, P> resim_sys(x, act, t, horizon);
  resim_sys.add_all_runs(cfg, {.reuse = RunReuse::resimulate});
  ASSERT_EQ(relabel_sys.num_runs(), resim_sys.num_runs());
  for (int r = 0; r < relabel_sys.num_runs(); ++r)
    ASSERT_TRUE(relabel_sys.run(r) == resim_sys.run(r)) << "run " << r;
  relabel_sys.finalize();
  resim_sys.finalize();
  EXPECT_TRUE(relabel_sys.same_partition(resim_sys));
}

TEST(AddAllRuns, RelabelPathIsBitIdenticalToResimulation) {
  expect_same_system(FipExchange(4), POpt(4, 1), 1, 3,
                     EnumerationConfig{.n = 4, .t = 1, .rounds = 1});
  expect_same_system(MinExchange(4), PMin(4, 2), 2, 4,
                     EnumerationConfig{.n = 4, .t = 2, .rounds = 1});
  expect_same_system(FipExchange(3), POptGo(3, 1), 1, 3, go_config(3, 1, 1));
}

TEST(Synthesizer, OrbitReuseMatchesPlainRun) {
  struct Case {
    int n;
    int t;
    KbpProgram program;
    int horizon;
  };
  for (const Case c : {Case{4, 1, KbpProgram::p0, 3},
                       Case{3, 1, KbpProgram::p1, 3}}) {
    const EnumerationConfig cfg{.n = c.n, .t = c.t, .rounds = 2};
    const CanonicalContext ctx = canonical_context_worlds(cfg);
    ASSERT_EQ(ctx.worlds.size(),
              count_adversaries(cfg) * (std::uint64_t{1} << c.n));
    ASSERT_EQ(ctx.orbits.size(), ctx.worlds.size());
    EXPECT_LT(ctx.representatives, ctx.worlds.size());

    KbpSynthesizer<FipExchange> plain(FipExchange(c.n), c.t, c.program);
    const auto expected = plain.run(ctx.worlds, c.horizon);
    KbpSynthesizer<FipExchange> reuse(FipExchange(c.n), c.t, c.program);
    const auto actual = reuse.run(ctx.worlds, c.horizon, ctx.orbits);

    EXPECT_EQ(actual.decisions, expected.decisions);
    EXPECT_EQ(actual.table.size(), expected.table.size());
    for (const auto& [state, action] : expected.table) {
      const auto it = actual.table.find(state);
      ASSERT_NE(it, actual.table.end());
      EXPECT_TRUE(it->second == action);
    }
    EXPECT_LT(actual.stats.evaluated_rounds, expected.stats.evaluated_rounds);
  }
}

}  // namespace
}  // namespace eba
