// Symmetry-reduction tests: the canonicalized adversary enumeration is
// *exact* — orbit multiplicities reproduce the unreduced counts on every
// small configuration, orbit expansion recovers the unreduced pattern set,
// the closed-form Burnside orbit count matches the enumerated orbit count,
// and the paper's protocols are equivariant under agent renaming (the fact
// that makes consuming one representative per orbit sound for
// relabeling-invariant sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

/// Canonical byte encoding of a pattern (both planes) for multiset
/// comparisons.
std::string encode(const FailurePattern& p) {
  std::ostringstream out;
  out << p.n() << ':' << p.nonfaulty().bits() << ':';
  for (int m = 0; m < p.recorded_rounds(); ++m)
    for (AgentId i = 0; i < p.n(); ++i) out << p.dropped(m, i).bits() << ',';
  out << 'r';
  for (int m = 0; m < p.recorded_receive_rounds(); ++m)
    for (AgentId i = 0; i < p.n(); ++i)
      out << p.dropped_receive(m, i).bits() << ',';
  return out.str();
}

std::vector<EnumerationConfig> small_configs() {
  std::vector<EnumerationConfig> cfgs;
  for (const FailureModel model :
       {FailureModel::sending, FailureModel::general})
    for (int n = 2; n <= 5; ++n)
      for (int t = 0; t < n && t <= 3; ++t)
        for (int rounds = 1; rounds <= 2; ++rounds) {
          const EnumerationConfig cfg{
              .n = n, .t = t, .rounds = rounds, .model = model};
          // Keep the unreduced walk cheap: skip configs beyond ~70k patterns.
          const auto count = try_count_adversaries(cfg);
          if (count && *count <= 70000) cfgs.push_back(cfg);
        }
  cfgs.push_back({.n = 6, .t = 1, .rounds = 1});
  cfgs.push_back({.n = 6, .t = 1, .rounds = 2});
  cfgs.push_back(go_config(6, 1, 1));
  return cfgs;
}

std::string describe(const EnumerationConfig& cfg) {
  return "n=" + std::to_string(cfg.n) + " t=" + std::to_string(cfg.t) +
         " rounds=" + std::to_string(cfg.rounds) +
         (cfg.model == FailureModel::general ? " GO" : " SO");
}

// The heart of the exactness claim: per configuration, the canonical orbit
// multiplicities sum to the unreduced count, the enumerated orbit count
// matches Burnside's closed form, and every representative is canonical.
TEST(CanonicalEnumeration, OrbitMultiplicitiesSumToUnreducedCount) {
  for (const auto& cfg : small_configs()) {
    const std::uint64_t unreduced = count_adversaries(cfg);
    std::uint64_t multiplicity_sum = 0;
    std::uint64_t orbits = 0;
    std::set<std::string> reps;
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t multiplicity) {
          ++orbits;
          multiplicity_sum += multiplicity;
          EXPECT_TRUE(is_canonical(rep)) << describe(cfg);
          EXPECT_TRUE(cfg.model == FailureModel::general ? rep.in_go(cfg.t)
                                                         : rep.in_so(cfg.t))
              << describe(cfg);
          EXPECT_EQ(orbit_size(rep), multiplicity) << describe(cfg);
          EXPECT_TRUE(reps.insert(encode(rep)).second)
              << describe(cfg) << ": duplicate representative";
          return true;
        });
    EXPECT_EQ(multiplicity_sum, unreduced) << describe(cfg);
    EXPECT_EQ(orbits, count_canonical_adversaries(cfg)) << describe(cfg);
    EXPECT_LE(orbits, unreduced) << describe(cfg);
  }
}

// The unreduced walk and the orbit expansion of the canonical walk produce
// exactly the same multiset of patterns (each exactly once).
TEST(CanonicalEnumeration, OrbitExpansionRecoversUnreducedSpace) {
  for (const auto& cfg : small_configs()) {
    if (count_adversaries(cfg) > 10000) continue;  // keep the multiset cheap
    std::set<std::string> unreduced;
    enumerate_adversaries(cfg, [&](const FailurePattern& p) {
      EXPECT_TRUE(unreduced.insert(encode(p)).second)
          << describe(cfg) << ": unreduced enumeration repeated a pattern";
      return true;
    });
    std::set<std::string> expanded;
    enumerate_canonical_adversaries(
        cfg, [&](const FailurePattern& rep, std::uint64_t multiplicity) {
          const auto members = expand_orbit(rep);
          EXPECT_EQ(members.size(), multiplicity) << describe(cfg);
          for (const auto& member : members)
            EXPECT_TRUE(expanded.insert(encode(member)).second)
                << describe(cfg) << ": orbit expansion repeated a pattern";
          return true;
        });
    EXPECT_EQ(expanded, unreduced) << describe(cfg);
  }
}

// canonicalize() maps every unreduced pattern onto an emitted representative
// and the preimage counts equal the multiplicities.
TEST(CanonicalEnumeration, CanonicalizeMapsOntoRepresentatives) {
  const EnumerationConfig cfg{.n = 4, .t = 2, .rounds = 1};
  std::map<std::string, std::uint64_t> expected;
  enumerate_canonical_adversaries(
      cfg, [&](const FailurePattern& rep, std::uint64_t multiplicity) {
        expected[encode(rep)] = multiplicity;
        return true;
      });
  std::map<std::string, std::uint64_t> preimages;
  enumerate_adversaries(cfg, [&](const FailurePattern& p) {
    const FailurePattern rep = canonicalize(p);
    EXPECT_TRUE(is_canonical(rep));
    ++preimages[encode(rep)];
    return true;
  });
  EXPECT_EQ(preimages, expected);
}

// The lazy iterator preserves the seed enumerator's count and visits each
// pattern once; early stopping works; and configurations past the seed's
// 48-drop-bit ceiling are now reachable lazily.
TEST(AdversaryIterator, MatchesCountsAndSupportsHugeConfigs) {
  for (const auto& cfg : small_configs()) {
    if (count_adversaries(cfg) > 10000) continue;
    std::set<std::string> seen;
    AdversaryIterator it(cfg);
    while (const FailurePattern* p = it.next())
      EXPECT_TRUE(seen.insert(encode(*p)).second) << describe(cfg);
    EXPECT_EQ(it.yielded(), count_adversaries(cfg)) << describe(cfg);
    EXPECT_EQ(seen.size(), count_adversaries(cfg)) << describe(cfg);
  }

  // 48 drop bits per pattern (k = 4): the seed enumerator refused this
  // outright (hard `bits < 48` ceiling); the lazy iterator streams it and
  // early-stops fine.
  const EnumerationConfig huge{.n = 7, .t = 4, .rounds = 2};
  EXPECT_GT(count_adversaries(huge), std::uint64_t{1} << 48)
      << "sanity: this config is past the seed enumerator's ceiling";
  std::uint64_t probe = 0;
  const std::uint64_t visited =
      enumerate_adversaries(huge, [&](const FailurePattern& p) {
        EXPECT_TRUE(p.in_so(4));
        EXPECT_EQ(p.n(), 7);
        return ++probe < 1000;
      });
  EXPECT_EQ(visited, 1000u);
}

// Checked counting: overflow raises an explicit error instead of wrapping.
TEST(CheckedCounts, OverflowIsAnExplicitError) {
  // k = 2, n = 5, rounds = 8: shift = 2*4*8 = 64 — the seed's
  // `choose << shift` silently wrapped here.
  const EnumerationConfig overflowing{.n = 5, .t = 2, .rounds = 8};
  EXPECT_EQ(try_count_adversaries(overflowing), std::nullopt);
  EXPECT_THROW((void)count_adversaries(overflowing), std::logic_error);

  const EnumerationConfig fine{.n = 3, .t = 1, .rounds = 2};
  EXPECT_EQ(count_adversaries(fine), 49u);
  EXPECT_EQ(try_count_adversaries(fine), std::optional<std::uint64_t>(49u));

  // The GO plane doubles the shift: rounds = 4 overflows under general
  // omissions while the SO count still fits — checked for orbit counting
  // too (the Burnside exponent doubles the same way).
  const EnumerationConfig go_edge{.n = 5, .t = 2, .rounds = 4};
  EXPECT_TRUE(try_count_adversaries(go_edge).has_value());
  EXPECT_EQ(try_count_go_adversaries(go_edge), std::nullopt);
  EXPECT_THROW((void)count_go_adversaries(go_edge), std::logic_error);
  EXPECT_TRUE(try_count_canonical_adversaries(go_config(4, 1, 2)).has_value());

  // Binomial intermediates may wrap uint64 while the count itself fits:
  // rounds = 0 makes the count sum_{k<=t} C(n,k), and C(63,31)*32 > 2^64.
  // By symmetry sum_{k<=31} C(63,k) is exactly 2^62.
  const EnumerationConfig wide{.n = 63, .t = 31, .rounds = 0};
  EXPECT_EQ(count_adversaries(wide), std::uint64_t{1} << 62);
}

// The k = 0 iteration must not materialize the full S_n: one drop-free
// orbit, in closed form and by enumeration, fast even at n = 10 where
// 10! permutations would otherwise be built.
TEST(CanonicalEnumeration, FaultFreeOrbitIsSpecialCased) {
  const EnumerationConfig cfg{.n = 10, .t = 0, .rounds = 3};
  EXPECT_EQ(count_canonical_adversaries(cfg), 1u);
  std::uint64_t orbits = enumerate_canonical_adversaries(
      cfg, [&](const FailurePattern& rep, std::uint64_t multiplicity) {
        EXPECT_EQ(rep.num_faulty(), 0);
        EXPECT_EQ(multiplicity, 1u);
        EXPECT_TRUE(is_canonical(rep));
        EXPECT_EQ(orbit_size(rep), 1u);
        EXPECT_EQ(expand_orbit(rep).size(), 1u);
        return true;
      });
  EXPECT_EQ(orbits, 1u);
}

// Equivariance of the paper's protocols under agent renaming: relabeling
// (adversary, preferences) by pi relabels the run — agent pi(i) decides in
// the same round with the same value as agent i did. This is what licenses
// orbit-reduced sweeps of relabeling-invariant properties.
TEST(Equivariance, ProtocolsCommuteWithAgentRenaming) {
  Rng rng(20260731);
  for (const auto& [n, t] :
       std::vector<std::pair<int, int>>{{3, 1}, {4, 2}, {5, 2}}) {
    for (int trial = 0; trial < 12; ++trial) {
      const FailurePattern alpha =
          sample_adversary(n, rng.below(t + 1), t + 1, 0.5, rng);
      const std::vector<Value> prefs = sample_preferences(n, rng);
      std::vector<AgentId> perm(static_cast<std::size_t>(n));
      std::iota(perm.begin(), perm.end(), 0);
      for (int i = n - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(rng.below(i + 1))]);

      const FailurePattern relabeled_alpha = relabeled(alpha, perm);
      std::vector<Value> relabeled_prefs(static_cast<std::size_t>(n));
      for (AgentId i = 0; i < n; ++i)
        relabeled_prefs[static_cast<std::size_t>(
            perm[static_cast<std::size_t>(i)])] =
            prefs[static_cast<std::size_t>(i)];

      auto drivers = paper_drivers(n, t);
      drivers.push_back({"P_opt_go", make_go_driver(n, t)});
      for (const auto& [name, drive] : drivers) {
        const RunSummary base = drive(alpha, prefs);
        const RunSummary image = drive(relabeled_alpha, relabeled_prefs);
        for (AgentId i = 0; i < n; ++i) {
          const auto d = base.record.decision(i);
          const auto e =
              image.record.decision(perm[static_cast<std::size_t>(i)]);
          ASSERT_EQ(d.has_value(), e.has_value())
              << name << " n=" << n << " t=" << t << " agent " << i;
          if (d) {
            EXPECT_EQ(d->value, e->value) << name << " agent " << i;
            EXPECT_EQ(d->round, e->round) << name << " agent " << i;
          }
        }
      }
      // (Equivariance on two-plane GO patterns — where the renaming also
      // acts on receive drops — is covered by tests/test_go.cpp's
      // POptGoCommutesWithAgentRenaming.)
    }
  }
}

}  // namespace
}  // namespace eba
