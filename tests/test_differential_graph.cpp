// Randomized differential test: the bit-packed CommGraph and its
// word-parallel knowledge operators against the retained byte-per-label
// reference implementation (tests/reference_graph.hpp).
//
// Both implementations are driven through the same label-level API calls —
// advance_round / merge exactly as FipExchange::update issues them — on
// seeded random failure patterns, then compared on every label, preference,
// hash, cone membership, last_heard, extracted view, and fault-table entry.
// A second part replays P_opt runs and asserts that the incremental
// cached decision path (persistent FipState knowledge cache + inferred
// table) matches a from-scratch recomputation at every (agent, time).
// A third part pins the in-place forms P_opt's view inference reuses — one
// Cone, one view and one KnowledgeCache rebuilt for node after node, and
// the per-thread scratch that holds them — against fresh objects, the
// reference implementation and the seed simulator.
#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "failure/generators.hpp"
#include "graph/knowledge.hpp"
#include "reference_graph.hpp"
#include "reference_simulator.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

using testref::RefCommGraph;
using testref::RefCone;

struct DualRun {
  std::vector<CommGraph> packed;
  std::vector<RefCommGraph> ref;
};

/// Advances both implementations through one FIP round under `alpha`,
/// mirroring FipExchange::update: advance_round with the delivered set, then
/// merge every delivered peer graph (snapshotted before the round).
void step(DualRun& d, const FailurePattern& alpha, int m) {
  const int n = alpha.n();
  const std::vector<CommGraph> packed_before = d.packed;
  const std::vector<RefCommGraph> ref_before = d.ref;
  for (AgentId i = 0; i < n; ++i) {
    AgentSet received;
    for (AgentId j = 0; j < n; ++j)
      if (alpha.delivered(m, j, i)) received.insert(j);
    d.packed[static_cast<std::size_t>(i)].advance_round(i, received);
    d.ref[static_cast<std::size_t>(i)].advance_round(i, received);
    for (AgentId j : received) {
      if (j == i) continue;
      d.packed[static_cast<std::size_t>(i)].merge(
          packed_before[static_cast<std::size_t>(j)]);
      d.ref[static_cast<std::size_t>(i)].merge(
          ref_before[static_cast<std::size_t>(j)]);
    }
  }
}

void expect_graphs_match(const CommGraph& g, const RefCommGraph& r) {
  ASSERT_EQ(g.n(), r.n());
  ASSERT_EQ(g.time(), r.time());
  for (int m = 0; m < g.time(); ++m)
    for (AgentId from = 0; from < g.n(); ++from)
      for (AgentId to = 0; to < g.n(); ++to)
        ASSERT_EQ(g.label(m, from, to), r.label(m, from, to))
            << "label (" << m << ", " << from << ", " << to << ")";
  for (AgentId j = 0; j < g.n(); ++j) ASSERT_EQ(g.pref(j), r.pref(j));
  // The graph rebuilt label-by-label through the mutation API must be equal
  // to — and hash identically to — the incrementally grown packed graph.
  const CommGraph rebuilt = r.to_packed();
  EXPECT_EQ(rebuilt, g);
  EXPECT_EQ(rebuilt.hash(), g.hash());
}

void expect_knowledge_matches(const CommGraph& g, const RefCommGraph& r,
                              AgentId owner) {
  const int top = g.time();
  const Cone cone(g, owner, top);
  const RefCone ref_cone(r, owner, top);
  for (int m = 0; m <= top; ++m)
    ASSERT_EQ(cone.at(m), ref_cone.at(m)) << "cone level " << m;
  for (AgentId j = 0; j < g.n(); ++j)
    ASSERT_EQ(cone.last_heard(j), ref_cone.last_heard(j)) << "agent " << j;

  const auto table = known_faults_table(g);
  const auto ref_table = testref::ref_known_faults_table(r);
  ASSERT_EQ(table.size(), ref_table.size());
  for (std::size_t m = 0; m < table.size(); ++m)
    for (AgentId j = 0; j < g.n(); ++j) {
      ASSERT_EQ(table[m][static_cast<std::size_t>(j)],
                ref_table[m][static_cast<std::size_t>(j)])
          << "f(" << j << ", " << m << ")";
      // Row-only queries must agree with the full table.
      ASSERT_EQ(known_faults(g, j, static_cast<int>(m)),
                table[m][static_cast<std::size_t>(j)]);
    }

  for (int m = 0; m <= top; ++m)
    for (AgentId j = 0; j < g.n(); ++j) {
      if (!cone.contains(j, m)) continue;
      const CommGraph view = extract_view(g, j, m);
      const CommGraph ref_view = testref::ref_extract_view(r, j, m).to_packed();
      ASSERT_EQ(view, ref_view) << "view (" << j << ", " << m << ")";
      ASSERT_EQ(view.hash(), ref_view.hash());
    }
}

TEST(DifferentialGraph, PackedMatchesReferenceOnRandomRuns) {
  Rng rng(20230717);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(6));  // 3..8
    const int t = 1 + static_cast<int>(rng.below(n - 2 > 0 ? n - 2 : 1));
    const int rounds = t + 2;
    const auto alpha = sample_adversary(n, t, rounds, 0.35, rng);
    const auto prefs = sample_preferences(n, rng);

    DualRun d;
    for (AgentId i = 0; i < n; ++i) {
      d.packed.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
      d.ref.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
    }
    for (int m = 0; m < rounds; ++m) {
      step(d, alpha, m);
      for (AgentId i = 0; i < n; ++i) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " round " +
                     std::to_string(m + 1) + " agent " + std::to_string(i));
        expect_graphs_match(d.packed[static_cast<std::size_t>(i)],
                            d.ref[static_cast<std::size_t>(i)]);
      }
    }
    // Knowledge operators are compared once per agent at the final time (the
    // richest graphs); earlier times are covered via extract_view recursion.
    for (AgentId i = 0; i < n; ++i) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " agent " +
                   std::to_string(i));
      expect_knowledge_matches(d.packed[static_cast<std::size_t>(i)],
                               d.ref[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(DifferentialGraph, CachedDecisionsMatchFromScratchRecomputation) {
  Rng rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(4));  // 4..7
    const int t = 1 + static_cast<int>(rng.below(2));
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);

    const FipExchange x(n);
    const POpt p(n, t);
    SimulateOptions opt;
    opt.max_rounds = t + 3;
    const auto run = simulate(x, p, alpha, prefs, t, opt);

    for (int m = 0; m < run.record.rounds; ++m) {
      for (AgentId i = 0; i < n; ++i) {
        // The recorded action came from the incremental path: an inferred
        // table carried across rounds. Recompute from a pristine state (same
        // graph, empty table; the knowledge cache is cold on every call) and
        // compare.
        FipState fresh = run.states[static_cast<std::size_t>(m)]
                                   [static_cast<std::size_t>(i)];
        fresh.inferred = ActionTable{};
        const Action recomputed = p(fresh);
        EXPECT_EQ(recomputed,
                  run.record.actions[static_cast<std::size_t>(m)]
                                    [static_cast<std::size_t>(i)])
            << "trial " << trial << " time " << m << " agent " << i;
      }
    }
  }
}

TEST(DifferentialGraph, StaticTestsAgreeWithCachedOverloads) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 5;
    const int t = 2;
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    const FipExchange x(n);
    const POpt p(n, t);
    SimulateOptions opt;
    opt.max_rounds = t + 2;
    opt.stop_when_all_decided = false;
    const auto run = simulate(x, p, alpha, prefs, t, opt);
    for (AgentId i = 0; i < n; ++i) {
      const FipState& s = run.states.back()[static_cast<std::size_t>(i)];
      p.infer_actions(s);
      KnowledgeCache cache;
      for (Value v : {Value::zero, Value::one}) {
        const bool plain = POpt::common_test(s.graph(), i, v, t, s.inferred);
        // Twice through the same cache: cold then memoized.
        EXPECT_EQ(plain, POpt::common_test(s.graph(), i, v, t, s.inferred, cache));
        EXPECT_EQ(plain, POpt::common_test(s.graph(), i, v, t, s.inferred, cache));
      }
      const bool plain1 = POpt::cond1_test(s.graph(), i, s.inferred);
      EXPECT_EQ(plain1, POpt::cond1_test(s.graph(), i, s.inferred, cache));
    }
  }
}

void expect_cones_equal(const Cone& got, const Cone& want, int n) {
  ASSERT_EQ(got.top(), want.top());
  for (int m = 0; m <= want.top(); ++m)
    ASSERT_EQ(got.at(m), want.at(m)) << "cone level " << m;
  for (AgentId j = 0; j < n; ++j)
    ASSERT_EQ(got.last_heard(j), want.last_heard(j)) << "agent " << j;
}

/// `reused` — a cache bound to a graph that is reset and refilled in place —
/// must answer every query about `g` exactly like a cache that never saw
/// anything else. `fresh_g` has the same contents as `g` at another address.
void expect_cache_matches_fresh(KnowledgeCache& reused, const CommGraph& g,
                                const CommGraph& fresh_g, AgentId j) {
  KnowledgeCache fresh;
  const int top = g.time();
  expect_cones_equal(reused.cone(g, j, top), fresh.cone(fresh_g, j, top),
                     g.n());
  // A second cone slot in the same revision, then the first one again.
  const AgentId other = (j + 1) % g.n();
  expect_cones_equal(reused.cone(g, other, 0), fresh.cone(fresh_g, other, 0),
                     g.n());
  expect_cones_equal(reused.cone(g, j, top), Cone(fresh_g, j, top), g.n());
  for (int m = 0; m <= top; ++m) {
    const auto f = reused.fault_row(g, m);
    const auto f_want = fresh.fault_row(fresh_g, m);
    ASSERT_EQ(std::vector<AgentSet>(f.begin(), f.end()),
              std::vector<AgentSet>(f_want.begin(), f_want.end()))
        << "fault row " << m;
    const auto e = reused.go_evidence_row(g, m);
    const auto e_want = fresh.go_evidence_row(fresh_g, m);
    ASSERT_EQ(std::vector<OmissionEvidence>(e.begin(), e.end()),
              std::vector<OmissionEvidence>(e_want.begin(), e_want.end()))
        << "evidence row " << m;
  }
}

// The reuse hazard of in-place view inference: one Cone, one view graph and
// one cache bound to that view visit every cone node of seeded GO runs,
// with m alternately shrinking and growing inside a run and n going
// 8 -> 5 -> 12 across runs. Every rebuilt cone and refilled view must equal
// a fresh one and the reference implementation's, and the view's cache —
// same address every time — must never answer from an earlier node. A bare
// reset is checked too: it must read as a blank graph to the bound cache.
TEST(DifferentialGraph, ReusedConeViewAndCacheMatchFreshOnes) {
  Rng rng(20261017);
  Cone cone;
  CommGraph view = CommGraph::blank(1, 0);
  KnowledgeCache view_cache;
  for (const int n : {8, 5, 12}) {
    const int t = n / 4;
    const int rounds = t + 2;
    const auto alpha = sample_go_adversary(n, t, rounds, 0.35, 0.25, rng);
    const auto prefs = sample_preferences(n, rng);
    DualRun d;
    for (AgentId i = 0; i < n; ++i) {
      d.packed.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
      d.ref.emplace_back(n, i, prefs[static_cast<std::size_t>(i)]);
    }
    for (int m = 0; m < rounds; ++m) step(d, alpha, m);

    for (AgentId owner = 0; owner < n; ++owner) {
      const CommGraph& g = d.packed[static_cast<std::size_t>(owner)];
      const RefCommGraph& r = d.ref[static_cast<std::size_t>(owner)];
      const Cone owner_cone(g, owner, g.time());
      // Levels in the order top, 0, top-1, 1, ...: m shrinks and grows.
      std::vector<int> order;
      for (int lo = 0, hi = g.time(); lo <= hi; ++lo, --hi) {
        order.push_back(hi);
        if (lo != hi) order.push_back(lo);
      }
      for (const int m : order) {
        for (AgentId j : owner_cone.at(m)) {
          SCOPED_TRACE("n " + std::to_string(n) + " owner " +
                       std::to_string(owner) + " node (" + std::to_string(j) +
                       ", " + std::to_string(m) + ")");
          view.reset_blank(n, m);
          const CommGraph blank = CommGraph::blank(n, m);
          ASSERT_EQ(view, blank);
          expect_cache_matches_fresh(view_cache, view, blank, j);

          cone.rebuild(g, j, m);
          expect_cones_equal(cone, Cone(g, j, m), n);
          const RefCone ref_cone(r, j, m);
          for (int m2 = 0; m2 <= m; ++m2)
            ASSERT_EQ(cone.at(m2), ref_cone.at(m2)) << "level " << m2;

          extract_view_into(view, g, cone);
          const CommGraph fresh = extract_view(g, j, m);
          ASSERT_EQ(view, fresh);
          ASSERT_EQ(view, testref::ref_extract_view(r, j, m).to_packed());
          expect_cache_matches_fresh(view_cache, view, fresh, j);
        }
      }
    }
  }
}

// P_opt's inference scratch is per thread and outlives every run, so a run
// must not depend on what the thread inferred before it. One thread runs
// both omission models at n = 8, then n = 32, then n = 8 again (the scratch
// grows, then serves a smaller shape); every record must equal the same run
// on a fresh thread and the seed simulator's.
template <class Protocol>
void expect_scratch_independent(const char* label, int t_small, int t_large,
                                double recv_drop_prob, std::uint64_t seed) {
  struct Case {
    int n;
    int t;
    FailurePattern alpha;
    std::vector<Value> prefs;
  };
  Rng rng(seed);
  std::vector<Case> cases;
  for (const auto& [n, t] :
       {std::pair{8, t_small}, std::pair{32, t_large}}) {
    auto alpha = sample_go_adversary(n, t, t + 2, 0.3, recv_drop_prob, rng);
    auto prefs = sample_preferences(n, rng);
    cases.push_back({n, t, std::move(alpha), std::move(prefs)});
  }
  cases.push_back(cases.front());  // n = 8 again, after n = 32

  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    SCOPED_TRACE(std::string(label) + " case " + std::to_string(k) + " n " +
                 std::to_string(c.n));
    const FipExchange x(c.n);
    const Protocol p(c.n, c.t);
    const RunRecord here = simulate(x, p, c.alpha, c.prefs, c.t).record;
    EXPECT_GE(here.rounds, 2);  // the run inferred past time 0
    RunRecord fresh_thread;
    std::exception_ptr error;
    std::thread([&] {
      try {
        fresh_thread = simulate(x, p, c.alpha, c.prefs, c.t).record;
      } catch (...) {
        error = std::current_exception();
      }
    }).join();
    if (error) std::rethrow_exception(error);
    EXPECT_EQ(here, fresh_thread);
    EXPECT_EQ(here,
              testing::reference_simulate(x, p, c.alpha, c.prefs, c.t).record);
  }
}

TEST(DifferentialGraph, InferenceScratchIsIndependentOfEarlierRuns) {
  // P_opt runs sending-omission patterns (no receive drops). POptGo's
  // cond_1 enumerates every <= t fault set, so its n = 32 run uses t = 1 to
  // stay fast under the sanitizers.
  expect_scratch_independent<POpt>("P_opt", 2, 8, 0.0, 5150);
  expect_scratch_independent<POptGo>("P_opt_go", 2, 1, 0.25, 5151);
}

}  // namespace
}  // namespace eba
