// Model-checker tests: the state partition both Kripke engines share,
// sanity of the epistemic semantics (factivity, locality), and the paper's
// characterizations —
//   Prop A.2(a): C_N(t-faulty) at m  ⇔  dist_N(t-faulty) at m-1,
//   Lemma A.20:  the f/D cardinality test of P_opt  ⇔  C_N(t-faulty),
// checked by brute force over every point of exhaustively enumerated
// systems.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <vector>

#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "exchange/min.hpp"
#include "graph/knowledge.hpp"
#include "kripke/kbp.hpp"
#include "kripke/partition.hpp"
#include "kripke/system.hpp"

namespace eba {
namespace {

using MinSys = InterpretedSystem<MinExchange, PMin>;
using FipSys = InterpretedSystem<FipExchange, POpt>;

MinSys build_min_system(int n, int t, int rounds) {
  MinSys sys(MinExchange(n), PMin(n, t), t, t + 3);
  sys.add_all_runs(EnumerationConfig{.n = n, .t = t, .rounds = rounds});
  sys.finalize();
  return sys;
}

FipSys build_fip_system(int n, int t, int rounds) {
  FipSys sys(FipExchange(n), POpt(n, t), t, t + 3);
  sys.add_all_runs(EnumerationConfig{.n = n, .t = t, .rounds = rounds});
  sys.finalize();
  return sys;
}

StatePartition partition_of(const std::vector<int>& keys, bool one_bucket) {
  return StatePartition(
      static_cast<int>(keys.size()),
      [&](int k) -> const int& { return keys[static_cast<std::size_t>(k)]; },
      [&](int k) -> std::size_t {
        const int key = keys[static_cast<std::size_t>(k)];
        return one_bucket ? 0 : std::hash<int>{}(key);
      });
}

// StatePartition against a brute-force pairwise grouping: an item joins the
// class of the first earlier item with an equal key, else opens the next
// class id. A constant hash puts every key in one bucket, so equality alone
// must separate them.
TEST(StatePartition, MatchesPairwiseGrouping) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = static_cast<int>(rng() % 40);
    const int range = 1 + static_cast<int>(rng() % 12);
    std::vector<int> keys(static_cast<std::size_t>(count));
    for (int& k : keys)
      k = static_cast<int>(rng() % static_cast<unsigned>(range));

    std::vector<int> want_class(keys.size());
    std::vector<std::vector<int>> want_members;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      std::size_t j = 0;
      while (j < k && keys[j] != keys[k]) ++j;
      if (j == k) {
        want_class[k] = static_cast<int>(want_members.size());
        want_members.emplace_back();
      } else {
        want_class[k] = want_class[j];
      }
      want_members[static_cast<std::size_t>(want_class[k])].push_back(
          static_cast<int>(k));
    }

    for (const bool one_bucket : {false, true}) {
      const StatePartition p = partition_of(keys, one_bucket);
      ASSERT_EQ(p.num_classes(), static_cast<int>(want_members.size()));
      for (int k = 0; k < count; ++k)
        EXPECT_EQ(p.class_of(k), want_class[static_cast<std::size_t>(k)]);
      for (int c = 0; c < p.num_classes(); ++c) {
        const auto got = p.members(c);
        EXPECT_EQ(std::vector<int>(got.begin(), got.end()),
                  want_members[static_cast<std::size_t>(c)]);
      }
    }
    // The grouping, not the hash, is what same_partition compares.
    EXPECT_EQ(partition_of(keys, false), partition_of(keys, true));
    const std::vector<int> copy = keys;
    EXPECT_EQ(partition_of(keys, false), partition_of(copy, false));
  }
}

TEST(StatePartition, DifferentGroupingsDiffer) {
  const std::vector<int> a{5, 5, 9, 3};
  EXPECT_NE(partition_of(a, false), partition_of({5, 9, 5, 3}, false));
  EXPECT_NE(partition_of(a, false), partition_of({5, 5, 9, 9}, false));
  // Equal groupings of different keys are equal partitions.
  EXPECT_EQ(partition_of(a, false), partition_of({1, 1, 2, 0}, false));
  EXPECT_EQ(partition_of({}, false).num_classes(), 0);
  EXPECT_EQ(partition_of({}, false), StatePartition());
}

TEST(KnowledgeSemantics, FactivityAndLocality) {
  const MinSys sys = build_min_system(3, 1, 2);
  int knowledge_points = 0;
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (int m = 0; m <= sys.horizon(); ++m) {
      const Point pt{r, m};
      for (AgentId i = 0; i < 3; ++i) {
        // Factivity: K_i φ ⇒ φ (here φ = "some agent has initial value 0").
        const auto phi = [&](Point q) { return sys.exists_init(q, Value::zero); };
        if (sys.knows(i, pt, phi)) {
          EXPECT_TRUE(phi(pt));
          ++knowledge_points;
        }
        // Locality: indistinguishable runs share the local state.
        for (int r2 : sys.indistinguishable_runs(i, pt))
          EXPECT_EQ(sys.state({r2, m}, i), sys.state(pt, i));
      }
    }
  }
  EXPECT_GT(knowledge_points, 0);
}

TEST(KnowledgeSemantics, AgentKnowsItsOwnInit) {
  const MinSys sys = build_min_system(3, 1, 2);
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (AgentId i = 0; i < 3; ++i) {
      const Point pt{r, 0};
      const Value v = sys.init(pt, i);
      EXPECT_TRUE(sys.knows(i, pt, [&](Point q) { return sys.init(q, i) == v; }));
    }
  }
}

TEST(KnowledgeSemantics, NobodyKnowsWhoIsFaultyInMinContext) {
  // In γ_min agents never learn who is faulty (paper §7): K_i(j ∉ N) fails
  // everywhere for j ≠ i.
  const MinSys sys = build_min_system(3, 1, 2);
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (int m = 0; m <= 2; ++m) {
      for (AgentId i = 0; i < 3; ++i) {
        for (AgentId j = 0; j < 3; ++j) {
          if (j == i) continue;
          EXPECT_FALSE(sys.knows(
              i, {r, m}, [&](Point q) { return !sys.nonfaulty(q, j); }));
        }
      }
    }
  }
}

TEST(KnowledgeSemantics, CommonKnowledgeImpliesEveryoneKnows) {
  const FipSys sys = build_fip_system(3, 1, 1);
  const auto N = sys.nonfaulty_indexical();
  int holds = 0;
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (int m = 0; m <= 2; ++m) {
      const Point pt{r, m};
      const auto phi = [&](Point q) { return sys.exists_init(q, Value::one); };
      if (sys.common_knowledge(N, pt, phi)) {
        EXPECT_TRUE(sys.everyone_knows(N, pt, phi));
        ++holds;
      }
    }
  }
  EXPECT_GT(holds, 0);
}

/// dist_N(t-faulty) at pt: between them, the nonfaulty agents know about t
/// faulty agents.
bool dist_t_faulty(const FipSys& sys, Point pt) {
  AgentSet known;
  for (AgentId j : sys.nonfaulty_set(pt)) {
    for (AgentId k = 0; k < sys.n(); ++k) {
      if (sys.knows(j, pt, [&](Point q) { return !sys.nonfaulty(q, k); }))
        known.insert(k);
    }
  }
  return known.size() >= sys.t();
}

/// C_N(t-faulty) at pt via the brute-force common-knowledge operator.
bool common_t_faulty(const FipSys& sys, Point pt) {
  const int n = sys.n();
  const int t = sys.t();
  std::vector<AgentId> pick;
  auto try_subsets = [&](auto&& self, AgentId next) -> bool {
    if (static_cast<int>(pick.size()) == t) {
      return sys.common_knowledge(sys.nonfaulty_indexical(), pt, [&](Point q) {
        for (AgentId a : pick)
          if (sys.nonfaulty(q, a)) return false;
        return true;
      });
    }
    for (AgentId a = next; a < n; ++a) {
      pick.push_back(a);
      if (self(self, a + 1)) return true;
      pick.pop_back();
    }
    return false;
  };
  return try_subsets(try_subsets, 0);
}

// Prop A.2(a): for every point with time >= 1,
//   C_N(t-faulty)  ⇔  dist_N(t-faulty) one round earlier.
TEST(PropA2, CommonKnowledgeOfFaultsIffPriorDistributedKnowledge) {
  const FipSys sys = build_fip_system(3, 1, 1);
  int both = 0;
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (int m = 1; m <= 2; ++m) {
      const Point pt{r, m};
      const bool ck = common_t_faulty(sys, pt);
      const bool dist = dist_t_faulty(sys, {r, m - 1});
      EXPECT_EQ(ck, dist) << "run " << r << " time " << m;
      both += ck ? 1 : 0;
    }
  }
  EXPECT_GT(both, 0) << "the equivalence should be exercised positively";
}

// Lemma A.20: the polynomial-time f/D cardinality test used by P_opt agrees
// with brute-force C_N(t-faulty) at every reachable point.
TEST(LemmaA20, GraphCardinalityTestMatchesCommonKnowledge) {
  const FipSys sys = build_fip_system(3, 1, 1);
  const int t = sys.t();
  int positives = 0;
  for (int r = 0; r < sys.num_runs(); ++r) {
    for (int m = 1; m <= 2; ++m) {
      const Point pt{r, m};
      const bool ck = common_t_faulty(sys, pt);
      bool graph_test = false;
      for (AgentId i = 0; i < sys.n() && !graph_test; ++i) {
        const CommGraph& g = sys.state(pt, i).graph();
        const auto f = known_faults_table(g);
        const AgentSet f_self =
            f[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)];
        AgentSet dist;
        for (AgentId j : f_self.complement(sys.n()))
          dist = dist.united(
              f[static_cast<std::size_t>(m - 1)][static_cast<std::size_t>(j)]);
        graph_test = f_self.size() == t && dist.size() == t;
      }
      EXPECT_EQ(graph_test, ck) << "run " << r << " time " << m;
      positives += ck ? 1 : 0;
    }
  }
  EXPECT_GT(positives, 0);
}

// The C_N(t-faulty ∧ ...) conditions can never hold in the minimal context
// (paper §7: "agents never learn who is faulty"), so P1 ≡ P0 there.
TEST(P1EquivalentToP0InMinContext, CommonConditionNeverHolds) {
  MinSys sys(MinExchange(3), PMin(3, 1), 1, 4);
  sys.add_all_runs(EnumerationConfig{.n = 3, .t = 1, .rounds = 2});
  sys.finalize();
  for (int r = 0; r < sys.num_runs(); ++r)
    for (int m = 0; m <= 3; ++m) {
      EXPECT_FALSE(common_condition(sys, {r, m}, Value::zero));
      EXPECT_FALSE(common_condition(sys, {r, m}, Value::one));
    }
}

// ... and consequently the two programs select identical actions at every
// point of γ_min and γ_basic.
TEST(P1EquivalentToP0InMinContext, ProgramsSelectSameActions) {
  MinSys sys(MinExchange(3), PMin(3, 1), 1, 4);
  sys.add_all_runs(EnumerationConfig{.n = 3, .t = 1, .rounds = 2});
  sys.finalize();
  for (int r = 0; r < sys.num_runs(); ++r)
    for (int m = 0; m <= 3; ++m)
      for (AgentId i = 0; i < 3; ++i)
        EXPECT_EQ(eval_p0(sys, {r, m}, i), eval_p1(sys, {r, m}, i))
            << "run " << r << " time " << m << " agent " << i;
}

}  // namespace
}  // namespace eba
