// Unit tests for communication graphs and the knowledge operators
// f, D, V, cone, extract_view (paper §A.2.7).
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "exchange/fip.hpp"
#include "failure/generators.hpp"
#include "graph/action_table.hpp"
#include "graph/knowledge.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace eba {
namespace {

/// Runs E_fip with an all-noop action protocol for `rounds` rounds and
/// returns the final states; a convenient way to build real graphs.
std::vector<FipState> fip_states(int n, const FailurePattern& alpha,
                                 const std::vector<Value>& inits, int rounds) {
  const FipExchange x(n);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = rounds;
  opt.stop_when_all_decided = false;
  auto run = simulate(x, noop, alpha, inits, /*t=*/n - 2, opt);
  return run.states.back();
}

std::vector<Value> mixed_inits(int n) {
  std::vector<Value> v(static_cast<std::size_t>(n), Value::one);
  v[0] = Value::zero;
  return v;
}

TEST(CommGraphTest, AdvanceRecordsIncomingLabels) {
  CommGraph g(3, 0, Value::one);
  g.advance_round(0, AgentSet{1});
  EXPECT_EQ(g.time(), 1);
  EXPECT_EQ(g.label(0, 1, 0), Label::present);
  EXPECT_EQ(g.label(0, 2, 0), Label::absent);
  EXPECT_EQ(g.label(0, 0, 0), Label::present);
  EXPECT_EQ(g.label(0, 1, 2), Label::unknown);
}

TEST(CommGraphTest, MergeTakesDefiniteLabels) {
  CommGraph a(3, 0, Value::one);
  a.advance_round(0, AgentSet{1, 2});
  CommGraph b(3, 1, Value::zero);
  b.advance_round(1, AgentSet{2});
  a.merge(b);
  EXPECT_EQ(a.label(0, 2, 1), Label::present);
  EXPECT_EQ(a.label(0, 0, 1), Label::absent);
  EXPECT_EQ(a.pref(1), PrefLabel::zero);
}

TEST(CommGraphTest, MergeConflictThrows) {
  CommGraph a(2, 0, Value::one);
  a.advance_round(0, AgentSet{1});
  CommGraph b = CommGraph::blank(2, 1);
  b.set_label(0, 1, 0, Label::absent);  // contradicts a's observation
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(CommGraphTest, BitSizeMatchesShape) {
  CommGraph g = CommGraph::blank(4, 3);
  EXPECT_EQ(g.bit_size(), 2u * (3 * 4 * 4) + 2u * 4);
}

TEST(CommGraphTest, HashDistinguishesContent) {
  CommGraph a = CommGraph::blank(3, 1);
  CommGraph b = CommGraph::blank(3, 1);
  EXPECT_EQ(a.hash(), b.hash());
  b.set_label(0, 0, 1, Label::present);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ConeTest, FailureFreeConeCoversEveryone) {
  const int n = 4;
  const auto states = fip_states(n, FailurePattern::failure_free(n),
                                 mixed_inits(n), 2);
  const Cone cone(states[0].graph(), 0, 2);
  EXPECT_EQ(cone.at(2), AgentSet{0});
  EXPECT_EQ(cone.at(1), AgentSet::all(n));
  EXPECT_EQ(cone.at(0), AgentSet::all(n));
  for (AgentId j = 1; j < n; ++j) EXPECT_EQ(cone.last_heard(j), 1);
  EXPECT_EQ(cone.last_heard(0), 2);
}

TEST(ConeTest, SilentAgentNeverEntersCone) {
  const int n = 4;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 3);
  const auto states = fip_states(n, alpha, mixed_inits(n), 3);
  const Cone cone(states[0].graph(), 0, 3);
  for (int m = 0; m <= 2; ++m) EXPECT_FALSE(cone.contains(3, m)) << m;
  EXPECT_EQ(cone.last_heard(3), -1);
}

TEST(ConeTest, RelayedHistoryIsVisible) {
  // Agent 3 is silent towards 0 but talks to 1; 0 hears (3,0) via 1 at
  // time 2.
  const int n = 4;
  FailurePattern alpha(n, AgentSet{0, 1, 2});
  alpha.drop(0, 3, 0);
  alpha.drop(1, 3, 0);
  alpha.drop(2, 3, 0);
  const auto states = fip_states(n, alpha, mixed_inits(n), 2);
  const Cone cone(states[0].graph(), 0, 2);
  EXPECT_TRUE(cone.contains(3, 0)) << "relayed through agent 1's graph";
  EXPECT_FALSE(cone.contains(3, 1));
  EXPECT_EQ(cone.last_heard(3), 0);
}

TEST(ExtractViewTest, ReconstructsExactSentGraph) {
  // In a deterministic run, the view extracted for (j, m) must equal the
  // graph agent j actually had at time m.
  const int n = 4;
  FailurePattern alpha(n, AgentSet{0, 1, 2});
  alpha.drop(0, 3, 1);
  alpha.drop(1, 3, 2);
  const FipExchange x(n);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = 3;
  opt.stop_when_all_decided = false;
  const auto run = simulate(x, noop, alpha, mixed_inits(n), n - 2, opt);

  const CommGraph& owner = run.states[3][0].graph();
  const Cone cone(owner, 0, 3);
  for (int m = 0; m <= 2; ++m) {
    for (AgentId j = 0; j < n; ++j) {
      if (!cone.contains(j, m)) continue;
      const CommGraph view = extract_view(owner, j, m);
      EXPECT_EQ(view, run.states[static_cast<std::size_t>(m)]
                          [static_cast<std::size_t>(j)]
                              .graph())
          << "agent " << j << " time " << m;
    }
  }
}

TEST(KnownFaultsTest, ReceiverDetectsSilentSender) {
  const int n = 4;
  const auto alpha = silent_agents_pattern(n, AgentSet{3}, 2);
  const auto states = fip_states(n, alpha, mixed_inits(n), 2);
  const CommGraph& g = states[0].graph();
  EXPECT_EQ(known_faults(g, 0, 0), AgentSet{});
  EXPECT_EQ(known_faults(g, 0, 1), AgentSet{3});
  EXPECT_EQ(known_faults(g, 0, 2), AgentSet{3});
  // Agent 0 also knows (via round-2 graphs) that 1 and 2 detected 3.
  EXPECT_EQ(known_faults(g, 1, 1), AgentSet{3});
  EXPECT_EQ(known_faults(g, 2, 1), AgentSet{3});
}

TEST(KnownFaultsTest, FaultKnowledgePropagatesOneRoundLate) {
  // Agent 3 drops only its message to 2 in round 1; 2 detects it, everyone
  // else learns it from 2's round-2 graph.
  const int n = 4;
  FailurePattern alpha(n, AgentSet{0, 1, 2});
  alpha.drop(0, 3, 2);
  const auto states = fip_states(n, alpha, mixed_inits(n), 2);
  const CommGraph& g = states[0].graph();
  EXPECT_EQ(known_faults(g, 0, 1), AgentSet{}) << "0 saw nothing in round 1";
  EXPECT_EQ(known_faults(g, 2, 1), AgentSet{3}) << "2 detected the omission";
  EXPECT_EQ(known_faults(g, 0, 2), AgentSet{3}) << "relayed in round 2";
}

TEST(DistributedFaultsTest, UnionOverSet) {
  const int n = 5;
  FailurePattern alpha(n, AgentSet{0, 1, 2});
  alpha.drop(0, 3, 1);  // only 1 sees 3's fault
  alpha.drop(0, 4, 2);  // only 2 sees 4's fault
  const auto states = fip_states(n, alpha, mixed_inits(n), 2);
  const CommGraph& g = states[0].graph();
  EXPECT_EQ(distributed_faults(g, AgentSet{1, 2}, 1), (AgentSet{3, 4}));
  EXPECT_EQ(distributed_faults(g, AgentSet{0}, 1), AgentSet{});
}

TEST(KnownValuesTest, TracksWhoKnewWhichInitsWhen) {
  const int n = 4;
  const auto states = fip_states(n, FailurePattern::failure_free(n),
                                 mixed_inits(n), 2);
  const CommGraph& g = states[1].graph();
  const Cone cone(g, 1, 2);
  // At time 0, agent 0 knew only its own 0; agent 1 only its own 1.
  EXPECT_EQ(known_values(g, 0, 0, cone), ValueSet{Value::zero});
  EXPECT_EQ(known_values(g, 1, 0, cone), ValueSet{Value::one});
  // At time 1 everyone knows both values.
  EXPECT_EQ(known_values(g, 1, 1, cone), (ValueSet{Value::zero, Value::one}));
  // Unreachable nodes yield the empty set.
  EXPECT_TRUE(known_values(g, 2, 2, cone).empty());
}

/// The brute-force ActionTable: one entry per (j, m) ever set, unknown
/// elsewhere, every query answered by scanning the entries.
struct RefActionTable {
  int n = 0;
  int top = -1;  ///< the largest time ensure() covered
  std::map<std::pair<AgentId, int>, KnownAction> entries;

  [[nodiscard]] KnownAction get(AgentId j, int m) const {
    const auto it = entries.find({j, m});
    return it == entries.end() ? KnownAction::unknown : it->second;
  }
  [[nodiscard]] AgentSet with(int m, KnownAction a) const {
    AgentSet out;
    for (const auto& [key, value] : entries)
      if (key.second == m && value == a) out.insert(key.first);
    return out;
  }
  [[nodiscard]] bool decided_by(AgentId j, int m) const {
    for (int m2 = 0; m2 <= m; ++m2)
      if (get(j, m2) == KnownAction::decide0 ||
          get(j, m2) == KnownAction::decide1)
        return true;
    return false;
  }
};

/// Every query of `got` at every (j, m) of the table, one past each edge
/// and beyond, against the reference.
void expect_tables_agree(const ActionTable& got, const RefActionTable& want) {
  for (int m = -2; m <= want.top + 2; ++m) {
    SCOPED_TRACE(testing::Message() << "time " << m);
    ASSERT_EQ(got.deciders0(m), want.with(m, KnownAction::decide0));
    ASSERT_EQ(got.deciders1(m), want.with(m, KnownAction::decide1));
    ASSERT_EQ(got.deciders(m), want.with(m, KnownAction::decide0)
                                   .united(want.with(m, KnownAction::decide1)));
    for (AgentId j = -1; j <= want.n + 1; ++j) {
      ASSERT_EQ(got.get(j, m), want.get(j, m)) << "agent " << j;
      ASSERT_EQ(got.decided_by(j, m), want.decided_by(j, m)) << "agent " << j;
    }
  }
}

constexpr KnownAction kAllKnownActions[] = {
    KnownAction::unknown, KnownAction::noop, KnownAction::decide0,
    KnownAction::decide1};

TEST(ActionTableTest, MatchesBruteForceReferenceAfterEveryOperation) {
  const int n = 7;
  ActionTable table;
  RefActionTable ref;
  ref.n = n;
  const auto ensure = [&](int time) {
    table.ensure(n, time);
    ref.top = std::max(ref.top, time);
    expect_tables_agree(table, ref);
  };
  const auto set = [&](AgentId j, int m, KnownAction a) {
    table.set(j, m, a);
    if (a == KnownAction::unknown)
      ref.entries.erase({j, m});
    else
      ref.entries[{j, m}] = a;
    expect_tables_agree(table, ref);
  };

  // Empty: every read is unknown, every mask empty.
  expect_tables_agree(table, ref);
  ensure(0);
  set(3, 0, KnownAction::decide1);
  set(0, 0, KnownAction::noop);

  // Every transition among the four values, at both agent edges and in the
  // middle, in the first, a middle and the last slab. Each growth must keep
  // every entry already set.
  ensure(4);
  for (const auto& [j, m] : {std::pair{0, 1}, std::pair{n - 1, 4},
                             std::pair{3, 2}, std::pair{5, 0}})
    for (KnownAction from : kAllKnownActions)
      for (KnownAction to : kAllKnownActions) {
        SCOPED_TRACE(testing::Message()
                     << "(" << j << ", " << m << ") " << static_cast<int>(from)
                     << " -> " << static_cast<int>(to));
        set(j, m, from);
        set(j, m, to);
      }
  ensure(2);  // never shrinks
  ensure(9);

  // A random walk over the grown table.
  Rng rng(20261018);
  for (int k = 0; k < 300; ++k)
    set(rng.below(n), rng.below(10), kAllKnownActions[rng.below(4)]);
  ensure(12);
}

TEST(ActionTableTest, RejectsOutOfRangeWritesAndAChangedAgentCount) {
  ActionTable table;
  table.ensure(4, 2);
  EXPECT_THROW(table.set(4, 0, KnownAction::noop), std::logic_error);
  EXPECT_THROW(table.set(-1, 0, KnownAction::noop), std::logic_error);
  EXPECT_THROW(table.set(0, 3, KnownAction::noop), std::logic_error);
  EXPECT_THROW(table.set(0, -1, KnownAction::noop), std::logic_error);
  EXPECT_THROW(table.ensure(5, 3), std::logic_error);
  EXPECT_EQ(table.get(0, 3), KnownAction::unknown);
}

}  // namespace
}  // namespace eba
