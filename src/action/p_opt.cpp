#include "action/p_opt.hpp"

#include <algorithm>

#include "action/p_opt_go.hpp"
#include "graph/knowledge.hpp"

namespace eba {

// The paper's d(j, m, G) oracle — an inferred-action lookup gated by
// reachability in the graph under evaluation — is realized below as whole
// mask intersections: cone.at(m) ∩ ActionTable decider masks enumerate every
// (j, m) with a reachable, known decision in one word op per round.

namespace {

/// The buffers one call rebuilds in place: the cache of the agent's own
/// graph, emptied on entry (a state copy-assigned in place keeps the graph's
/// address and may repeat its revision), and per (j, m) node the node's
/// cone, its view G_{j,m} and that view's cache. The view keeps one address
/// and a strictly increasing revision, so its cache never answers for an
/// earlier node.
struct InferScratch {
  KnowledgeCache own;
  Cone cone;
  CommGraph view = CommGraph::blank(1, 0);
  KnowledgeCache cache;
};

/// One scratch per thread, shared by both models' rules (see p_opt.hpp).
InferScratch& infer_scratch() {
  thread_local InferScratch scratch;
  return scratch;
}

}  // namespace

// ---------------------------------------------------------------------------
// The rule, shared by both failure models.
// ---------------------------------------------------------------------------

template <class Model>
bool OptimalRule<Model>::common_test(const CommGraph& g, AgentId self,
                                     Value v, int t,
                                     const ActionTable& known) {
  KnowledgeCache cache;
  return common_test(g, self, v, t, known, cache);
}

template <class Model>
bool OptimalRule<Model>::common_test(const CommGraph& g, AgentId self,
                                     Value v, int t, const ActionTable& known,
                                     KnowledgeCache& cache) {
  const int m = g.time();
  if (m < 1) return false;

  // (a) The possibly-nonfaulty agents must have had distributed knowledge of
  // exactly t faulty agents at time m-1 — how an agent tells which faults
  // are known is the model's business.
  const auto [candidates, dist] = Model::attribute_faults(g, self, t, cache);
  if (dist.size() != t) return false;

  // (b) No possibly-nonfaulty agent may be known to have decided 1-v
  // (otherwise no-decided_N(1-v) cannot be common knowledge). d(j, m2) is
  // gated by cone membership, so one cone-level ∩ decider-mask ∩ candidates
  // intersection per round covers every (j, m2) probe of the old triple loop.
  const Cone& cone = cache.cone(g, self, m);
  const Value other = opposite(v);
  for (int m2 = 0; m2 < m; ++m2) {
    const AgentSet bad = other == Value::zero ? known.deciders0(m2)
                                              : known.deciders1(m2);
    if (!candidates.intersected(cone.at(m2)).intersected(bad).empty())
      return false;
  }

  // (c) Some agent believed nonfaulty at time m-1 must have known ∃v then
  // (Prop A.2(c): C_N(t-faulty ∧ ∃v) ⇔ C_N(t-faulty) ∧ ⊖(∨_{j∈N} K_j ∃v)).
  for (AgentId j : dist.complement(g.n()))
    if (known_values(g, j, m - 1, cone).contains(v)) return true;
  return false;
}

template <class Model>
bool OptimalRule<Model>::cond0_test(const CommGraph& g, AgentId self,
                                    Value init, const ActionTable& known) {
  const int m = g.time();
  if (m == 0) return init == Value::zero;
  // Only senders whose round-m message reached `self` can have shown it a
  // fresh 0-decision; the packed receiver row enumerates exactly those.
  for (AgentId j : g.present_senders(m - 1, self)) {
    if (j == self) continue;
    if (known.get(j, m - 1) == KnownAction::decide0) return true;
  }
  return false;
}

template <class Model>
Action OptimalRule<Model>::decide_rule(const CommGraph& g, AgentId self,
                                       Value init, bool decided, int t,
                                       const ActionTable& known,
                                       bool use_common,
                                       KnowledgeCache& cache) {
  if (decided) return Action::noop();
  if (use_common) {
    if (common_test(g, self, Value::zero, t, known, cache))
      return Action::decide(Value::zero);
    if (common_test(g, self, Value::one, t, known, cache))
      return Action::decide(Value::one);
  }
  if (cond0_test(g, self, init, known) ||
      Model::forced_zero(g, self, t, known, cache))
    return Action::decide(Value::zero);
  if (Model::cond1_test(g, self, t, known, cache))
    return Action::decide(Value::one);
  return Action::noop();
}

template <class Model>
void OptimalRule<Model>::infer_actions(const FipState& s) const {
  s.inferred.ensure(n_, s.time);
  InferScratch& scratch = infer_scratch();
  scratch.own.invalidate();
  const Cone& cone = scratch.own.cone(s.graph(), s.self, s.time);
  for (int m = 0; m <= s.time; ++m) {
    for (AgentId j : cone.at(m)) {
      if (j == s.self && m == s.time) continue;  // the action being computed
      if (s.inferred.get(j, m) != KnownAction::unknown) continue;
      // Each (j, m) node is extracted exactly once over the state's
      // lifetime, so its cone and view are not memoized — only rebuilt in
      // the thread's scratch buffers.
      scratch.cone.rebuild(s.graph(), j, m);
      extract_view_into(scratch.view, s.graph(), scratch.cone);
      const CommGraph& view = scratch.view;
      EBA_REQUIRE(view.pref(j) != PrefLabel::unknown,
                  "reachable node with unknown own preference");
      const Value init_j =
          view.pref(j) == PrefLabel::zero ? Value::zero : Value::one;
      const bool decided_before = s.inferred.decided_by(j, m - 1);
      // The view is consulted up to three times (two common tests + cond_1);
      // the view's cache shares its cone and fault table across them.
      const Action a = decide_rule(view, j, init_j, decided_before, t_,
                                   s.inferred, use_common_, scratch.cache);
      s.inferred.set(j, m, to_known(a));
    }
  }
}

template <class Model>
Action OptimalRule<Model>::operator()(const FipState& s) const {
  EBA_REQUIRE(s.graph().n() == n_, "state from a different system");
  infer_actions(s);  // leaves s.graph()'s cone in the own-graph cache
  return decide_rule(s.graph(), s.self, s.init, s.decided.has_value(), t_,
                     s.inferred, use_common_, infer_scratch().own);
}

// ---------------------------------------------------------------------------
// Sending omissions.
// ---------------------------------------------------------------------------

FaultAttribution SendingOmissions::attribute_faults(const CommGraph& g,
                                                    AgentId self, int /*t*/,
                                                    KnowledgeCache& cache) {
  const int m = g.time();
  const AgentSet f_self =
      cache.fault_row(g, m)[static_cast<std::size_t>(self)];
  const AgentSet candidates = f_self.complement(g.n());
  const auto f_prev = cache.fault_row(g, m - 1);
  AgentSet dist;
  for (AgentId j : candidates)
    dist = dist.united(f_prev[static_cast<std::size_t>(j)]);
  return {candidates, dist};
}

bool SendingOmissions::cond1_test(const CommGraph& g, AgentId self,
                                  const ActionTable& known) {
  KnowledgeCache cache;
  return cond1_test(g, self, known, cache);
}

bool SendingOmissions::cond1_test(const CommGraph& g, AgentId self,
                                  const ActionTable& known,
                                  KnowledgeCache& cache) {
  const int m = g.time();
  if (m == 0) return false;

  const Cone& cone = cache.cone(g, self, m);

  // len: the longest 0-chain position the agent knows about (-1 if none).
  // d(j, m2) = decide0 iff j is both in the cone level and the decide0 mask.
  int len = -1;
  for (int m2 = 0; m2 < m; ++m2)
    if (!cone.at(m2).intersected(known.deciders0(m2)).empty()) len = m2;

  // Agents known (at some cone node) to have decided. j ∈ cone.at(m2)
  // implies m2 <= last_heard(j), so this union is exactly the complement of
  // the old per-agent undecided_when_last_heard scan.
  AgentSet known_decided;
  for (int m2 = 0; m2 <= m; ++m2)
    known_decided =
        known_decided.united(cone.at(m2).intersected(known.deciders(m2)));
  const AgentSet undecided = known_decided.complement(g.n());

  // Prop A.7 (contrapositive): the agent knows no one can be deciding 0 iff
  // for some chain position m2 in (len, m] there are fewer potential
  // extenders than the hidden chain would need. The extenders at m2 are the
  // undecided agents last heard before m2 — those in no cone level m' >= m2
  // — so walking m2 down from m grows one heard-at-or-after union. Because
  // the extender sets are nested in m2, this is exactly Hall's condition
  // for the hidden chain.
  AgentSet heard_since;
  for (int m2 = m; m2 > len; --m2) {
    heard_since = heard_since.united(cone.at(m2));
    if (undecided.minus(heard_since).size() < m2 - len) return true;
  }
  return false;
}

int SendingOmissions::evidence_ambiguity(const FipState& s, int t) {
  return std::max(0, t - known_faults(s.graph(), s.self, s.time).size());
}

// Both models are compiled here, out of line for every caller.
template class OptimalRule<SendingOmissions>;
template class OptimalRule<GeneralOmissions>;

}  // namespace eba
