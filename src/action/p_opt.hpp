// P_opt: the polynomial-time implementation of the knowledge-based program
// P1 with respect to the full-information exchange (paper §7, Def. A.19,
// Thm A.21, Prop 7.9). This settles the Halpern–Moses–Waarts open problem:
// an optimal EBA protocol for omission failures that is computable in
// polynomial time.
//
// P1 is one program; only how its knowledge tests are evaluated on the
// agent's communication graph depends on the failure model. OptimalRule
// holds the rule once and takes the model as a policy:
//
//   if decided                              -> noop
//   if common_0 (K_i C_N(t-faulty ∧ no-decided_N(1) ∧ ∃0)) -> decide(0)
//   if common_1 (K_i C_N(t-faulty ∧ no-decided_N(0) ∧ ∃1)) -> decide(1)
//   if cond_0   (init=0 or a just-received 0-decision,
//                or the model's extra 0-clause)             -> decide(0)
//   if cond_1   (K_i "no agent can be deciding 0")         -> decide(1)
//   otherwise                               -> noop
//
// The common test's steps (b) and (c), cond_0's direct clause, the inferred
// action table and the rule itself are shared. A model policy supplies only
// what differs:
//
//   attribute_faults    step (a) of common_v: SO unions the candidates' f
//                       rows; GO pools their missing-edge clauses;
//   forced_zero         cond_0's extra clause: none in SO; GO's
//                       budget-forced cascade;
//   cond1_test          SO's Hall prefix test (Prop A.7); GO's cover
//                       enumeration with a cascade window;
//   evidence_ambiguity  the strategy-facing count of unresolved faults.
//
//   POpt   = OptimalRule<SendingOmissions>  (this header, p_opt.cpp)
//   POptGo = OptimalRule<GeneralOmissions>  (p_opt_go.hpp, p_opt_go.cpp)
//
// All tests are evaluated on the agent's communication graph using the
// operators f, D, V, d of §A.2.7; the d (inferred action) entries are
// memoized in the state's ActionTable, each node being inferred exactly once
// when it first enters the hears-from cone.
//
// Inferring d(j, m) means evaluating the rule on the reconstructed view
// G_{j,m}. Each call works in one per-thread scratch: a KnowledgeCache for
// the agent's own graph, invalidated on entry, and a Cone, a view CommGraph
// and the view's KnowledgeCache, rebuilt in place for every node. So
// inference allocates nothing per node, and a state keeps only its graph
// and ActionTable: the graph changes every round, so knowledge derived from
// it never serves a second one. The scratch is a function-local
// thread_local in p_opt.cpp, shared by both models:
//
//   * not per state: a workload keeps every agent state of every in-flight
//     instance alive (32,768 FipStates at n = 32), and one scratch each
//     would multiply the working set for buffers only one call uses at a
//     time;
//   * not per protocol object: the rule is a const function object that
//     worker threads share, so a member scratch would be a data race.
//
// Each agent still infers every node of its own cone itself; inferred actions
// are never shared across the agents of an instance, so the per-agent cost
// of Prop 7.9 is what gets measured.
#pragma once

#include "core/types.hpp"
#include "exchange/fip.hpp"
#include "graph/action_table.hpp"
#include "graph/comm_graph.hpp"
#include "graph/knowledge.hpp"

namespace eba {

/// Step (a) of common_v at time m = g.time(), as a model attributes faults:
/// the agents `self` cannot convict at m (the candidates for N), and the
/// faults those candidates jointly knew of at m-1.
struct FaultAttribution {
  AgentSet candidates;
  AgentSet distributed;
};

/// P1 over the full-information exchange, for the failure model `Model`.
/// The model's own graph tests (cond1_test, evidence_ambiguity, ...) are
/// public through the base class.
template <class Model>
class OptimalRule : public Model {
 public:
  /// Ablation switch: with `use_common_knowledge = false` the two
  /// common-knowledge lines are skipped, leaving P0 evaluated over the
  /// full-information exchange — still a correct EBA protocol (Prop 6.1
  /// holds in every EBA context) but no longer optimal: it forfeits the
  /// Example 7.1 round-3 shortcut; bench_paper's ablation section checks it.
  enum class CommonKnowledge { enabled, disabled };

  /// Requires n - t >= 2 (Thm A.21 hypothesis).
  OptimalRule(int n, int t, CommonKnowledge ck = CommonKnowledge::enabled)
      : n_(n), t_(t), use_common_(ck == CommonKnowledge::enabled) {
    EBA_REQUIRE(t >= 0 && n - t >= 2, "P_opt requires 0 <= t <= n-2");
  }

  [[nodiscard]] Action operator()(const FipState& s) const;

  // The individual graph tests, exposed for unit tests and for the
  // model-checker cross-validation of Thm A.21. `known` is an inferred
  // action table valid for every node reachable in `g`; lookups are gated by
  // reachability in `g` internally.

  /// common_v: K_i(C_N(t-faulty ∧ no-decided_N(1-v) ∧ ∃v)) at time g.time().
  /// The cache-less overload builds a throwaway KnowledgeCache; the cached
  /// overload reuses `cache`, which must belong to `g` (see KnowledgeCache).
  [[nodiscard]] static bool common_test(const CommGraph& g, AgentId self,
                                        Value v, int t,
                                        const ActionTable& known);
  [[nodiscard]] static bool common_test(const CommGraph& g, AgentId self,
                                        Value v, int t,
                                        const ActionTable& known,
                                        KnowledgeCache& cache);

  /// cond_0's direct clause: init=0 at time 0, or a delivered message from
  /// an agent that just decided 0. This is all of cond_0 in SO.
  [[nodiscard]] static bool cond0_test(const CommGraph& g, AgentId self,
                                       Value init, const ActionTable& known);

  /// Fills s.inferred with d(j, m) for every node in the hears-from cone of
  /// (s.self, s.time), evaluating the rule on each node's view in the
  /// calling thread's inference scratch. Exposed for tests; operator() calls
  /// it.
  void infer_actions(const FipState& s) const;

  [[nodiscard]] int t() const { return t_; }

 private:
  [[nodiscard]] static Action decide_rule(const CommGraph& g, AgentId self,
                                          Value init, bool decided, int t,
                                          const ActionTable& known,
                                          bool use_common,
                                          KnowledgeCache& cache);

  int n_;
  int t_;
  bool use_common_;
};

/// Sending omissions SO(t): an absent edge convicts its sender, so fault
/// attribution is the f operator of §A.2.7.
struct SendingOmissions {
  /// Step (a): candidates = agents outside self's f row at m; distributed =
  /// the union of the candidates' f rows at m-1 (Lemma A.20: exactly t of
  /// them is equivalent to C_N(t-faulty) holding now).
  [[nodiscard]] static FaultAttribution attribute_faults(const CommGraph& g,
                                                         AgentId self, int t,
                                                         KnowledgeCache& cache);

  /// SO's cond_0 has no clause beyond the direct one.
  [[nodiscard]] static bool forced_zero(const CommGraph&, AgentId, int,
                                        const ActionTable&, KnowledgeCache&) {
    return false;
  }

  /// cond_1: the Hall-type counting test of Prop A.7 — true iff no hidden
  /// 0-chain can reach the present round. The fault budget plays no part.
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       const ActionTable& known);
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       const ActionTable& known,
                                       KnowledgeCache& cache);
  /// The rule's model-uniform cond_1 signature.
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       int /*t*/, const ActionTable& known,
                                       KnowledgeCache& cache) {
    return cond1_test(g, self, known, cache);
  }

  /// Strategy-facing accessor (failure/strategy.hpp objectives): how much of
  /// the fault budget is still unattributed in the agent's view — t minus
  /// the number of senders its f-table convicts at (s.self, s.time). A
  /// worst-case adversary maximizes this to stay hidden from P_opt's
  /// common-knowledge tests.
  [[nodiscard]] static int evidence_ambiguity(const FipState& s, int t);
};

using POpt = OptimalRule<SendingOmissions>;

}  // namespace eba
