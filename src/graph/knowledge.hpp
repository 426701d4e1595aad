// Knowledge operators over communication graphs (paper §A.2.7):
//
//   cone         — the hears-from cone of a node (Def. A.1)
//   extract_view — G_{j,m'}: the graph agent j had at time m', reconstructed
//                  from the graph of an agent that heard from (j, m')
//   known_faults — f(j, m', G): faulty agents the graph owner knows that j
//                  knew about at time m' (sending-omissions attribution: an
//                  absent edge convicts its sender)
//   distributed_faults — D(S, m', G)
//   known_values — V(j, m', G): initial values the owner knows j knew
//   last_heard   — last_{ij}: the last time m' with (j, m') in the cone
//
// plus the general-omissions fault machinery: under GO an absent edge
// (i → j) only proves "i or j is faulty", so fault knowledge is clause
// (vertex-cover) reasoning instead of direct sender blame:
//
//   OmissionEvidence   — the symmetric missing-edge clause set an agent has
//                        accumulated (one clause {sender, receiver} per
//                        definite-absent edge it knows of)
//   go_evidence / go_evidence_rows — the GO analogue of the f recurrence:
//                        the clause set the owner knows j had at time m'
//   go_cover_exists    — is the evidence explainable by <= budget faults
//                        avoiding a given agent set?
//   go_known_faults    — agents in *every* <= t cover of the evidence (the
//                        faults an agent provably knows under GO(t))
//
// All of these are polynomial-time in the size of the graph for fixed t
// (the cover search branches two ways per spent budget unit, so it costs
// O(2^t · n) word operations per query); they are the machinery behind the
// polynomial-time protocols P_opt (Prop. 7.9) and its GO variant. They
// consume the graph's packed receiver rows word-parallel: a cone frontier
// step is one OR per frontier member and a fault-row or evidence-row update
// one OR per definite-absent row.
//
// KnowledgeCache memoizes cones, the fault table and the GO evidence table
// per graph *revision*, so the P_opt tests — which interrogate the same
// graph several times per decision — derive its knowledge once.
//
// Every derived object has an in-place form (Cone::rebuild,
// extract_view_into, a cache that keeps its storage across revisions), so a
// caller that visits many nodes — P_opt's view inference — reuses one set
// of buffers instead of allocating per node.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"

namespace eba {

/// The hears-from cone of (target, m_top): cone.at(m') is the set of agents j
/// with (j, m') ->_r (target, m_top), where the relation follows label-1
/// edges forward in time. Contains (target, m_top) itself.
///
/// Built by backward frontier propagation: the frontier at time m'-1 is the
/// union of the present-sender rows of the frontier members at m', one word
/// OR per member. last_{ij} is precomputed for all j during construction.
class Cone {
 public:
  /// An empty cone, to be filled by rebuild().
  Cone() = default;
  Cone(const CommGraph& g, AgentId target, int m_top);

  /// Recomputes this cone as Cone(g, target, m_top), reusing its storage:
  /// no allocation once the buffers have held a cone at least this tall
  /// over at least as many agents.
  void rebuild(const CommGraph& g, AgentId target, int m_top);

  [[nodiscard]] bool contains(AgentId j, int m) const {
    return m >= 0 && m <= m_top_ && members_[static_cast<std::size_t>(m)].contains(j);
  }
  [[nodiscard]] AgentSet at(int m) const {
    EBA_REQUIRE(m >= 0 && m <= m_top_, "time out of range");
    return members_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] int top() const { return m_top_; }

  /// last_{ij}: the greatest m with (j, m) in the cone, or -1 if j was never
  /// heard from. O(1): precomputed during construction.
  [[nodiscard]] int last_heard(AgentId j) const {
    EBA_REQUIRE(j >= 0 && static_cast<std::size_t>(j) < last_heard_.size(),
                "agent id out of range");
    return last_heard_[static_cast<std::size_t>(j)];
  }

 private:
  int m_top_ = -1;
  std::vector<AgentSet> members_;  ///< by time 0..m_top
  std::vector<int> last_heard_;    ///< by agent, -1 if absent everywhere
};

/// Symmetric missing-edge evidence under general omissions: one clause
/// {a, b} per definite-absent edge (a → b) the evidence holder knows of,
/// stored as an adjacency mask per agent (adj(a) contains b iff some clause
/// pairs them). The round of the missing edge is deliberately dropped: a
/// fault set explains the evidence iff it covers every clause, regardless
/// of when the drop happened.
class OmissionEvidence {
 public:
  OmissionEvidence() = default;
  explicit OmissionEvidence(int n)
      : adj_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] int n() const { return static_cast<int>(adj_.size()); }
  /// Empties the clause set over n agents, reusing the adjacency storage.
  void reset(int n) { adj_.assign(static_cast<std::size_t>(n), AgentSet{}); }
  [[nodiscard]] AgentSet adj(AgentId a) const {
    return adj_[static_cast<std::size_t>(a)];
  }
  /// Agents appearing in at least one clause.
  [[nodiscard]] AgentSet implicated() const {
    AgentSet out;
    for (AgentId a = 0; a < n(); ++a)
      if (!adj_[static_cast<std::size_t>(a)].empty()) out.insert(a);
    return out;
  }
  [[nodiscard]] bool empty() const { return implicated().empty(); }

  void add(AgentId a, AgentId b) {
    adj_[static_cast<std::size_t>(a)].insert(b);
    adj_[static_cast<std::size_t>(b)].insert(a);
  }
  /// Adds the clause {s, receiver} for every s in `senders`.
  void add_senders(AgentSet senders, AgentId receiver) {
    adj_[static_cast<std::size_t>(receiver)] =
        adj_[static_cast<std::size_t>(receiver)].united(senders);
    for (AgentId s : senders) adj_[static_cast<std::size_t>(s)].insert(receiver);
  }
  void unite(const OmissionEvidence& o) {
    for (std::size_t a = 0; a < adj_.size(); ++a)
      adj_[a] = adj_[a].united(o.adj_[a]);
  }

  friend bool operator==(const OmissionEvidence&,
                         const OmissionEvidence&) = default;

 private:
  std::vector<AgentSet> adj_;
};

/// True iff some fault set S with |S| <= budget and S ∩ avoid = ∅ covers
/// every clause of `e` (every missing edge has an endpoint in S). Branches
/// two ways per budget unit: O(2^budget · n) word operations.
[[nodiscard]] bool go_cover_exists(const OmissionEvidence& e, int budget,
                                   AgentSet avoid);

/// The agents contained in EVERY fault set of size <= t that covers `e` —
/// exactly the agents the evidence holder knows to be faulty under GO(t).
/// Precondition: some <= t cover exists (true for evidence drawn from any
/// run of a GO(t) pattern); violating it throws.
[[nodiscard]] AgentSet go_known_faults(const OmissionEvidence& e, int t);

/// The agents contained in SOME fault set of size <= t that covers `e`.
/// The complement is the set of agents the evidence holder knows to be
/// NONFAULTY — nonempty only once the evidence pins faults down (with
/// slack in the budget, any agent might be an additional silent fault).
[[nodiscard]] AgentSet go_possibly_faulty(const OmissionEvidence& e, int t);

/// The GO analogue of the f recurrence: the clause set the owner of g knows
/// agent j had at time m. go_evidence(g, j, 0) is empty; for m > 0 it is
/// the union of j's definite-absent round-m clauses, the evidence of the
/// senders whose round-m messages to j are known delivered, and
/// go_evidence(g, j, m-1). Computes rows 0..m only.
[[nodiscard]] OmissionEvidence go_evidence(const CommGraph& g, AgentId j,
                                           int m);

/// The full evidence table: entry [m][j] = go_evidence(g, j, m).
[[nodiscard]] std::vector<std::vector<OmissionEvidence>> go_evidence_table(
    const CommGraph& g);

/// Revision-keyed memo of the derived knowledge of ONE graph: the f table,
/// the GO evidence table and the cones already requested. Methods take the
/// graph so the cache can detect staleness via CommGraph::revision() and
/// rebuild lazily. A cache serves one graph at a time: P_opt keeps two per
/// thread (action/p_opt.cpp), one for the agent's own graph, invalidated on
/// entry to every call, and one bound to the reconstructed view.
///
/// Storage survives a revision: a stale cache is invalidated in O(1) — no
/// entry is freed — and the next query refills the f table, the evidence
/// table and its cones in place. A cache bound to one graph that is
/// rebuilt over and over (P_opt's per-thread view scratch, which keeps one
/// address and a strictly increasing revision across resets) therefore
/// stops allocating once its buffers fit the largest graph it has seen.
///
/// A fresh cache costs no more than the tables and cones actually asked
/// for: nothing is pre-sized per (agent, time). Cones sit in a short list
/// searched linearly, one heap slot each so a returned reference survives
/// later cone() calls; the rules consult one cone per graph revision.
///
/// Neither copyable nor movable: a cache is scratch next to its graph,
/// never part of a value.
class KnowledgeCache {
 public:
  KnowledgeCache() = default;
  KnowledgeCache(const KnowledgeCache&) = delete;
  KnowledgeCache& operator=(const KnowledgeCache&) = delete;

  /// Forgets every entry, keeping the storage: the next query recomputes
  /// whatever graph it is handed, even one at the address and revision of
  /// the last (a state copy-assigned in place).
  void invalidate() {
    graph_ = nullptr;
    have_faults_ = false;
    have_go_evidence_ = false;
    ++epoch_;
  }

  /// Row m of the f table of `g` (entry [j] = f(j, m, g)). The whole table
  /// is computed at most once per graph revision, flat in one allocation.
  [[nodiscard]] std::span<const AgentSet> fault_row(const CommGraph& g, int m);

  /// Row m of the GO evidence table of `g` (entry [j] = go_evidence(g, j,
  /// m)). Like fault_row, the whole table is computed at most once per
  /// graph revision.
  [[nodiscard]] std::span<const OmissionEvidence> go_evidence_row(
      const CommGraph& g, int m);

  /// The cone of (target, m_top) in `g`, memoized per (target, m_top) until
  /// the graph changes. Worth it only for cones consulted repeatedly (the
  /// P_opt tests all interrogate (self, time)); one-shot cones are cheaper
  /// built directly.
  [[nodiscard]] const Cone& cone(const CommGraph& g, AgentId target, int m_top);

 private:
  struct ConeSlot {
    std::uint64_t epoch = 0;  ///< the sync epoch it was built in
    AgentId target = 0;
    int m_top = 0;
    Cone cone;
  };

  /// invalidate() unless `g` is the graph and revision of the last sync.
  void sync(const CommGraph& g);

  /// Graph identity + revision at the last sync. The address is only ever
  /// compared, never dereferenced, so a cache outliving its graph is safe
  /// (it just invalidates). Distinct graphs routinely share revision values
  /// (agents mutate in lockstep), so the address check is what catches a
  /// cache handed a different graph than the one it memoized.
  const CommGraph* graph_ = nullptr;
  std::uint64_t revision_ = 0;
  bool have_faults_ = false;
  std::vector<AgentSet> faults_;  ///< (time+1) rows of n, row-major
  bool have_go_evidence_ = false;
  /// (time+1) rows of n, row-major. Never shrinks: entries past the current
  /// table keep their adjacency storage for a taller graph later.
  std::vector<OmissionEvidence> go_evidence_;
  /// Cones built since the last invalidation carry the current epoch_;
  /// the other slots are storage from earlier revisions, rebuilt in place
  /// on demand. epoch_ rises with every invalidating sync.
  std::vector<std::unique_ptr<ConeSlot>> cones_;
  std::uint64_t epoch_ = 0;
};

/// Reconstructs G_{j,m'} from `g`. Precondition: (j, m') is in the cone of
/// g's owner (i.e. `owner_cone.contains(j, m')`), so every edge into the
/// extracted cone carries a definite label in `g`.
[[nodiscard]] CommGraph extract_view(const CommGraph& g, AgentId j, int m);
/// In-place form: overwrites `out` (reset_blank, so its storage and address
/// are reused and its revision increases) with G_{j,m'}, where `cone` is the
/// cone of (j, m') in `g`. `out` must not be `g`.
void extract_view_into(CommGraph& out, const CommGraph& g, const Cone& cone);

/// f(j, m, g): the faulty agents the owner of g knows that j knew about at
/// time m (paper §7). f(j, 0, g) is empty; for m > 0 it is the union of the
/// senders whose round-m messages to j are known omitted, the knowledge of
/// the senders whose round-m messages to j are known delivered, and
/// f(j, m-1, g). Computes only rows 0..m, not the full table.
[[nodiscard]] AgentSet known_faults(const CommGraph& g, AgentId j, int m);

/// The full f table: entry [m][j] = f(j, m, g), for m in 0..g.time().
[[nodiscard]] std::vector<std::vector<AgentSet>> known_faults_table(
    const CommGraph& g);

/// D(S, m, g) = union over k in S of f(k, m, g). Computes rows 0..m only.
[[nodiscard]] AgentSet distributed_faults(const CommGraph& g, AgentSet s, int m);

/// The time-0 level of the cone of (j, m): the agents whose initial values
/// reached (j, m). A plain backward frontier walk — no cone object, no
/// allocations — for callers that only need the roots (known_values).
[[nodiscard]] AgentSet cone_roots(const CommGraph& g, AgentId j, int m);

/// A subset of the preference values {0, 1}, as a two-bit mask.
class ValueSet {
 public:
  constexpr ValueSet() = default;
  constexpr ValueSet(std::initializer_list<Value> values) {
    for (Value v : values) insert(v);
  }
  [[nodiscard]] constexpr bool contains(Value v) const {
    return (bits_ & bit(v)) != 0;
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }
  constexpr void insert(Value v) { bits_ |= bit(v); }

  friend constexpr bool operator==(ValueSet, ValueSet) = default;

 private:
  [[nodiscard]] static constexpr std::uint8_t bit(Value v) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(v));
  }
  std::uint8_t bits_ = 0;
};

/// V(j, m, g): the set of initial values the owner knows j knew at time m.
/// Per the paper this is empty unless (j, m) is in the owner's cone; the
/// caller supplies the owner's cone to enforce that.
[[nodiscard]] ValueSet known_values(const CommGraph& g, AgentId j, int m,
                                    const Cone& owner_cone);

}  // namespace eba
