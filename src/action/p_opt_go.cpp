#include "action/p_opt_go.hpp"

#include <vector>

#include "graph/knowledge.hpp"

namespace eba {
namespace {

/// True iff S covers every clause of `ev` (every definite-absent edge has a
/// faulty endpoint in S).
bool covers(const OmissionEvidence& ev, AgentSet s) {
  for (AgentId a = 0; a < ev.n(); ++a)
    if (!s.contains(a) && !ev.adj(a).subset_of(s)) return false;
  return true;
}

/// Invokes fn(S) for every S with |S| <= t; stops early when fn returns
/// true. Returns whether any call did.
template <class Fn>
bool any_fault_set(int n, int t, const Fn& fn) {
  AgentSet s;
  auto rec = [&](auto&& self, AgentId next, int left) -> bool {
    if (fn(s)) return true;
    if (left == 0) return false;
    for (AgentId a = next; a < n; ++a) {
      s.insert(a);
      if (self(self, a + 1, left - 1)) return true;
      s.erase(a);
    }
    return false;
  };
  return rec(rec, 0, t);
}

}  // namespace

// ---------------------------------------------------------------------------
// cond1_test — K_i "no agent can be deciding 0 in round m+1" over GO(t).
//
// An agent could be deciding 0 in round m+1 of some consistent world iff a
// chain of fresh 0-decisions runs from an origin (an init-0 agent, or the
// longest 0-decision position `len` the observer already knows about)
// through every position len+1..m, each position m2 held by a distinct
// agent that decides 0 in round m2+1. The observer's graph pins down:
//
//   * the fault sets the world may use: exactly the <= t covers S of the
//     observer's missing-edge evidence (every other drop the world needs is
//     on edges the observer has no definite label for);
//   * which agents may hold position m2: agents not known to have decided,
//     last heard before m2 (otherwise the observer would know their round-
//     (m2+1) action — the classic extender condition);
//   * HOW an occupant can have stayed ignorant of 0 until round m2. A
//     faulty occupant (∈ S) simply receive-drops every earlier 0-broadcast.
//     A NONfaulty occupant hears everything nonfaulty agents send, so it
//     works only if every earlier 0-source is in S — and once one nonfaulty
//     agent holds/decides 0, its broadcast infects every nonfaulty agent
//     one round later. Nonfaulty occupants therefore form a single "cascade
//     window" of at most two consecutive positions (the initiator, then a
//     peer that just heard it), after which the chain must continue inside
//     S. If the observer knows a 0-decider OUTSIDE S at position q, the
//     cascade is already forced at q: the only possible nonfaulty occupant
//     sits at position q+1 (= len+1, since q <= len and a later window
//     would contradict the known decider's broadcast).
//
// Note which consistency checks are NOT coded here because the evidence
// cover already enforces them: a hidden occupant's silence toward every
// visible agent is a set of definite-absent edges (clauses), so a nonfaulty
// occupant automatically forces all late cone members — including the
// observer itself — into S. That is why a nonfaulty window before position
// m exists only for observers that are themselves possibly receive-faulty.
//
// Matching positions to occupants is a Hall-type problem with pools nested
// increasing in m2, so per (S, window) a prefix count decides feasibility.
// ---------------------------------------------------------------------------
bool GeneralOmissions::cond1_test(const CommGraph& g, AgentId self, int t,
                                  const ActionTable& known,
                                  KnowledgeCache& cache) {
  const int m = g.time();
  if (m == 0) return false;
  const int n = g.n();
  const Cone& cone = cache.cone(g, self, m);

  // Known 0-deciders per position, the longest known position, and the
  // agents with any known decision (never chain occupants).
  std::vector<AgentSet> zero_at(static_cast<std::size_t>(m));
  int len = -1;
  for (int m2 = 0; m2 < m; ++m2) {
    zero_at[static_cast<std::size_t>(m2)] =
        cone.at(m2).intersected(known.deciders0(m2));
    if (!zero_at[static_cast<std::size_t>(m2)].empty()) len = m2;
  }
  AgentSet known_decided;
  for (int m2 = 0; m2 <= m; ++m2)
    known_decided =
        known_decided.united(cone.at(m2).intersected(known.deciders(m2)));

  const OmissionEvidence& ev = cache.go_evidence_row(g, m)[
      static_cast<std::size_t>(self)];

  const int first = len + 1;  // chain positions first..m
  // undecided[j]: may occupy a position; position m2 additionally needs
  // last_heard(j) < m2.
  const AgentSet undecided = known_decided.complement(n);

  // Cumulative extender counts, split by membership in S, are recomputed
  // per S below from these buckets: bucket[k] = undecided agents with
  // last_heard = k-1.
  const auto chain_feasible = [&](AgentSet s) -> bool {
    if (!covers(ev, s)) return false;
    // q: earliest known 0-decision position outside S.
    int q = -1;
    for (int m2 = 0; m2 < m && q < 0; ++m2)
      if (!zero_at[static_cast<std::size_t>(m2)].minus(s).empty()) q = m2;

    // Per-position counts of available occupants (prefix over last_heard).
    std::vector<int> s_cnt(static_cast<std::size_t>(m) + 2, 0);
    std::vector<int> ns_cnt(static_cast<std::size_t>(m) + 2, 0);
    for (AgentId j : undecided) {
      auto& cnt = s.contains(j) ? s_cnt : ns_cnt;
      ++cnt[static_cast<std::size_t>(cone.last_heard(j)) + 1];
    }
    for (int m2 = 1; m2 <= m + 1; ++m2) {
      s_cnt[static_cast<std::size_t>(m2)] +=
          s_cnt[static_cast<std::size_t>(m2) - 1];
      ns_cnt[static_cast<std::size_t>(m2)] +=
          ns_cnt[static_cast<std::size_t>(m2) - 1];
    }
    // s_cnt[m2] now = |{o ∈ S, undecided, last_heard < m2}|; same for ns.
    const auto savail = [&](int m2) {
      return s_cnt[static_cast<std::size_t>(m2)];
    };
    const auto nsavail = [&](int m2) {
      return ns_cnt[static_cast<std::size_t>(m2)];
    };

    // Candidate nonfaulty-cascade windows: lists of positions held by
    // occupants outside S.
    std::vector<std::pair<int, int>> windows;  // [lo, hi] inclusive; lo>hi = none
    windows.emplace_back(1, 0);                // no window
    if (q >= 0) {
      // Forced cascade at q: the only possible non-S occupant is at q+1.
      if (q + 1 >= first) windows.emplace_back(q + 1, q + 1);
    } else {
      for (int p = first; p <= m; ++p) windows.emplace_back(p, p);
      for (int p = first; p < m; ++p) windows.emplace_back(p, p + 1);
    }

    for (const auto& [lo, hi] : windows) {
      if (lo <= hi) {
        // Need hi-lo+1 distinct non-S occupants, nested pools.
        bool ok = true;
        for (int p = lo; p <= hi; ++p)
          if (nsavail(p) < p - lo + 1) ok = false;
        if (!ok) continue;
      }
      // Remaining positions take distinct S occupants (Hall prefix check).
      bool ok = true;
      int needed = 0;
      for (int m2 = first; m2 <= m && ok; ++m2) {
        if (m2 >= lo && m2 <= hi) continue;
        ++needed;
        if (savail(m2) < needed) ok = false;
      }
      if (ok) return true;
    }
    return false;
  };

  // K_i(no deciding 0) fails iff SOME consistent fault set admits a chain.
  return !any_fault_set(n, t, chain_feasible);
}

FaultAttribution GeneralOmissions::attribute_faults(const CommGraph& g,
                                                    AgentId self, int t,
                                                    KnowledgeCache& cache) {
  const int m = g.time();
  const AgentSet f_self = go_known_faults(
      cache.go_evidence_row(g, m)[static_cast<std::size_t>(self)], t);
  const AgentSet candidates = f_self.complement(g.n());
  const auto ev_prev = cache.go_evidence_row(g, m - 1);
  OmissionEvidence pooled(g.n());
  for (AgentId j : candidates)
    pooled.unite(ev_prev[static_cast<std::size_t>(j)]);
  return {candidates, go_known_faults(pooled, t)};
}

// ---------------------------------------------------------------------------
// forced_zero — the GO-only clause of init=0 ∨ K_i(∨_j jdecided_j = 0).
//
// The rule's direct clause (a delivered round-m message from a sender whose
// round-m action is an inferred decide(0)) is shared with SO. GO adds an
// indirect clause. Suppose the observer's evidence leaves some agents in NO
// <= t cover — they are provably nonfaulty in every consistent world
// (typically because the observer has proven itself receive-faulty and
// exhausted the budget). Nonfaulty pairs exchange reliably, so a known
// 0-decision by a provably-nonfaulty y in round m-1 (position m-2) reached
// every provably-nonfaulty z in that round; a z known to be still undecided
// through round m-1 (its actions through time m-2 are inferred noops)
// therefore decides 0 in round m — in EVERY consistent world — even though
// the observer saw neither the broadcast nor the decision. Earlier known
// 0-decisions by provably-nonfaulty agents need no clause: a real run can
// never show a provably-nonfaulty agent still undecided two rounds after
// one (the cascade would already have reached it visibly).
// ---------------------------------------------------------------------------
bool GeneralOmissions::forced_zero(const CommGraph& g, AgentId self, int t,
                                   const ActionTable& known,
                                   KnowledgeCache& cache) {
  const int m = g.time();
  if (m < 2) return false;

  const OmissionEvidence& ev = cache.go_evidence_row(g, m)[
      static_cast<std::size_t>(self)];
  const AgentSet known_nonfaulty =
      go_possibly_faulty(ev, t).complement(g.n());
  if (known_nonfaulty.empty()) return false;

  const Cone& cone = cache.cone(g, self, m);
  if (cone.at(m - 2)
          .intersected(known.deciders0(m - 2))
          .intersected(known_nonfaulty)
          .empty())
    return false;
  for (AgentId z : known_nonfaulty) {
    if (z == self) continue;
    if (cone.last_heard(z) >= m - 2 && !known.decided_by(z, m - 2))
      return true;
  }
  return false;
}

int GeneralOmissions::evidence_ambiguity(const FipState& s, int t) {
  const OmissionEvidence e = go_evidence(s.graph(), s.self, s.time);
  return go_possibly_faulty(e, t).minus(go_known_faults(e, t)).size();
}

}  // namespace eba
