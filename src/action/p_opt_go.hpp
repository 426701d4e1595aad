// P_opt_go: P1 over the full-information exchange in the general-omissions
// context γ_go(n, t) — the rule of p_opt.hpp with the GeneralOmissions
// policy. What changes under general omissions is how the knowledge tests
// are *implemented* on the agent's communication graph, because an absent
// edge no longer convicts its sender:
//
//   * fault attribution is clause reasoning: each definite-absent edge
//     (a → b) contributes the clause "a faulty ∨ b faulty", the consistent
//     fault sets are exactly the <= t vertex covers of the clause set, and
//     an agent *knows* x is faulty iff x lies in every such cover
//     (graph/knowledge.hpp: OmissionEvidence, go_known_faults). In
//     particular an agent can come to know that it is itself faulty (a
//     receive-omitter that misses more senders than the budget explains);
//   * step (a) of the common test pools the candidates' clause evidence
//     instead of unioning per-agent fault sets: C_N(t-faulty) holds one
//     round after the possibly-nonfaulty agents' pooled evidence *forces*
//     exactly t faults (the GO analogue of Lemma A.20 — nonfaulty agents
//     still exchange reliably among themselves, since neither endpoint of a
//     nonfaulty pair may drop);
//   * cond_0 gains a budget-forced cascade clause (forced_zero);
//   * the decide-1 test must range over the *larger* GO world set: a hidden
//     0-chain may be sustained by receive-faulty agents, and conversely the
//     t budget prunes chains that sending-omissions reasoning would admit
//     (every hidden chain occupant needs its ignorance paid for by some
//     fault). cond1_test enumerates the consistent fault sets (the <= t
//     covers of the agent's own evidence) and asks, per fault set, whether
//     a hidden chain assignment exists — a Hall-type counting refined with
//     a "nonfaulty cascade window" (see p_opt_go.cpp for the derivation).
//
// tests/test_go.cpp verifies against the semantic machinery that P_opt_go
// implements P1 in γ_go on exhaustively enumerated small contexts, that the
// synthesizer-derived decisions match, and that the EBA spec holds over all
// canonical GO orbits at n = 4 (t = 1, 2).
#pragma once

#include "action/p_opt.hpp"

namespace eba {

/// General omissions GO(t): an absent edge is a "sender or receiver faulty"
/// clause, and the known faults are the agents in every <= t cover.
struct GeneralOmissions {
  /// Step (a): candidates = agents outside every <= t cover of self's own
  /// evidence at m; distributed = the agents in every <= t cover of the
  /// candidates' pooled evidence at m-1. The pooled evidence is a subset of
  /// the observer's own, so when it forces t agents the observer's candidate
  /// set equals the true nonfaulty set in every consistent world, every
  /// contributor is provably nonfaulty, and the t-fault fact was distributed
  /// knowledge of N at m-1 and hence common knowledge at m.
  [[nodiscard]] static FaultAttribution attribute_faults(const CommGraph& g,
                                                         AgentId self, int t,
                                                         KnowledgeCache& cache);

  /// cond_0's GO-only clause, K_i(some agent decided 0 in round time) by a
  /// budget-forced cascade: once the observer's evidence proves agents y
  /// and z NONfaulty (they lie in no <= t cover — e.g. because the observer
  /// has proven ITSELF receive-faulty), a known 0-decision by y at time m-2
  /// forces the undecided z to have heard it and decided 0 in round m, even
  /// though the observer saw neither the broadcast nor z's decision.
  [[nodiscard]] static bool forced_zero(const CommGraph& g, AgentId self,
                                        int t, const ActionTable& known,
                                        KnowledgeCache& cache);

  /// cond_1: K_i "no agent can be deciding 0 in round time+1" over the
  /// GO(t) worlds consistent with g.
  [[nodiscard]] static bool cond1_test(const CommGraph& g, AgentId self,
                                       int t, const ActionTable& known,
                                       KnowledgeCache& cache);

  /// Strategy-facing accessor (failure/strategy.hpp objectives): agents
  /// whose fault status the agent's clause evidence leaves open at (s.self,
  /// s.time) — possibly faulty but not in every <= t cover. A worst-case GO
  /// adversary maximizes this unresolved set.
  [[nodiscard]] static int evidence_ambiguity(const FipState& s, int t);
};

using POptGo = OptimalRule<GeneralOmissions>;

}  // namespace eba
