// Run relabeling under agent renamings: the simulate-once-relabel-everywhere
// engine behind orbit-level run reuse.
//
// Protocol equivariance (failure/canonical.hpp's symmetry argument, checked
// mechanically in tests/test_canonical.cpp and tests/test_relabel.cpp) says
// run(π·α, π·prefs) makes agent π(i) do exactly what agent i does in
// run(α, prefs). This file computes that relabeled run *directly* — permuting
// the record's per-agent columns, each AgentSet by a mask move, and each
// CommGraph plane word-parallel via CommGraph::relabeled — instead of
// re-simulating the member pattern. Relabeling costs O(rounds · n) word
// operations per run versus a full exchange/deliver/update simulation, which
// is what makes exhaustive verification reach n=7–8 (see kripke/system.hpp
// and bench/bench_scale.cpp; the outputs are pinned bit-identical to
// re-simulation there).
//
// Two renaming facts consumers rely on:
//   * relabel_run(run(α, p), π) == run(π·α, π·p)   (equivariance), and
//   * for σ in the stabilizer of α, π·α == α, so one simulation per
//     (orbit × preference class) covers the whole context
//     (failure/canonical.hpp's PreferenceQuotient).
#pragma once

#include <vector>

#include "core/renaming.hpp"
#include "core/types.hpp"
#include "exchange/basic.hpp"
#include "exchange/exchange.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "exchange/relay.hpp"
#include "sim/simulator.hpp"

namespace eba {

/// π·prefs: agent π(i) starts with agent i's preference.
[[nodiscard]] inline std::vector<Value> relabel_prefs(
    const std::vector<Value>& prefs, const std::vector<AgentId>& perm) {
  EBA_REQUIRE(perm.size() == prefs.size(), "permutation size mismatch");
  std::vector<Value> out(prefs.size(), Value::zero);
  for (std::size_t i = 0; i < prefs.size(); ++i)
    out[static_cast<std::size_t>(perm[i])] = prefs[i];
  return out;
}

/// The protocol-agnostic record under the renaming: every per-agent column
/// moves from i to π(i) and every AgentSet field is permuted as a mask.
[[nodiscard]] inline RunRecord relabel_record(const RunRecord& rec,
                                              const Renaming& ren) {
  EBA_REQUIRE(static_cast<int>(ren.size()) == rec.n,
              "permutation size mismatch");
  RunRecord out;
  out.n = rec.n;
  out.t = rec.t;
  out.rounds = rec.rounds;
  out.inits.resize(rec.inits.size(), Value::zero);
  for (std::size_t i = 0; i < rec.inits.size(); ++i)
    out.inits[static_cast<std::size_t>(ren[i])] = rec.inits[i];
  out.nonfaulty = ren.map(rec.nonfaulty);
  out.actions.resize(rec.actions.size());
  out.sent.resize(rec.sent.size());
  out.delivered.resize(rec.delivered.size());
  for (std::size_t m = 0; m < rec.actions.size(); ++m) {
    out.actions[m].resize(rec.actions[m].size());
    out.sent[m].resize(rec.sent[m].size());
    out.delivered[m].resize(rec.delivered[m].size());
    for (std::size_t i = 0; i < rec.actions[m].size(); ++i) {
      const auto pi = static_cast<std::size_t>(ren[i]);
      out.actions[m][pi] = rec.actions[m][i];
      out.sent[m][pi] = ren.map(rec.sent[m][i]);
      out.delivered[m][pi] = ren.map(rec.delivered[m][i]);
    }
  }
  return out;
}

[[nodiscard]] inline RunRecord relabel_record(
    const RunRecord& rec, const std::vector<AgentId>& perm) {
  return relabel_record(rec, Renaming(perm));
}

// relabel_state: what agent π(i)'s local state looks like in the relabeled
// run, given agent i's state in the original. E_min / E_basic / E_relay
// states carry no agent ids or id-indexed content, so they move verbatim;
// the FIP state permutes its communication graph and self id (derived
// caches restart empty — they are excluded from state equality and refill
// lazily on first use).

[[nodiscard]] inline MinState relabel_state(const MinState& s,
                                            const Renaming&) {
  return s;
}

[[nodiscard]] inline BasicState relabel_state(const BasicState& s,
                                              const Renaming&) {
  return s;
}

[[nodiscard]] inline RelayState relabel_state(const RelayState& s,
                                              const Renaming&) {
  return s;
}

[[nodiscard]] inline FipState relabel_state(const FipState& s,
                                            const Renaming& ren) {
  FipState out(s.time, ren[static_cast<std::size_t>(s.self)], s.init,
               s.graph().relabeled(ren));
  out.decided = s.decided;
  return out;
}

/// The whole materialized run under a precompiled renaming. Bit/message
/// totals are renaming-invariant and copy through. The Renaming overload is
/// the hot path: add_all_runs compiles each orbit member's renaming once
/// and reuses it for every preference mask.
template <ExchangeProtocol X>
[[nodiscard]] Run<X> relabel_run(const Run<X>& run, const Renaming& ren) {
  const std::vector<AgentId>& inv = ren.inverse();
  Run<X> out;
  out.record = relabel_record(run.record, ren);
  out.bits_sent = run.bits_sent;
  out.messages_sent = run.messages_sent;
  out.states.reserve(run.states.size());
  for (const auto& row : run.states) {
    std::vector<typename X::State> orow;
    orow.reserve(row.size());
    // Fill in destination order (states need not be default-constructible):
    // slot j holds the relabeling of agent π⁻¹(j)'s state.
    for (std::size_t j = 0; j < row.size(); ++j)
      orow.push_back(
          relabel_state(row[static_cast<std::size_t>(inv[j])], ren));
    out.states.push_back(std::move(orow));
  }
  return out;
}

template <ExchangeProtocol X>
[[nodiscard]] Run<X> relabel_run(const Run<X>& run,
                                 const std::vector<AgentId>& perm) {
  return relabel_run(run, Renaming(perm));
}

}  // namespace eba
