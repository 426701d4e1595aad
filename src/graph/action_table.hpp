// Inferred-action table d(j, m, G) (paper §A.2.7).
//
// In a full-information exchange, an agent that hears from (j, m) can
// reconstruct j's local state at time m and — because the action protocol is
// deterministic — re-derive j's action in round m+1. This table caches those
// inferences: entry (j, m) is the action j performs in round m+1, or
// `unknown` if it has not been inferred. Lookups must be gated by
// reachability in the graph being evaluated (d(j, m, G) = ? when (j, m) is
// not in G's cone); see POpt.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace eba {

enum class KnownAction : std::uint8_t { unknown = 0, noop, decide0, decide1 };

[[nodiscard]] constexpr KnownAction to_known(const Action& a) {
  if (!a.is_decide()) return KnownAction::noop;
  return a.value() == Value::zero ? KnownAction::decide0 : KnownAction::decide1;
}

class ActionTable {
 public:
  /// Grows the table to cover agents 0..n-1 and times 0..time. The agent
  /// count is fixed by the first call; storage is one three-mask slab per
  /// time, so growth appends slabs and a state snapshot copies one flat
  /// vector.
  void ensure(int n, int time) {
    EBA_REQUIRE(n_ == 0 || n_ == n, "action table agent count changed");
    n_ = n;
    if (static_cast<int>(slabs_.size()) <= time) {
      // Most runs decide by time 3, so four slabs up front mean one growth.
      if (slabs_.capacity() == 0) slabs_.reserve(4);
      slabs_.resize(static_cast<std::size_t>(time) + 1);
    }
  }

  [[nodiscard]] KnownAction get(AgentId j, int m) const {
    const Slab& s = slab(m);
    if (!s.known.contains(j)) return KnownAction::unknown;
    if (s.decide0.contains(j)) return KnownAction::decide0;
    if (s.decide1.contains(j)) return KnownAction::decide1;
    return KnownAction::noop;
  }

  void set(AgentId j, int m, KnownAction a) {
    EBA_REQUIRE(j >= 0 && j < n_ && m >= 0 &&
                    static_cast<std::size_t>(m) < slabs_.size(),
                "action table index out of range");
    Slab& s = slabs_[static_cast<std::size_t>(m)];
    s.known.erase(j);
    s.decide0.erase(j);
    s.decide1.erase(j);
    if (a != KnownAction::unknown) s.known.insert(j);
    if (a == KnownAction::decide0) s.decide0.insert(j);
    if (a == KnownAction::decide1) s.decide1.insert(j);
  }

  /// Agents with an inferred decide(0) / decide(1) entry at time m, as a
  /// mask — lets the P_opt tests intersect whole rounds against cone levels
  /// instead of probing (j, m) pairs one by one. Out-of-range m is empty.
  [[nodiscard]] AgentSet deciders0(int m) const { return slab(m).decide0; }
  [[nodiscard]] AgentSet deciders1(int m) const { return slab(m).decide1; }
  [[nodiscard]] AgentSet deciders(int m) const {
    return deciders0(m).united(deciders1(m));
  }

  /// True iff j is known to have performed a decision in some round <= m+1
  /// (i.e. an inferred decide action at a time <= m). m may be -1.
  [[nodiscard]] bool decided_by(AgentId j, int m) const {
    for (int m2 = 0; m2 <= m; ++m2)
      if (deciders(m2).contains(j)) return true;
    return false;
  }

 private:
  /// The entries at one time: j's entry is unknown unless j ∈ known, and
  /// decide0, decide1 ⊆ known are disjoint (the rest of known is noop).
  struct Slab {
    AgentSet known;
    AgentSet decide0;
    AgentSet decide1;
  };

  /// The slab at time m, or an empty one past either end.
  [[nodiscard]] const Slab& slab(int m) const {
    static constexpr Slab kEmpty{};
    return m >= 0 && static_cast<std::size_t>(m) < slabs_.size()
               ? slabs_[static_cast<std::size_t>(m)]
               : kEmpty;
  }

  int n_ = 0;
  std::vector<Slab> slabs_;  ///< by time
};

}  // namespace eba
