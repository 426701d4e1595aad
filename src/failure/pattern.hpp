// Failure patterns (adversaries) and the two omission failure models of the
// paper (§3): sending omissions SO(t) and general omissions GO(t).
//
// A failure pattern is a pair (N, F): the set of nonfaulty agents and a map
// F(m, i, j) saying whether the message from i to j in round m+1 is
// delivered. The pattern stores the map in two planes with the same chunked
// per-round word layout:
//
//   * the send plane  — drops_[m][from] = receivers whose round-(m+1)
//     message from `from` is dropped *by the sender*; only faulty senders
//     may appear (SO semantics);
//   * the receive plane — recv_drops_[m][to] = senders whose round-(m+1)
//     message to `to` is dropped *by the receiver*; only faulty receivers
//     may appear (the extra power of GO). A receive-dropped message is lost
//     even when the sender is nonfaulty.
//
// A message is delivered iff neither plane drops it. In SO(t) the receive
// plane is empty and at most t agents are faulty; in GO(t) both planes are
// in play. Self-delivery always succeeds in both models (see DESIGN.md).
//
// Drops are stored explicitly for a finite prefix of rounds; beyond the
// stored prefix every message is delivered. This is without loss of
// generality for the protocols in this library, which all decide by round
// t+2.
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"

namespace eba {

/// The paper's two omission failure models. `sending` = SO(t): only faulty
/// senders lose messages. `general` = GO(t): faulty agents may omit both to
/// send and to receive.
enum class FailureModel : std::uint8_t { sending = 0, general = 1 };

class FailurePattern {
 public:
  /// Pattern with the given nonfaulty set and no drops yet.
  FailurePattern(int n, AgentSet nonfaulty);

  [[nodiscard]] static FailurePattern failure_free(int n) {
    return FailurePattern(n, AgentSet::all(n));
  }

  /// Marks the round-(m+1) message from `from` to `to` as omitted by the
  /// sender. Preconditions: `from` is faulty and `from != to`.
  void drop(int m, AgentId from, AgentId to);

  /// Marks the round-(m+1) message from `from` to `to` as omitted by the
  /// receiver (a general-omission receive fault). Preconditions: `to` is
  /// faulty and `from != to`. The sender may be nonfaulty: the message is
  /// lost regardless.
  void drop_receive(int m, AgentId from, AgentId to);

  /// Drops every message from `from` to every other agent in round m+1.
  void silence(int m, AgentId from);

  /// Drops every message from `from` in rounds 1..rounds.
  void silence_forever(AgentId from, int rounds);

  /// Receive-drops every round-(m+1) message addressed to `to` (a deaf
  /// round of a receive-faulty agent).
  void deafen(int m, AgentId to);

  /// Receive-drops every message to `to` in rounds 1..rounds.
  void deafen_forever(AgentId to, int rounds);

  /// True iff the round-(m+1) message from `from` to `to` survives both
  /// planes.
  [[nodiscard]] bool delivered(int m, AgentId from, AgentId to) const;

  /// Receivers (other than `from` itself) whose round-(m+1) message from
  /// `from` is dropped on the send side.
  [[nodiscard]] AgentSet dropped(int m, AgentId from) const;

  /// Senders (other than `to` itself) whose round-(m+1) message to `to` is
  /// dropped on the receive side.
  [[nodiscard]] AgentSet dropped_receive(int m, AgentId to) const;

  /// delivered() over whole masks for one round of broadcasts, in which
  /// every agent in `senders` addresses every agent. Fills, for all n
  /// agents:
  ///   received[to]    = {from ∈ senders : delivered(m, from, to)} — a
  ///                     sender always receives itself;
  ///   delivered[from] = {to ≠ from : delivered(m, from, to)} for
  ///                     from ∈ senders, empty otherwise.
  /// Costs O(n + drops recorded at m) instead of n² delivered() calls. The
  /// one broadcast filter: the bus (net/bus.hpp), the stepper
  /// (sim/stepper.hpp) and the KBP synthesizer (kripke/synthesis.hpp) all
  /// filter broadcasts through it.
  void filter_broadcast(int m, AgentSet senders, std::span<AgentSet> received,
                        std::span<AgentSet> delivered) const;

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] AgentSet nonfaulty() const { return nonfaulty_; }
  [[nodiscard]] AgentSet faulty() const { return nonfaulty_.complement(n_); }
  [[nodiscard]] int num_faulty() const { return faulty().size(); }
  [[nodiscard]] bool is_nonfaulty(AgentId i) const {
    return nonfaulty_.contains(i);
  }
  /// Number of round slots with recorded send drops.
  [[nodiscard]] int recorded_rounds() const {
    return static_cast<int>(drops_.size());
  }
  /// Number of round slots with recorded receive drops.
  [[nodiscard]] int recorded_receive_rounds() const {
    return static_cast<int>(recv_drops_.size());
  }
  /// True iff the receive plane carries at least one drop. An empty receive
  /// plane makes a GO pattern behave bit-identically to the SO pattern with
  /// the same send plane (tests/test_go.cpp pins this).
  [[nodiscard]] bool has_receive_drops() const;

  /// True iff the pattern is in SO(t): at most t faulty agents and an empty
  /// receive plane (send drops from nonfaulty senders are prevented by
  /// construction).
  [[nodiscard]] bool in_so(int t) const {
    return num_faulty() <= t && !has_receive_drops();
  }

  /// True iff the pattern is in GO(t): at most t faulty agents. Plane
  /// validity — send drops only from faulty senders, receive drops only at
  /// faulty receivers — is enforced by construction, so the budget is the
  /// only residual condition. SO(t) ⊆ GO(t).
  [[nodiscard]] bool go_valid(int t) const { return num_faulty() <= t; }
  [[nodiscard]] bool in_go(int t) const { return go_valid(t); }

  /// True iff the pattern additionally satisfies the crash condition: once a
  /// message from i to some agent is dropped in round m+1, every message
  /// from i in all later recorded rounds is dropped. (A send-plane notion;
  /// receive drops are ignored.)
  [[nodiscard]] bool is_crash() const;

  friend bool operator==(const FailurePattern&, const FailurePattern&) = default;

 private:
  void ensure_round(int m);
  void ensure_receive_round(int m);

  int n_;
  AgentSet nonfaulty_;
  /// drops_[m][from] = receivers dropped by sender `from` in round m+1.
  std::vector<std::vector<AgentSet>> drops_;
  /// recv_drops_[m][to] = senders dropped by receiver `to` in round m+1.
  /// Kept empty (not merely all-zero) for SO patterns so that default
  /// equality and copying cost nothing on the SO-only paths.
  std::vector<std::vector<AgentSet>> recv_drops_;
};

}  // namespace eba
