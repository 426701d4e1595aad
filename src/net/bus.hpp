// Byte-level message bus with omission fault injection: the paper's
// synchronous round structure over real byte payloads.
//
// `BusPool` is a pool of slots, each hosting one agreement instance's
// rounds: the slot owns the instance's failure pattern and stages its
// payloads, and `exchange_round()` moves one full round of broadcasts
// through the adversary filter synchronously. Slots own no threads;
// whichever worker is currently advancing the instance (net/workload.hpp
// multiplexes thousands of instances over a fixed worker pool) drives the
// slot. Distinct slots may be driven concurrently; one slot must be driven
// by one worker at a time. A round stores each payload once — the outbox is
// moved into the result, one payload per broadcast sender or per addressed
// edge — and the adversary's verdict is a mask per receiver (`received`).
// Receivers read payloads through the `inbox` view, by reference, never
// one payload copy per receiver. A caller that is done with a round hands
// its payload buffers back (`take_payloads`) to encode the next round
// into, so a steady-state wire round allocates no payload storage.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "failure/pattern.hpp"
#include "net/serialize.hpp"

namespace eba {

/// A pool of threadless bus slots for concurrent agreement instances.
class BusPool {
 public:
  using SlotId = std::size_t;

  /// Read-only inbox over a RoundResult's stored payloads: inbox[to][from]
  /// is the payload `to` received from `from` — a reference to the one
  /// stored copy — or a shared empty optional when nothing arrived (⊥, or
  /// the adversary dropped the edge). References stay valid while the
  /// RoundResult that owns the payloads lives; moving the result keeps
  /// them valid, destroying it ends them.
  class InboxView {
   public:
    class Row {
     public:
      [[nodiscard]] const std::optional<Bytes>& operator[](
          std::size_t from) const;

     private:
      friend class InboxView;
      const std::optional<Bytes>* base_ = nullptr;
      std::size_t stride_ = 0;
      AgentSet received_;
      std::size_t n_ = 0;
    };

    InboxView() = default;
    // The view points into its owner's payload buffer: a copy would dangle
    // once that owner goes, so results are move-only.
    InboxView(const InboxView&) = delete;
    InboxView& operator=(const InboxView&) = delete;
    InboxView(InboxView&&) = default;
    InboxView& operator=(InboxView&&) = default;

    [[nodiscard]] Row operator[](std::size_t to) const;

   private:
    friend class BusPool;
    const std::optional<Bytes>* payloads_ = nullptr;
    const AgentSet* received_ = nullptr;
    std::size_t n_ = 0;
    bool per_destination_ = false;
  };

  /// One completed round as seen by the whole instance. Move-only: `inbox`
  /// refers into the stored payloads and received masks, which are
  /// read-only so nothing can reallocate them under the view (vector moves
  /// keep their buffers, so a moved result's view stays valid).
  struct RoundResult {
    int round = 0;  ///< the round index that was just exchanged (0-based)
    /// sent[from]: receivers (excluding `from`) addressed by a non-⊥ payload.
    std::vector<AgentSet> sent;
    /// delivered[from]: subset of sent[from] the adversary delivered.
    std::vector<AgentSet> delivered;
    /// inbox[to][from]: view over payloads() and received() (InboxView).
    InboxView inbox;

    /// The outbox, moved in, every payload stored once: payloads()[from]
    /// for a broadcast round (n entries), payloads()[from * n + to] for a
    /// per-destination round (n² entries); nullopt = ⊥. Holds payloads the
    /// adversary dropped too — received() says which ones arrived.
    [[nodiscard]] const std::vector<std::optional<Bytes>>& payloads() const {
      return payloads_;
    }
    /// received()[to]: senders whose non-⊥ payload reached `to`, `to`
    /// itself included whenever it sent one (self-delivery always
    /// succeeds).
    [[nodiscard]] const std::vector<AgentSet>& received() const {
      return received_;
    }
    /// Hands the stored payloads back, laid out as payloads() was, for
    /// reuse as encode buffers. The inbox view dies with them: it is reset
    /// to an empty view, so indexing it throws instead of dangling.
    [[nodiscard]] std::vector<std::optional<Bytes>> take_payloads() {
      inbox = InboxView{};
      return std::move(payloads_);
    }

   private:
    friend class BusPool;
    std::vector<std::optional<Bytes>> payloads_;
    std::vector<AgentSet> received_;
  };

  explicit BusPool(std::size_t capacity);

  /// Claims a free slot for an instance governed by `alpha`. Throws when the
  /// pool is exhausted — admission control is the caller's job.
  /// `resume_round` seeds the slot's round counter: a crashed instance that
  /// is restored from a round-`m` checkpoint re-acquires a slot with
  /// resume_round = m so the wire path filters with the right round index.
  [[nodiscard]] SlotId acquire(FailurePattern alpha, int resume_round = 0);
  /// Returns a slot to the pool; the slot's round counter resets.
  void release(SlotId id);

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t in_use() const;

  /// Moves one round of broadcast payloads (outbox[i] = agent i's payload,
  /// nullopt = ⊥) through the slot's failure pattern and returns the stored
  /// payloads, every receiver's `received` mask (and the inbox view over
  /// both) plus the sent/delivered logs. No payload is copied: the filter
  /// works on masks (FailurePattern::filter_broadcast). Synchronous: the
  /// caller is the instance's current worker and submits all n payloads at
  /// once.
  [[nodiscard]] RoundResult exchange_round(
      SlotId id, std::vector<std::optional<Bytes>> outbox);

  /// Per-destination variant for non-broadcast exchanges (outbox[from][to] =
  /// the payload `from` addresses to `to`, nullopt = ⊥). sent[from] collects
  /// the receivers (excluding `from`) with a non-⊥ payload; delivery is
  /// filtered per (from, to) edge, and a payload addressed to self always
  /// arrives — the semantics of Stepper::step()'s per-destination round
  /// (sim/stepper.hpp), which the wire path must mirror bit-for-bit. Each
  /// edge's payload is moved in and stored once.
  [[nodiscard]] RoundResult exchange_round(
      SlotId id, std::vector<std::vector<std::optional<Bytes>>> outbox);

  /// Replaces the slot's failure pattern mid-instance. The adaptive
  /// workload driver (net/workload.hpp run_adaptive_workload) mirrors each
  /// stepper's online drops into the slot after begin_round(), before the
  /// round's payloads move — without this the byte-level filter would run
  /// on the strategy's base pattern. Same threading contract as
  /// exchange_round: the caller is the slot's current worker.
  void update_pattern(SlotId id, const FailurePattern& alpha);

  /// Rounds completed by the instance currently occupying the slot.
  [[nodiscard]] int completed_rounds(SlotId id) const;

 private:
  struct Slot {
    bool busy = false;
    int round = 0;
    std::optional<FailurePattern> alpha;
  };

  /// Points res.inbox at res's stored payloads and received masks.
  static void bind_inbox(RoundResult& res, int n, bool per_destination);

  mutable std::mutex mu_;  ///< guards acquire/release bookkeeping only
  std::vector<Slot> slots_;
  std::vector<SlotId> free_;
};

namespace detail {
/// What an InboxView hands out for an edge that carried nothing.
inline const std::optional<Bytes> kNoPayload;
}  // namespace detail

inline BusPool::InboxView::Row BusPool::InboxView::operator[](
    std::size_t to) const {
  EBA_REQUIRE(to < n_, "inbox receiver out of range");
  Row row;
  row.base_ = per_destination_ ? payloads_ + to : payloads_;
  row.stride_ = per_destination_ ? n_ : 1;
  row.received_ = received_[to];
  row.n_ = n_;
  return row;
}

inline const std::optional<Bytes>& BusPool::InboxView::Row::operator[](
    std::size_t from) const {
  EBA_REQUIRE(from < n_, "inbox sender out of range");
  if (!received_.contains(static_cast<AgentId>(from)))
    return detail::kNoPayload;
  return base_[from * stride_];
}

}  // namespace eba
