#include "net/bus.hpp"

namespace eba {

BusPool::BusPool(std::size_t capacity) : slots_(capacity) {
  EBA_REQUIRE(capacity >= 1, "bus pool needs at least one slot");
  free_.reserve(capacity);
  // Stack of free ids, lowest id on top: deterministic slot assignment for
  // single-threaded callers.
  for (std::size_t id = capacity; id > 0; --id) free_.push_back(id - 1);
}

BusPool::SlotId BusPool::acquire(FailurePattern alpha, int resume_round) {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(resume_round >= 0, "resume round cannot be negative");
  EBA_REQUIRE(!free_.empty(), "bus pool exhausted");
  const SlotId id = free_.back();
  free_.pop_back();
  Slot& slot = slots_[id];
  slot.busy = true;
  slot.round = resume_round;
  slot.alpha = std::move(alpha);
  return id;
}

void BusPool::release(SlotId id) {
  std::lock_guard lock(mu_);
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "releasing a slot that is not in use");
  slots_[id].busy = false;
  slots_[id].alpha.reset();
  free_.push_back(id);
}

std::size_t BusPool::in_use() const {
  std::lock_guard lock(mu_);
  return slots_.size() - free_.size();
}

BusPool::RoundResult BusPool::exchange_round(
    SlotId id, std::vector<std::optional<Bytes>> outbox) {
  // No lock: a slot is driven by exactly one worker at a time (the pool
  // mutex in acquire/release orders successive owners), and this touches
  // only per-slot state.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "exchange_round on a slot that is not in use");
  Slot& slot = slots_[id];
  const FailurePattern& alpha = *slot.alpha;
  const int n = alpha.n();
  EBA_REQUIRE(static_cast<int>(outbox.size()) == n, "outbox size mismatch");

  const auto un = static_cast<std::size_t>(n);
  RoundResult res;
  res.round = slot.round;
  res.sent.assign(un, AgentSet{});
  res.received_.resize(un);
  res.delivered.resize(un);
  AgentSet senders;
  for (AgentId from = 0; from < n; ++from) {
    if (!outbox[static_cast<std::size_t>(from)]) continue;
    senders.insert(from);
    res.sent[static_cast<std::size_t>(from)] =
        AgentSet::all(n).minus(AgentSet{from});
  }
  alpha.filter_broadcast(slot.round, senders, res.received_, res.delivered);
  res.payloads_ = std::move(outbox);
  bind_inbox(res, n, /*per_destination=*/false);
  slot.round += 1;
  return res;
}

void BusPool::bind_inbox(RoundResult& res, int n, bool per_destination) {
  res.inbox.payloads_ = res.payloads_.data();
  res.inbox.received_ = res.received_.data();
  res.inbox.n_ = static_cast<std::size_t>(n);
  res.inbox.per_destination_ = per_destination;
}

BusPool::RoundResult BusPool::exchange_round(
    SlotId id, std::vector<std::vector<std::optional<Bytes>>> outbox) {
  // Same threading contract as the broadcast overload: no lock, one worker
  // per slot at a time.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "exchange_round on a slot that is not in use");
  Slot& slot = slots_[id];
  const FailurePattern& alpha = *slot.alpha;
  const int n = alpha.n();
  EBA_REQUIRE(static_cast<int>(outbox.size()) == n, "outbox size mismatch");

  const auto un = static_cast<std::size_t>(n);
  RoundResult res;
  res.round = slot.round;
  res.payloads_.resize(un * un);
  res.received_.assign(un, AgentSet{});
  res.sent.assign(un, AgentSet{});
  res.delivered.assign(un, AgentSet{});
  for (AgentId from = 0; from < n; ++from) {
    auto& row = outbox[static_cast<std::size_t>(from)];
    EBA_REQUIRE(static_cast<int>(row.size()) == n, "outbox row size mismatch");
    for (AgentId to = 0; to < n; ++to) {
      auto& payload = row[static_cast<std::size_t>(to)];
      if (!payload) continue;
      res.payloads_[static_cast<std::size_t>(from) * un +
                    static_cast<std::size_t>(to)] = std::move(payload);
      if (to != from) res.sent[static_cast<std::size_t>(from)].insert(to);
      if (!alpha.delivered(slot.round, from, to)) continue;
      res.received_[static_cast<std::size_t>(to)].insert(from);
      if (to != from) res.delivered[static_cast<std::size_t>(from)].insert(to);
    }
  }
  bind_inbox(res, n, /*per_destination=*/true);
  slot.round += 1;
  return res;
}

void BusPool::update_pattern(SlotId id, const FailurePattern& alpha) {
  // No lock, as in exchange_round: only the slot's current worker calls in.
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "update_pattern on a slot that is not in use");
  Slot& slot = slots_[id];
  EBA_REQUIRE(slot.alpha && slot.alpha->n() == alpha.n(),
              "update_pattern must keep the agent count");
  slot.alpha = alpha;
}

int BusPool::completed_rounds(SlotId id) const {
  EBA_REQUIRE(id < slots_.size() && slots_[id].busy,
              "completed_rounds on a slot that is not in use");
  return slots_[id].round;
}

}  // namespace eba
