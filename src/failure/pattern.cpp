#include "failure/pattern.hpp"

namespace eba {

FailurePattern::FailurePattern(int n, AgentSet nonfaulty)
    : n_(n), nonfaulty_(nonfaulty) {
  EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  EBA_REQUIRE(nonfaulty.subset_of(AgentSet::all(n)), "nonfaulty set out of range");
}

void FailurePattern::ensure_round(int m) {
  EBA_REQUIRE(m >= 0, "negative round");
  if (static_cast<int>(drops_.size()) <= m)
    drops_.resize(static_cast<std::size_t>(m) + 1,
                  std::vector<AgentSet>(static_cast<std::size_t>(n_)));
}

void FailurePattern::ensure_receive_round(int m) {
  EBA_REQUIRE(m >= 0, "negative round");
  if (static_cast<int>(recv_drops_.size()) <= m)
    recv_drops_.resize(static_cast<std::size_t>(m) + 1,
                       std::vector<AgentSet>(static_cast<std::size_t>(n_)));
}

void FailurePattern::drop(int m, AgentId from, AgentId to) {
  EBA_REQUIRE(from >= 0 && from < n_ && to >= 0 && to < n_, "agent out of range");
  EBA_REQUIRE(from != to, "self-delivery cannot be dropped");
  EBA_REQUIRE(!nonfaulty_.contains(from),
              "sending omissions only affect faulty senders");
  ensure_round(m);
  drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(from)].insert(to);
}

void FailurePattern::drop_receive(int m, AgentId from, AgentId to) {
  EBA_REQUIRE(from >= 0 && from < n_ && to >= 0 && to < n_, "agent out of range");
  EBA_REQUIRE(from != to, "self-delivery cannot be dropped");
  EBA_REQUIRE(!nonfaulty_.contains(to),
              "receive omissions only affect faulty receivers");
  ensure_receive_round(m);
  recv_drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(to)].insert(
      from);
}

void FailurePattern::silence(int m, AgentId from) {
  for (AgentId to = 0; to < n_; ++to)
    if (to != from) drop(m, from, to);
}

void FailurePattern::silence_forever(AgentId from, int rounds) {
  for (int m = 0; m < rounds; ++m) silence(m, from);
}

void FailurePattern::deafen(int m, AgentId to) {
  for (AgentId from = 0; from < n_; ++from)
    if (from != to) drop_receive(m, from, to);
}

void FailurePattern::deafen_forever(AgentId to, int rounds) {
  for (int m = 0; m < rounds; ++m) deafen(m, to);
}

bool FailurePattern::delivered(int m, AgentId from, AgentId to) const {
  if (from == to) return true;
  if (m >= 0 && m < static_cast<int>(drops_.size()) &&
      drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(from)]
          .contains(to))
    return false;
  if (m >= 0 && m < static_cast<int>(recv_drops_.size()) &&
      recv_drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(to)]
          .contains(from))
    return false;
  return true;
}

AgentSet FailurePattern::dropped(int m, AgentId from) const {
  if (m < 0 || m >= static_cast<int>(drops_.size())) return {};
  return drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(from)];
}

AgentSet FailurePattern::dropped_receive(int m, AgentId to) const {
  if (m < 0 || m >= static_cast<int>(recv_drops_.size())) return {};
  return recv_drops_[static_cast<std::size_t>(m)][static_cast<std::size_t>(to)];
}

void FailurePattern::filter_broadcast(int m, AgentSet senders,
                                      std::span<AgentSet> received,
                                      std::span<AgentSet> delivered) const {
  const auto un = static_cast<std::size_t>(n_);
  EBA_REQUIRE(received.size() == un && delivered.size() == un,
              "broadcast filter needs one set per agent");
  EBA_REQUIRE(senders.subset_of(AgentSet::all(n_)), "sender out of range");
  const AgentSet everyone = AgentSet::all(n_);
  for (AgentId i = 0; i < n_; ++i) {
    const AgentSet self(std::uint64_t{1} << i);
    received[static_cast<std::size_t>(i)] = senders;
    delivered[static_cast<std::size_t>(i)] =
        senders.contains(i) ? everyone.minus(self) : AgentSet{};
  }
  // Neither plane ever holds a self edge (drop/drop_receive and the pattern
  // decoder reject one), so removing dropped edges keeps self-delivery.
  if (m >= 0 && m < static_cast<int>(drops_.size())) {
    const auto& plane = drops_[static_cast<std::size_t>(m)];
    for (AgentId from : senders)
      for (AgentId to : plane[static_cast<std::size_t>(from)]) {
        received[static_cast<std::size_t>(to)].erase(from);
        delivered[static_cast<std::size_t>(from)].erase(to);
      }
  }
  if (m >= 0 && m < static_cast<int>(recv_drops_.size())) {
    const auto& plane = recv_drops_[static_cast<std::size_t>(m)];
    for (AgentId to = 0; to < n_; ++to)
      for (AgentId from :
           plane[static_cast<std::size_t>(to)].intersected(senders)) {
        received[static_cast<std::size_t>(to)].erase(from);
        delivered[static_cast<std::size_t>(from)].erase(to);
      }
  }
}

bool FailurePattern::has_receive_drops() const {
  for (const auto& round : recv_drops_)
    for (const AgentSet& row : round)
      if (!row.empty()) return true;
  return false;
}

bool FailurePattern::is_crash() const {
  // Crash semantics over the recorded prefix: an agent may drop an arbitrary
  // subset of receivers in its crash round, but from the next recorded round
  // onward it must drop everything.
  for (AgentId i = 0; i < n_; ++i) {
    bool crashed = false;
    for (int m = 0; m < static_cast<int>(drops_.size()); ++m) {
      const AgentSet d = dropped(m, i);
      if (crashed && d.size() != n_ - 1) return false;
      if (!d.empty()) crashed = true;
    }
  }
  return true;
}

}  // namespace eba
