#include "graph/comm_graph.hpp"

namespace eba {
namespace {

/// splitmix64 finalizer: one multiply-xorshift round per 64-bit word, a far
/// better mixer per cycle than the old byte-at-a-time FNV walk over labels.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CommGraph::CommGraph(int n, AgentId self, Value own_init) : n_(n), time_(0) {
  EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  EBA_REQUIRE(self >= 0 && self < n, "agent id out of range");
  set_pref(self, pref_of(own_init));
}

CommGraph CommGraph::blank(int n, int time) {
  CommGraph g(n, 0, Value::zero);
  g.reset_blank(n, time);
  return g;
}

void CommGraph::reset_blank(int n, int time) {
  EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  EBA_REQUIRE(time >= 0, "negative graph time");
  n_ = n;
  time_ = time;
  pref_known_ = 0;
  pref_value_ = 0;
  const std::size_t words =
      static_cast<std::size_t>(time) * static_cast<std::size_t>(n);
  known_.assign(words, 0);
  value_.assign(words, 0);
  ++revision_;
}

void CommGraph::advance_round(AgentId self, AgentSet received_from) {
  EBA_REQUIRE(self >= 0 && self < n_, "agent id out of range");
  const int m = time_;
  time_ += 1;
  const std::size_t words =
      static_cast<std::size_t>(time_) * static_cast<std::size_t>(n_);
  known_.resize(words, 0);
  value_.resize(words, 0);
  // Every incoming edge of `self` becomes definite in one row write:
  // delivered senders (plus the implicit self-loop) present, the rest absent.
  const std::size_t r = row(m, self);
  known_[r] = AgentSet::all(n_).bits();
  value_[r] = (received_from.bits() | (std::uint64_t{1} << self)) &
              AgentSet::all(n_).bits();
  ++revision_;
}

void CommGraph::merge(const CommGraph& other) {
  EBA_REQUIRE(other.n_ == n_, "merging graphs of different systems");
  EBA_REQUIRE(other.time_ <= time_, "merging a graph from the future");
  // Rows are round-major with identical n, so the other graph's words align
  // with the prefix of ours. Per word: a conflict is a sender bit both sides
  // know with different values; absent that, the union is two ORs.
  const std::size_t words =
      static_cast<std::size_t>(other.time_) * static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < words; ++i) {
    EBA_REQUIRE(
        (known_[i] & other.known_[i] & (value_[i] ^ other.value_[i])) == 0,
        "inconsistent delivery observations");
    known_[i] |= other.known_[i];
    value_[i] |= other.value_[i];
  }
  EBA_REQUIRE((pref_known_ & other.pref_known_ &
               (pref_value_ ^ other.pref_value_)) == 0,
              "inconsistent preference observations");
  pref_known_ |= other.pref_known_;
  pref_value_ |= other.pref_value_;
  ++revision_;
}

CommGraph CommGraph::relabeled(const std::vector<AgentId>& perm) const {
  EBA_REQUIRE(static_cast<int>(perm.size()) == n_,
              "permutation size mismatch");
  CommGraph out(*this);
  out.pref_known_ = AgentSet(pref_known_).permuted(perm).bits();
  out.pref_value_ = AgentSet(pref_value_).permuted(perm).bits();
  for (int m = 0; m < time_; ++m)
    for (AgentId to = 0; to < n_; ++to) {
      const std::size_t dst = out.row(m, perm[static_cast<std::size_t>(to)]);
      const std::size_t src = row(m, to);
      out.known_[dst] = AgentSet(known_[src]).permuted(perm).bits();
      out.value_[dst] = AgentSet(value_[src]).permuted(perm).bits();
    }
  ++out.revision_;
  return out;
}

CommGraph CommGraph::relabeled(const Renaming& ren) const {
  EBA_REQUIRE(static_cast<int>(ren.size()) == n_,
              "permutation size mismatch");
  CommGraph out(*this);
  out.pref_known_ = ren.map_bits(pref_known_);
  out.pref_value_ = ren.map_bits(pref_value_);
  for (int m = 0; m < time_; ++m)
    for (AgentId to = 0; to < n_; ++to) {
      const std::size_t dst = out.row(m, ren[static_cast<std::size_t>(to)]);
      const std::size_t src = row(m, to);
      out.known_[dst] = ren.map_bits(known_[src]);
      out.value_[dst] = ren.map_bits(value_[src]);
    }
  ++out.revision_;
  return out;
}

std::size_t CommGraph::hash() const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(n_) << 32) |
                          static_cast<std::uint64_t>(time_));
  for (std::uint64_t w : known_) h = mix64(h ^ w);
  for (std::uint64_t w : value_) h = mix64(h ^ w);
  h = mix64(h ^ pref_known_);
  h = mix64(h ^ pref_value_);
  return static_cast<std::size_t>(h);
}

}  // namespace eba
