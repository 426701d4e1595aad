#include "graph/comm_graph.hpp"

#include <algorithm>

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
  pref_known_ = 0;
  pref_value_ = 0;
  const bool pooled = rows_.capacity() > 0;
  rows_.clear();
  resize_rows(time, pooled);
  ++revision_;
}

void CommGraph::resize_rows(int time, bool ahead) {
  time_ = time;
  const std::size_t round_words = 2 * static_cast<std::size_t>(n_);
  const std::size_t words = static_cast<std::size_t>(time) * round_words;
  if (words > rows_.capacity())
    rows_.reserve(ahead ? static_cast<std::size_t>(time + kGrowthRounds - 1) *
                              round_words
                        : words);
  rows_.resize(words, 0);
}

CommGraph CommGraph::copy_with_room(int rounds) const {
  CommGraph out = blank(n_, 0);
  out.rows_.reserve(2 * static_cast<std::size_t>(std::max(rounds, time_)) *
                    static_cast<std::size_t>(n_));
  out.rows_.assign(rows_.begin(), rows_.end());
  out.time_ = time_;
  out.pref_known_ = pref_known_;
  out.pref_value_ = pref_value_;
  out.revision_ = revision_;
  return out;
}

void CommGraph::advance_round(AgentId self, AgentSet received_from) {
  EBA_REQUIRE(self >= 0 && self < n_, "agent id out of range");
  const int m = time_;
  resize_rows(m + 1, true);
  // Every incoming edge of `self` becomes definite in one row write:
  // delivered senders (plus the implicit self-loop) present, the rest absent.
  const std::size_t r = row(m, self);
  rows_[r] = AgentSet::all(n_).bits();
  rows_[r + 1] = (received_from.bits() | (std::uint64_t{1} << self)) &
                 AgentSet::all(n_).bits();
  ++revision_;
}

void CommGraph::merge(const CommGraph& other) {
  EBA_REQUIRE(other.n_ == n_, "merging graphs of different systems");
  EBA_REQUIRE(other.time_ <= time_, "merging a graph from the future");
  // Rows are round-major with identical n, so the other graph's words align
  // with the prefix of ours. Per row: a conflict is a sender bit both sides
  // know with different values; absent that, the union is two ORs.
  const std::size_t words = other.rows_.size();
  for (std::size_t k = 0; k < words; k += 2) {
    EBA_REQUIRE((rows_[k] & other.rows_[k] &
                 (rows_[k + 1] ^ other.rows_[k + 1])) == 0,
                "inconsistent delivery observations");
    rows_[k] |= other.rows_[k];
    rows_[k + 1] |= other.rows_[k + 1];
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
      out.rows_[dst] = AgentSet(rows_[src]).permuted(perm).bits();
      out.rows_[dst + 1] = AgentSet(rows_[src + 1]).permuted(perm).bits();
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
      out.rows_[dst] = ren.map_bits(rows_[src]);
      out.rows_[dst + 1] = ren.map_bits(rows_[src + 1]);
    }
  ++out.revision_;
  return out;
}

std::size_t CommGraph::hash() const {
  std::uint64_t h = mix64((static_cast<std::uint64_t>(n_) << 32) |
                          static_cast<std::uint64_t>(time_));
  // Known words, then value words: the hash of the two-plane layout.
  for (std::size_t k = 0; k < rows_.size(); k += 2) h = mix64(h ^ rows_[k]);
  for (std::size_t k = 1; k < rows_.size(); k += 2) h = mix64(h ^ rows_[k]);
  h = mix64(h ^ pref_known_);
  h = mix64(h ^ pref_value_);
  return static_cast<std::size_t>(h);
}

}  // namespace eba
