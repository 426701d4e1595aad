// Moses–Tuttle communication graphs (paper §7, §A.2.7): the compact
// representation of a full-information exchange.
//
// The graph of agent i at time m records, for every round m' + 1 <= m and
// every ordered pair (j, k), whether i knows the round-(m'+1) message from j
// to k was delivered (label 1), knows it was omitted (label 0), or does not
// know (?). It also records the initial preferences i knows.
//
// Labels encode *delivery* knowledge, and the same representation serves
// both omission models; what differs per model is the fault attribution a
// label supports, not the label itself:
//
//   * In either model a sender does not learn whether its own messages
//     arrived, so an agent's outgoing edges stay `?` until some receiver's
//     report is relayed back, and incoming edges are always 0/1 (a
//     synchronous receiver detects absence).
//   * Under sending omissions SO(t), a 0 label convicts the SENDER — only
//     faulty senders lose messages — which is what the f/D fault operators
//     (graph/knowledge.hpp) exploit.
//   * Under general omissions GO(t), a 0 label only proves "sender or
//     receiver faulty" (the message may have been receive-dropped), so
//     fault knowledge becomes clause/vertex-cover reasoning over the same
//     labels (OmissionEvidence / go_known_faults in graph/knowledge.hpp).
//
// Storage is bit-packed in two planes, round-major with one n-bit row per
// (round, receiver):
//
//   known[m][to] — bit `from` set iff the label of (from, m) -> (to, m+1)
//                  is definite (0 or 1),
//   value[m][to] — bit `from` set iff that label is 1 (present).
//
// The planes interleave in one vector, a (known, value) word pair per row —
// the wire's order — so a graph's rows are one allocation.
//
// Since kMaxAgents == 64, each row is exactly one uint64_t word, so a
// receiver row doubles as an AgentSet mask: merge is a handful of word ops
// per row, and the knowledge operators (cone frontiers, fault rows) consume
// whole rows instead of individual labels. The representation is canonical —
// value bits are only ever set under known bits — so default word-wise
// equality and the word-mixing hash agree with label-level equality.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/renaming.hpp"
#include "core/types.hpp"

namespace eba {

/// Delivery knowledge for one (round, sender, receiver) edge.
enum class Label : std::uint8_t { absent = 0, present = 1, unknown = 2 };

/// Knowledge of one agent's initial preference.
enum class PrefLabel : std::uint8_t { zero = 0, one = 1, unknown = 2 };

[[nodiscard]] constexpr PrefLabel pref_of(Value v) {
  return v == Value::zero ? PrefLabel::zero : PrefLabel::one;
}

class CommGraph {
 public:
  /// The time-0 graph of `self`, knowing only its own preference.
  CommGraph(int n, AgentId self, Value own_init);

  [[nodiscard]] int n() const { return n_; }
  /// Number of rounds covered: edges exist for rounds 1..time().
  [[nodiscard]] int time() const { return time_; }

  /// Label of the edge (from, m) -> (to, m+1), i.e. the round-(m+1) message.
  /// Precondition: 0 <= m < time().
  [[nodiscard]] Label label(int m, AgentId from, AgentId to) const {
    const std::uint64_t bit = sender_bit(from);
    const std::size_t r = row(m, to);
    if (!(rows_[r] & bit)) return Label::unknown;
    return (rows_[r + 1] & bit) ? Label::present : Label::absent;
  }
  void set_label(int m, AgentId from, AgentId to, Label l) {
    const std::uint64_t bit = sender_bit(from);
    const std::size_t r = row(m, to);
    rows_[r] &= ~bit;
    rows_[r + 1] &= ~bit;
    if (l != Label::unknown) {
      rows_[r] |= bit;
      if (l == Label::present) rows_[r + 1] |= bit;
    }
    ++revision_;
  }

  [[nodiscard]] PrefLabel pref(AgentId j) const {
    const std::uint64_t bit = sender_bit(j);
    if (!(pref_known_ & bit)) return PrefLabel::unknown;
    return (pref_value_ & bit) ? PrefLabel::one : PrefLabel::zero;
  }
  void set_pref(AgentId j, PrefLabel p) {
    const std::uint64_t bit = sender_bit(j);
    pref_known_ &= ~bit;
    pref_value_ &= ~bit;
    if (p != PrefLabel::unknown) {
      pref_known_ |= bit;
      if (p == PrefLabel::one) pref_value_ |= bit;
    }
    ++revision_;
  }

  // Whole-row accessors: the packed planes as AgentSet masks. These are what
  // the knowledge operators consume; `to`-rows make a cone frontier step one
  // OR per member and a fault-row update one OR per definite-absent row.

  /// Senders whose round-(m+1) message to `to` has a definite label.
  [[nodiscard]] AgentSet known_senders(int m, AgentId to) const {
    return AgentSet(rows_[row(m, to)]);
  }
  /// Senders whose round-(m+1) message to `to` is known delivered.
  [[nodiscard]] AgentSet present_senders(int m, AgentId to) const {
    return AgentSet(rows_[row(m, to) + 1]);
  }
  /// Senders whose round-(m+1) message to `to` is known omitted.
  [[nodiscard]] AgentSet absent_senders(int m, AgentId to) const {
    const std::size_t r = row(m, to);
    return AgentSet(rows_[r] & ~rows_[r + 1]);
  }
  /// Overwrites one receiver row. Preconditions: present ⊆ known ⊆ {0..n-1}.
  void set_row(int m, AgentId to, AgentSet known, AgentSet present) {
    EBA_REQUIRE(known.subset_of(AgentSet::all(n_)) && present.subset_of(known),
                "malformed receiver row");
    const std::size_t r = row(m, to);
    rows_[r] = known.bits();
    rows_[r + 1] = present.bits();
    ++revision_;
  }

  /// Agents whose initial preference is known / known to be 1.
  [[nodiscard]] AgentSet known_prefs() const { return AgentSet(pref_known_); }
  [[nodiscard]] AgentSet one_prefs() const { return AgentSet(pref_value_); }

  // The rows whole, for the byte codec (net/serialize.cpp): row (m, to) is
  // the word pair at 2(m·n + to), its known mask then its present mask.
  // assign_rows rebuilds the graph in place with `time` rounds, taking every
  // row from `next(known, present)` in that order; a row must keep
  // present ⊆ known ⊆ {0..n-1}. If `next` throws, the graph is left valid
  // but unspecified.
  [[nodiscard]] std::span<const std::uint64_t> row_words() const {
    return rows_;
  }
  template <class NextRow>
  void assign_rows(int time, AgentSet known_prefs, AgentSet one_prefs,
                   NextRow&& next) {
    const AgentSet all = AgentSet::all(n_);
    EBA_REQUIRE(time >= 0 && known_prefs.subset_of(all) &&
                    one_prefs.subset_of(known_prefs),
                "malformed graph shape");
    resize_rows(time, rows_.capacity() > 0);
    pref_known_ = known_prefs.bits();
    pref_value_ = one_prefs.bits();
    ++revision_;
    for (std::size_t r = 0; r < rows_.size(); r += 2) {
      std::uint64_t known = 0;
      std::uint64_t present = 0;
      next(known, present);
      EBA_REQUIRE(AgentSet(known).subset_of(all) && (present & ~known) == 0,
                  "malformed receiver row");
      rows_[r] = known;
      rows_[r + 1] = present;
    }
  }

  /// Extends the graph by one round: `self` observed exactly the messages
  /// from `received_from` (self-delivery is implicit). All other new edges
  /// are unknown.
  void advance_round(AgentId self, AgentSet received_from);

  /// Rounds of row capacity a growing graph takes on when a round no longer
  /// fits: every advance_round, and a reset_blank/assign_rows of a graph
  /// that already held rows (a pooled decode target, a reused join). A
  /// fresh graph (blank, relabeled, a restored checkpoint) is sized exactly.
  /// E_fip runs mostly end at round 2: of e2ebench's instances, 98% on
  /// popt_n8 and popt_n8_durable (about 1% at round 3) and all on popt_n32.
  /// Two rounds at a time grow such a run's graph once, at round 1, and
  /// leave it full, where vector doubling reallocates at rounds 1, 2, 3 and
  /// 5; four at a time also grow it once but leave every finished graph
  /// half empty (traced popt_n32 peak RSS 222 MiB against 163 at two).
  static constexpr int kGrowthRounds = 2;

  /// A copy with room for `rounds` rounds (at least time()),
  /// so advancing the copy that far reallocates nothing. Copy-on-write δ
  /// clones a shared graph this way, one round ahead.
  [[nodiscard]] CommGraph copy_with_room(int rounds) const;

  /// Merges another agent's graph (a FIP message) into this one. The other
  /// graph may cover fewer rounds. Conflicting definite labels indicate a
  /// protocol bug and throw.
  void merge(const CommGraph& other);

  /// Uninformative graph of the given shape, used by view extraction.
  static CommGraph blank(int n, int time);
  /// Resets this graph in place to blank(n, time), reusing its row storage.
  /// The revision strictly increases, so a KnowledgeCache bound to this
  /// graph's address never answers from the graph's previous contents.
  void reset_blank(int n, int time);

  /// The graph under the agent renaming π (perm[i] = new id of agent i):
  /// edge (π(from), m) -> (π(to), m+1) carries the label of (from, m) ->
  /// (to, m+1), and π(j)'s preference label is j's. Word-parallel — each
  /// receiver row is one permuted mask move — so relabeling a whole run is
  /// orders of magnitude cheaper than re-simulating it (sim/relabel.hpp).
  [[nodiscard]] CommGraph relabeled(const std::vector<AgentId>& perm) const;

  /// Same renaming through a precompiled Renaming: each mask word moves in
  /// ceil(n/8) table lookups. The relabel engine compiles the renaming once
  /// per run and reuses it for every graph plane (sim/relabel.hpp).
  [[nodiscard]] CommGraph relabeled(const Renaming& ren) const;

  /// Mutation counter: bumped by every set_label/set_pref/set_row/
  /// advance_round/merge/reset_blank/assign_rows. KnowledgeCache keys its
  /// memoized cones and fault tables on (graph address, revision), so
  /// derived knowledge is recomputed only when the graph actually changed.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  friend bool operator==(const CommGraph& a, const CommGraph& b) {
    return a.n_ == b.n_ && a.time_ == b.time_ &&
           a.pref_known_ == b.pref_known_ && a.pref_value_ == b.pref_value_ &&
           a.rows_ == b.rows_;
  }

  [[nodiscard]] std::size_t hash() const;

  /// Serialized size in bits: two bits per edge label plus two per
  /// preference label (used for Prop 8.1 accounting). Independent of the
  /// packed in-memory layout.
  [[nodiscard]] std::size_t bit_size() const {
    return 2 * static_cast<std::size_t>(time_) * static_cast<std::size_t>(n_) *
               static_cast<std::size_t>(n_) +
           2 * static_cast<std::size_t>(n_);
  }

 private:
  /// Index of row (m, to)'s known word; its value word follows.
  [[nodiscard]] std::size_t row(int m, AgentId to) const {
    EBA_REQUIRE(m >= 0 && m < time_, "round out of range");
    EBA_REQUIRE(to >= 0 && to < n_, "agent out of range");
    return 2 * (static_cast<std::size_t>(m) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(to));
  }
  [[nodiscard]] std::uint64_t sender_bit(AgentId from) const {
    EBA_REQUIRE(from >= 0 && from < n_, "agent out of range");
    return std::uint64_t{1} << from;
  }
  /// Sets time_ and sizes the rows to `time` rounds (new rows zero). When
  /// they must grow they take room for kGrowthRounds rounds at once if
  /// `ahead`, else exactly `time` rounds.
  void resize_rows(int time, bool ahead);

  int n_;
  int time_;
  std::uint64_t pref_known_ = 0;  ///< bit j: pref of j is definite
  std::uint64_t pref_value_ = 0;  ///< bit j: pref of j is 1 (under known)
  std::uint64_t revision_ = 0;    ///< excluded from equality and hashing
  /// time * n rows, round-major by receiver, each a (known, value) word
  /// pair; value ⊆ known per row.
  std::vector<std::uint64_t> rows_;
};

/// Whether sole_owned() can answer non-null: only on libstdc++, whose
/// shared_ptr increments the count with an acquire-release operation.
inline constexpr bool kSoleOwnedWrites =
#if defined(__GLIBCXX__)
    true;
#else
    false;
#endif

/// The graph behind `p`, writable, when `p` is its only owner; null while a
/// message or another state still shares it. This is the copy-on-write test
/// of E_fip's graphs (FipState's δ, the pooled decode in net/serialize).
/// use_count() is a relaxed load, but once it reads 1 no other owner can
/// appear, and copying `p` then is an acquire-release increment of the
/// count (libstdc++), which synchronizes with every former owner's release:
/// their last reads of the graph happen before the caller's writes, on any
/// thread. Other standard libraries may increment with a relaxed operation,
/// which orders nothing, so there (kSoleOwnedWrites false) the test always
/// answers null and every writer clones: slower, never racy. The graphs
/// behind these pointers are built mutable (FipState, the decoder); `p`
/// must not point to an object defined const.
[[nodiscard]] inline CommGraph* sole_owned(
    std::shared_ptr<const CommGraph>& p) {
  if (!kSoleOwnedWrites || !p || p.use_count() != 1) return nullptr;
  { const std::shared_ptr<const CommGraph> acquire = p; }
  return const_cast<CommGraph*>(p.get());
}

}  // namespace eba
