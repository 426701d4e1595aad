// The indistinguishability partition (paper §2, §4): agent i cannot tell
// two points apart when it has the same local state at the same time. Both
// Kripke engines group items by local state with this one type:
// InterpretedSystem the runs per (time, agent), KbpSynthesizer the worlds
// per agent per round.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

namespace eba {

/// Items 0..count-1 grouped by state. Class ids are assigned in first-seen
/// order; members are kept flat, each class's ascending.
class StatePartition {
 public:
  StatePartition() = default;

  /// Groups items by `state_of(k)`, a reference to item k's state where the
  /// caller stores it (the table holds indices, never a copied state).
  /// `hash_of(k)` is that state's hash and must agree with its ==.
  template <class StateOf, class HashOf>
  StatePartition(int count, const StateOf& state_of, const HashOf& hash_of)
      : class_of_(at(count)), members_(at(count)) {
    // Item index -> class id, each class keyed by its first item.
    const auto equal = [&](int a, int b) { return state_of(a) == state_of(b); };
    std::unordered_map<int, int, HashOf, decltype(equal)> ids(at(count),
                                                               hash_of, equal);
    std::vector<int> sizes;
    for (int k = 0; k < count; ++k) {
      const int fresh_id = static_cast<int>(sizes.size());
      const int c = ids.try_emplace(k, fresh_id).first->second;
      if (c == fresh_id) sizes.push_back(0);
      class_of_[at(k)] = c;
      ++sizes[at(c)];
    }
    // Counting sort by class; scanning items in order keeps members ascending.
    offsets_.resize(sizes.size() + 1);
    for (std::size_t c = 0; c < sizes.size(); ++c)
      offsets_[c + 1] = offsets_[c] + sizes[c];
    std::vector<int> next(offsets_.begin(), offsets_.end() - 1);
    for (int k = 0; k < count; ++k) members_[at(next[at(class_of(k))]++)] = k;
  }

  [[nodiscard]] int num_classes() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] int class_of(int item) const { return class_of_[at(item)]; }
  /// The members of class c, ascending.
  [[nodiscard]] std::span<const int> members(int c) const {
    return std::span<const int>(members_).subspan(
        at(offsets_[at(c)]), at(offsets_[at(c) + 1] - offsets_[at(c)]));
  }

  friend bool operator==(const StatePartition&,
                         const StatePartition&) = default;

 private:
  static std::size_t at(int k) { return static_cast<std::size_t>(k); }

  std::vector<int> class_of_;  ///< item -> class id
  /// Class c's members are members_[offsets_[c]] up to offsets_[c + 1].
  std::vector<int> offsets_{0};
  std::vector<int> members_;  ///< items grouped by class
};

}  // namespace eba
