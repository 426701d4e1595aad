// Fundamental value and action types of the EBA problem (paper §3, §5).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/agent_set.hpp"

namespace eba {

/// Binary consensus value.
enum class Value : std::uint8_t { zero = 0, one = 1 };

[[nodiscard]] constexpr Value opposite(Value v) {
  return v == Value::zero ? Value::one : Value::zero;
}
[[nodiscard]] constexpr int to_int(Value v) { return static_cast<int>(v); }
[[nodiscard]] constexpr Value value_of(int x) {
  return x == 0 ? Value::zero : Value::one;
}

/// An agent's per-round action: `noop` or `decide(v)` (paper §5).
class Action {
 public:
  constexpr Action() = default;  // noop
  static constexpr Action noop() { return Action(); }
  static constexpr Action decide(Value v) { return Action(true, v); }

  [[nodiscard]] constexpr bool is_decide() const { return decide_; }
  [[nodiscard]] constexpr bool decides(Value v) const {
    return decide_ && value_ == v;
  }
  /// Precondition: is_decide().
  [[nodiscard]] Value value() const {
    EBA_REQUIRE(decide_, "noop action has no value");
    return value_;
  }

  friend constexpr bool operator==(Action, Action) = default;

 private:
  constexpr Action(bool d, Value v) : decide_(d), value_(v) {}
  bool decide_ = false;
  Value value_ = Value::zero;
};

/// A recorded decision: the value and the round in which it was performed.
/// An action selected at state time m is performed "in round m+1".
struct Decision {
  Value value;
  int round;
  friend bool operator==(const Decision&, const Decision&) = default;
};

[[nodiscard]] std::string to_string(Value v);
[[nodiscard]] std::string to_string(const Action& a);
[[nodiscard]] std::string to_string(const std::optional<Value>& v);

std::ostream& operator<<(std::ostream& os, Value v);
std::ostream& operator<<(std::ostream& os, const Action& a);

/// Protocol-agnostic record of one synchronous run, sufficient for checking
/// the EBA specification and for 0-chain analysis. Produced by the simulator
/// and by the threaded runtime.
struct RunRecord {
  int n = 0;           ///< number of agents
  int t = 0;           ///< failure bound of the context
  int rounds = 0;      ///< number of simulated rounds (times 0..rounds)
  std::vector<Value> inits;  ///< initial preferences, size n
  AgentSet nonfaulty;        ///< N(r)

  /// actions[m][i]: action performed by i in round m+1 (chosen at time m).
  std::vector<std::vector<Action>> actions;
  /// sent[m][i]: receivers to which i addressed a non-bot message in round m+1.
  std::vector<std::vector<AgentSet>> sent;
  /// delivered[m][i]: subset of sent[m][i] actually delivered by the adversary.
  std::vector<std::vector<AgentSet>> delivered;

  [[nodiscard]] bool faulty(AgentId i) const { return !nonfaulty.contains(i); }

  /// First round in which i decides, or nullopt.
  [[nodiscard]] std::optional<Decision> decision(AgentId i) const;

  /// Largest decision round over nonfaulty agents; -1 if some never decide.
  [[nodiscard]] int last_nonfaulty_round() const;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

}  // namespace eba
