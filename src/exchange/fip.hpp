// E_fip(n): the full-information exchange (paper §7, §A.2.7).
//
// Local states are ⟨time, init, G⟩ where G is the agent's communication
// graph; every round every agent broadcasts its current graph. Per §7 the
// decision history is *not* part of the local state (so corresponding runs
// of different action protocols have identical states); `FipState` carries a
// cached `decided` flag and an inferred-action table for the action
// protocol's convenience, but equality and hashing ignore both.
//
// A state shares its graph with the messages µ sends from it, so a
// broadcast costs no copy. δ copies the graph only if it must write while
// a message or a copied state still holds it. On the wire path nothing
// does, since the payloads are encoded and decoded by then, and δ writes
// in place.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/types.hpp"
#include "graph/action_table.hpp"
#include "graph/comm_graph.hpp"

namespace eba {

/// An agent's E_fip local state. The graph is held behind a shared pointer
/// so that µ can hand it out without a copy: the message and the state share
/// one graph until δ writes it. δ writes in place when the state is the
/// graph's only owner, and first clones it while a message or a copied state
/// still holds it (copy-on-write), so every holder keeps the value it saw.
struct FipState {
  FipState(int time, AgentId self, Value init, CommGraph graph)
      : time(time),
        self(self),
        init(init),
        graph_(std::make_shared<CommGraph>(std::move(graph))) {}

  int time = 0;
  AgentId self = 0;
  Value init = Value::zero;

  /// Cached decision status (derived information; excluded from equality).
  std::optional<Value> decided;
  /// Lazily filled inferred-action cache, owned by POpt (excluded from
  /// equality): the only derived knowledge kept, since d(j, m) outlives the
  /// round (action/p_opt.hpp). Mutable so the action protocol, a pure
  /// function of the state, can memoize.
  mutable ActionTable inferred;

  [[nodiscard]] const CommGraph& graph() const { return *graph_; }
  /// The graph as µ sends it: shared, never copied.
  [[nodiscard]] const std::shared_ptr<const CommGraph>& shared_graph() const {
    return graph_;
  }
  /// The graph for δ (or a state decoder) to write: this state's own graph
  /// when nothing else holds it, else a clone with room for one more round,
  /// which replaces it.
  [[nodiscard]] CommGraph& writable_graph() {
    if (CommGraph* own = sole_owned(graph_)) return *own;
    auto copy = std::make_shared<CommGraph>(
        graph_->copy_with_room(graph_->time() + 1));
    CommGraph& out = *copy;
    graph_ = std::move(copy);
    return out;
  }

  friend bool operator==(const FipState& a, const FipState& b) {
    return a.time == b.time && a.self == b.self && a.init == b.init &&
           (a.graph_ == b.graph_ || *a.graph_ == *b.graph_);
  }

 private:
  std::shared_ptr<const CommGraph> graph_;
};

[[nodiscard]] inline std::size_t hash_value(const FipState& s) {
  std::size_t h = static_cast<std::size_t>(s.time);
  h = h * 31 + static_cast<std::size_t>(s.self);
  h = h * 31 + static_cast<std::size_t>(to_int(s.init));
  h = h * 31 + s.graph().hash();
  return h;
}

class FipExchange {
 public:
  using State = FipState;
  /// The sender's graph, shared with its state (see FipState): a message
  /// holder never sees it change, and µ costs one reference count.
  using Message = std::shared_ptr<const CommGraph>;
  /// µ ignores the destination: the graph is broadcast to everyone.
  static constexpr bool kBroadcast = true;

  explicit FipExchange(int n) : n_(n) {
    EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
  }

  [[nodiscard]] int n() const { return n_; }

  [[nodiscard]] State initial_state(AgentId i, Value init) const {
    return State(0, i, init, CommGraph(n_, i, init));
  }

  /// µ: broadcast the full graph every round. The EBA-context constraint on
  /// µ is met because a receiver reconstructs the sender's state and infers
  /// its action, so decide(0)/decide(1)/other messages are distinguishable.
  [[nodiscard]] std::optional<Message> message(const State& s,
                                               const Action& /*a*/,
                                               AgentId /*dest*/) const {
    return s.shared_graph();
  }

  [[nodiscard]] std::size_t message_bits(const Message& m) const {
    return m->bit_size();
  }

  void update(State& s, const Action& a,
              std::span<const std::optional<Message>> inbox) const;

  /// The joined δ (JoinDelta in sim/stepper.hpp), pinned against `update`:
  /// join() makes U the union of the graphs of `common`, as long as the
  /// longest; update_joined() merges U (if any) and by_sender[i], i ∈ extra.
  using Join = std::optional<CommGraph>;
  void join(Join& u, std::span<const std::optional<Message>> by_sender,
            AgentSet common) const;
  void update_joined(State& s, const Action& a, AgentSet received,
                     const Join* u,
                     std::span<const std::optional<Message>> by_sender,
                     AgentSet extra) const;

 private:
  int n_;
};

}  // namespace eba

template <>
struct std::hash<eba::FipState> {
  std::size_t operator()(const eba::FipState& s) const noexcept {
    return eba::hash_value(s);
  }
};
