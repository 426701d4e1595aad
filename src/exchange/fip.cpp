#include "exchange/fip.hpp"

#include <algorithm>

namespace eba {

void FipExchange::update(State& s, const Action& a,
                         std::span<const std::optional<Message>> inbox) const {
  EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
  AgentSet received;
  for (AgentId j = 0; j < n_; ++j)
    if (inbox[static_cast<std::size_t>(j)]) received.insert(j);
  update_joined(s, a, received, nullptr, inbox, received);
}

void FipExchange::join(Join& u,
                       std::span<const std::optional<Message>> by_sender,
                       AgentSet common) const {
  const auto graph = [&](AgentId i) -> const CommGraph& {
    return *by_sender[static_cast<std::size_t>(i)].value();
  };
  int time = 0;
  for (AgentId i : common) time = std::max(time, graph(i).time());
  if (!u) u.emplace(n_, 0, Value::zero);
  u->reset_blank(n_, time);
  for (AgentId i : common) u->merge(graph(i));
}

void FipExchange::update_joined(
    State& s, const Action& a, AgentSet received, const Join* u,
    std::span<const std::optional<Message>> by_sender, AgentSet extra) const {
  CommGraph& g = s.writable_graph();
  g.advance_round(s.self, received);
  if (u) g.merge(**u);
  for (AgentId i : extra.minus(AgentSet{s.self}))
    g.merge(*by_sender[static_cast<std::size_t>(i)].value());

  s.time += 1;
  if (a.is_decide()) {
    EBA_REQUIRE(!s.decided, "double decision reached the exchange");
    s.decided = a.value();
  }
}

}  // namespace eba
