#include "exchange/fip.hpp"

namespace eba {

void FipExchange::update(State& s, const Action& a,
                         std::span<const std::optional<Message>> inbox) const {
  EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
  AgentSet received;
  for (AgentId j = 0; j < n_; ++j)
    if (inbox[static_cast<std::size_t>(j)]) received.insert(j);

  s.graph.advance_round(s.self, received);
  for (AgentId j = 0; j < n_; ++j) {
    const auto& m = inbox[static_cast<std::size_t>(j)];
    if (m && j != s.self) s.graph.merge(**m);
  }

  s.time += 1;
  if (a.is_decide()) {
    EBA_REQUIRE(!s.decided, "double decision reached the exchange");
    s.decided = a.value();
  }
}

}  // namespace eba
