#include "exchange/authenticated.hpp"

#include <array>

namespace eba {

std::size_t hash_value(const AuthState& s) {
  auto enc = [](const std::optional<Value>& v) -> std::size_t {
    return v ? (*v == Value::zero ? 1u : 2u) : 0u;
  };
  std::size_t h = static_cast<std::size_t>(s.time);
  h = h * 31 + static_cast<std::size_t>(to_int(s.init));
  h = h * 31 + enc(s.decided);
  h = h * 31 + enc(s.jd);
  h = h * 1000003 + static_cast<std::size_t>(s.zeros.bits());
  h = h * 1000003 + static_cast<std::size_t>(s.faults.bits());
  h = h * 31 + static_cast<std::size_t>(s.budget_common);
  h = h * 31 + static_cast<std::size_t>(s.ones);
  h = h * 31 + static_cast<std::size_t>(s.self);
  return h;
}

void AuthExchange::update(State& s, const Action& a,
                          std::span<const std::optional<Message>> inbox) const {
  EBA_REQUIRE(static_cast<int>(inbox.size()) == n_, "inbox size mismatch");
  // δ runs on the pre-round state: the signatures in this inbox were
  // produced at the senders' pre-round time, which equals s.time in a
  // synchronous round. Each slot is verified once, before the accumulator
  // advances s.time; its conviction and budget passes both read the result.
  std::array<const ReportMsg*, kMaxAgents> verified{};
  for (AgentId j = 0; j < n_; ++j) {
    const auto& m = inbox[static_cast<std::size_t>(j)];
    if (m && m->sig == sign(j, s.self, s.time, m->payload))
      verified[static_cast<std::size_t>(j)] = &m->payload;
  }
  detail::accumulate_report_round(n_, t_, s, a, [&](AgentId j) {
    return verified[static_cast<std::size_t>(j)];
  });
}

}  // namespace eba
