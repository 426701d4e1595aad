#include "core/types.hpp"

#include <algorithm>

namespace eba {

std::string to_string(Value v) { return v == Value::zero ? "0" : "1"; }

std::string to_string(const Action& a) {
  return a.is_decide() ? ("decide(" + to_string(a.value()) + ")") : "noop";
}

std::string to_string(const std::optional<Value>& v) {
  return v.has_value() ? to_string(*v) : "⊥";
}

std::ostream& operator<<(std::ostream& os, Value v) { return os << to_string(v); }
std::ostream& operator<<(std::ostream& os, const Action& a) {
  return os << to_string(a);
}

std::optional<Decision> RunRecord::decision(AgentId i) const {
  EBA_REQUIRE(i >= 0 && i < n, "agent id out of range");
  for (int m = 0; m < static_cast<int>(actions.size()); ++m) {
    const Action& a = actions[m][static_cast<std::size_t>(i)];
    if (a.is_decide()) return Decision{a.value(), m + 1};
  }
  return std::nullopt;
}

int RunRecord::last_nonfaulty_round() const {
  int worst = 0;
  for (AgentId i : nonfaulty) {
    const auto d = decision(i);
    if (!d) return -1;
    worst = std::max(worst, d->round);
  }
  return worst;
}

}  // namespace eba
