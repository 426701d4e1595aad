#include "sim/drivers.hpp"

#include "sim/protocol_table.hpp"

namespace eba {

RunDriver make_min_driver(int n, int t) {
  return make_driver(ProtocolKind::p_min, n, t);
}

RunDriver make_basic_driver(int n, int t) {
  return make_driver(ProtocolKind::p_basic, n, t);
}

RunDriver make_fip_driver(int n, int t) {
  return make_driver(ProtocolKind::p_opt, n, t);
}

RunDriver make_fip_p0_driver(int n, int t) {
  return make_driver(ProtocolKind::p_opt_p0, n, t);
}

RunDriver make_go_driver(int n, int t) {
  return make_driver(ProtocolKind::p_opt_go, n, t);
}

RunDriver make_go_p0_driver(int n, int t) {
  return make_driver(ProtocolKind::p_opt_go_p0, n, t);
}

RunDriver make_early_stop_driver(int n, int t) {
  return make_driver(ProtocolKind::early_stop, n, t);
}

RunDriver make_auth_driver(int n, int t) {
  return make_driver(ProtocolKind::authenticated, n, t);
}

const char* to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::p_min:
      return "P_min";
    case ProtocolKind::p_basic:
      return "P_basic";
    case ProtocolKind::p_opt:
      return "P_opt";
    case ProtocolKind::p_opt_p0:
      return "P_opt_p0";
    case ProtocolKind::p_opt_go:
      return "P_opt_go";
    case ProtocolKind::p_opt_go_p0:
      return "P_opt_go_p0";
    case ProtocolKind::early_stop:
      return "P_es";
    case ProtocolKind::authenticated:
      return "P_auth";
  }
  return "?";
}

FailureModel model_of(ProtocolKind k) {
  return k == ProtocolKind::p_opt_go || k == ProtocolKind::p_opt_go_p0
             ? FailureModel::general
             : FailureModel::sending;
}

RunDriver make_driver(ProtocolKind k, int n, int t, int max_rounds) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return with_protocol(k, n, t, [&](const auto& x, const auto& p) {
      // A bare stepper: the drivers never read intermediate states, so the
      // run advances in place with no per-round state materialization.
      Stepper stepper(x, p, alpha, inits, t, {.max_rounds = max_rounds});
      return run_to_end(stepper);
    });
  };
}

std::vector<NamedDriver> paper_drivers(int n, int t) {
  return {{"P_min", make_min_driver(n, t)},
          {"P_basic", make_basic_driver(n, t)},
          {"P_fip", make_fip_driver(n, t)}};
}

}  // namespace eba
