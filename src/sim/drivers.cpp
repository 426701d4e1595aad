#include "sim/drivers.hpp"

#include "sim/protocol_table.hpp"
#include "sim/stepper.hpp"

namespace eba {

int RunSummary::round_of(AgentId i) const {
  const auto& d = decisions[static_cast<std::size_t>(i)];
  return d ? d->round : -1;
}

namespace {

template <class X, class P>
RunSummary summarize(const X& x, const P& p, const FailurePattern& alpha,
                     const std::vector<Value>& inits, int t,
                     const DriveOptions& opt) {
  // A bare stepper: the drivers never read intermediate states, so the run
  // advances in place with no per-round state materialization.
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  Stepper<X, P> stepper(x, p, alpha, inits, t, sopt);
  while (stepper.step()) {
  }
  RunSummary s;
  s.n = x.n();
  s.rounds = stepper.time();
  s.bits_sent = stepper.bits_sent();
  s.messages_sent = stepper.messages_sent();
  s.record = stepper.take_record();
  s.decisions.reserve(static_cast<std::size_t>(s.n));
  for (AgentId i = 0; i < s.n; ++i) s.decisions.push_back(s.record.decision(i));
  return s;
}

}  // namespace

RunDriver make_min_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_min, n, t, opt);
}

RunDriver make_basic_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_basic, n, t, opt);
}

RunDriver make_fip_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_opt, n, t, opt);
}

RunDriver make_fip_p0_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_opt_p0, n, t, opt);
}

RunDriver make_go_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_opt_go, n, t, opt);
}

RunDriver make_go_p0_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::p_opt_go_p0, n, t, opt);
}

RunDriver make_early_stop_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::early_stop, n, t, opt);
}

RunDriver make_auth_driver(int n, int t, DriveOptions opt) {
  return make_driver(ProtocolKind::authenticated, n, t, opt);
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

RunDriver make_driver(ProtocolKind k, int n, int t, DriveOptions opt) {
  return [=](const FailurePattern& alpha, const std::vector<Value>& inits) {
    return with_protocol(k, n, t, [&](const auto& x, const auto& p) {
      return summarize(x, p, alpha, inits, t, opt);
    });
  };
}

std::vector<NamedDriver> paper_drivers(int n, int t, DriveOptions opt) {
  return {{"P_min", make_min_driver(n, t, opt)},
          {"P_basic", make_basic_driver(n, t, opt)},
          {"P_fip", make_fip_driver(n, t, opt)}};
}

}  // namespace eba
