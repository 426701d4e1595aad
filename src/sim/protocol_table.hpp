// The one ProtocolKind → (exchange, action) table, internal to sim/. The
// type-erased run drivers (drivers.cpp) and the adaptive drivers
// (adaptive.cpp) both dispatch through it, so each kind is wired up once.
#pragma once

#include "action/authenticated.hpp"
#include "action/early_stop.hpp"
#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "exchange/authenticated.hpp"
#include "exchange/basic.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "exchange/report.hpp"
#include "sim/drivers.hpp"

namespace eba {

/// Builds kind k's exchange and action protocol for (n, t) and returns
/// fn(exchange, action). Both are temporaries that live through the call.
template <class Fn>
decltype(auto) with_protocol(ProtocolKind k, int n, int t, Fn&& fn) {
  switch (k) {
    case ProtocolKind::p_min:
      return fn(MinExchange(n), PMin(n, t));
    case ProtocolKind::p_basic:
      return fn(BasicExchange(n), PBasic(n, t));
    case ProtocolKind::p_opt:
      return fn(FipExchange(n), POpt(n, t));
    case ProtocolKind::p_opt_p0:
      return fn(FipExchange(n), POpt(n, t, POpt::CommonKnowledge::disabled));
    case ProtocolKind::p_opt_go:
      return fn(FipExchange(n), POptGo(n, t));
    case ProtocolKind::p_opt_go_p0:
      return fn(FipExchange(n),
                POptGo(n, t, POptGo::CommonKnowledge::disabled));
    case ProtocolKind::early_stop:
      return fn(ReportExchange(n, t), PEarlyStop(n, t));
    case ProtocolKind::authenticated:
      return fn(AuthExchange(n, t, kDefaultAuthKey), PAuth(n, t));
  }
  // Unconditional [[noreturn]] call, so every compiler sees that control
  // never falls off the end (GCC's TSan build warns about EBA_REQUIRE here).
  detail::contract_failure("valid ProtocolKind", __FILE__, __LINE__,
                           "unknown protocol kind");
}

}  // namespace eba
