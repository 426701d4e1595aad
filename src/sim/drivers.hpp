// Type-erased protocol drivers: a uniform way for benches, examples and
// cross-protocol comparisons to run P_min, P_basic and P_opt on the same
// (failure pattern, preferences) inputs and read off decision rounds and
// message-bit totals.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "core/types.hpp"
#include "failure/pattern.hpp"
#include "sim/simulator.hpp"

namespace eba {

using RunDriver =
    std::function<RunSummary(const FailurePattern&, const std::vector<Value>&)>;

RunDriver make_min_driver(int n, int t);
RunDriver make_basic_driver(int n, int t);
RunDriver make_fip_driver(int n, int t);
/// Ablation: P0 over the full-information exchange (P_opt with the
/// common-knowledge lines disabled) — correct but not optimal.
RunDriver make_fip_p0_driver(int n, int t);
/// P_opt_go over the full-information exchange — the general-omissions
/// optimal protocol. Correct on GO(t) patterns (and a fortiori on SO(t)).
RunDriver make_go_driver(int n, int t);
/// Ablation: the GO evaluation of P0 (P_opt_go with the common-knowledge
/// lines disabled) — correct in γ_go but not optimal.
RunDriver make_go_p0_driver(int n, int t);
/// P_es over E_report — the early-stopping baseline, deciding in
/// min(f+2, t+2) rounds where f is the realized fault count.
RunDriver make_early_stop_driver(int n, int t);
/// P_auth over E_auth — the signature-authenticated variant of P_es, and
/// the library's first per-destination (non-broadcast) exchange, signing
/// under kDefaultAuthKey.
RunDriver make_auth_driver(int n, int t);

/// The shared master key the authenticated driver signs under when the
/// caller does not supply one.
inline constexpr std::uint64_t kDefaultAuthKey = 0x656261'617574'68ull;

/// Every shipped action protocol, for table-driven consumers (the fuzz
/// harness, the adversary benches, objective evaluators) that pick drivers
/// by value instead of by factory function.
enum class ProtocolKind : std::uint8_t {
  p_min,
  p_basic,
  p_opt,
  p_opt_p0,     ///< P0 over E_fip (common-knowledge lines ablated)
  p_opt_go,
  p_opt_go_p0,  ///< GO evaluation of P0
  // New kinds append here: the fuzz harness seeds runs with the enum value.
  early_stop,   ///< P_es over E_report (early stopping, min(f+2, t+2))
  authenticated,  ///< P_auth over E_auth (signed per-destination reports)
};

[[nodiscard]] const char* to_string(ProtocolKind k);

/// The failure model the protocol is certified for: GO(t) for the _go pair,
/// SO(t) otherwise.
[[nodiscard]] FailureModel model_of(ProtocolKind k);

/// The driver for kind k; the factory functions above are named shorthands.
/// Each run stops at `max_rounds` (0 = t+4) or once every agent decided.
[[nodiscard]] RunDriver make_driver(ProtocolKind k, int n, int t,
                                    int max_rounds = 0);

struct NamedDriver {
  std::string name;
  RunDriver run;
};

/// The paper's three protocols, in the order P_min, P_basic, P_fip.
[[nodiscard]] std::vector<NamedDriver> paper_drivers(int n, int t);

}  // namespace eba
