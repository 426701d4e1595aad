// E_auth(n, t, key): the authenticated fault-report exchange — E_report's
// evidence with a per-destination HMAC-style signature (cf. Spiegelman's
// optimal authenticated BA, PAPERS.md).
//
// This is the library's first NON-broadcast exchange: µ depends on the
// destination, because each report is signed over (sender, dest, time,
// payload) with the sender's key, derived from a shared master key via
// audit/digest.hpp's KeyedDigest64 — no crypto dependency. The engine
// therefore takes its per-destination-µ path (stepper generic rounds and
// the net/ wire staging), which E_auth exists to exercise: under pure
// omission failures authentication buys no rounds over E_report — nobody
// lies, so the signatures all verify and P_auth decides exactly when P_es
// does — it just prices what the signature costs (64 bits per message and
// n distinct µ evaluations per sender per round). δ verifies every inbox
// signature once and treats a mismatch as ⊥, converting forgery into
// omission.
//
// The constructor caches one signer prefix per sender: a KeyedDigest64 that
// has already absorbed the sender key's inner pad and the sender id. sign()
// copies the prefix and absorbs only (dest, time, payload), so an edge costs
// about 42 FNV byte-steps instead of about 90 (key derivation included), and
// every signature is bit-identical to the from-scratch computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "audit/digest.hpp"
#include "core/agent_set.hpp"
#include "core/types.hpp"
#include "exchange/report.hpp"

namespace eba {

/// A signed report. The sender id is not carried: the inbox slot (and the
/// wire route) names the sender, and the signature binds it, so a report
/// replayed into another slot fails verification.
struct AuthMsg {
  ReportMsg payload;
  std::uint64_t sig = 0;

  friend bool operator==(const AuthMsg&, const AuthMsg&) = default;
};

/// ReportState plus the agent's own id — δ and µ need it to verify and
/// produce signatures bound to (sender, dest).
struct AuthState {
  int time = 0;
  Value init = Value::zero;
  std::optional<Value> decided;
  std::optional<Value> jd;
  AgentSet zeros;
  AgentSet faults;
  bool budget_common = false;
  int ones = 0;  ///< see ReportState::ones
  AgentId self = 0;

  friend bool operator==(const AuthState&, const AuthState&) = default;
};

[[nodiscard]] std::size_t hash_value(const AuthState& s);

class AuthExchange {
 public:
  using State = AuthState;
  using Message = AuthMsg;
  // No kBroadcast marker: µ is destination-dependent, so the engine runs
  // its per-destination µ loop (stepper.hpp) and per-destination wire
  // staging (net/workload.hpp).

  AuthExchange(int n, int t, std::uint64_t master_key)
      : n_(n), t_(t), master_key_(master_key) {
    EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "agent count out of range");
    EBA_REQUIRE(t >= 0 && n - t >= 2, "E_auth requires 0 <= t <= n-2");
    signers_.reserve(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) {
      KeyedDigest64& d = signers_.emplace_back(agent_key(i));
      d.u32(static_cast<std::uint32_t>(i));
    }
  }

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int t() const { return t_; }
  [[nodiscard]] std::uint64_t master_key() const { return master_key_; }

  /// Agent i's signing key, derived from the master key. Every agent holds
  /// the master key (shared-secret authentication, not public-key).
  [[nodiscard]] std::uint64_t agent_key(AgentId i) const {
    KeyedDigest64 d(master_key_);
    d.u64(0x656261206b657900ull);  // "eba key\0"
    d.u32(static_cast<std::uint32_t>(i));
    return d.value();
  }

  /// Signature over (sender, dest, time, payload) under the sender's key,
  /// continued from the sender's cached prefix.
  [[nodiscard]] std::uint64_t sign(AgentId sender, AgentId dest, int time,
                                   const ReportMsg& m) const {
    KeyedDigest64 d = signers_[static_cast<std::size_t>(sender)];
    d.u32(static_cast<std::uint32_t>(dest));
    d.u32(static_cast<std::uint32_t>(time));
    auto tag = [&](const std::optional<Value>& v) {
      d.u8(v ? (*v == Value::zero ? 1 : 2) : 0);
    };
    tag(m.fresh_decide);
    tag(m.decided_ever);
    d.word(m.zeros);
    d.word(m.faults);
    return d.value();
  }

  [[nodiscard]] State initial_state(AgentId i, Value init) const {
    return State{.time = 0,
                 .init = init,
                 .decided = {},
                 .jd = {},
                 .zeros = {},
                 .faults = {},
                 .budget_common = false,
                 .ones = 0,
                 .self = i};
  }

  /// Never ⊥, like E_report — but signed per destination.
  [[nodiscard]] std::optional<Message> message(const State& s, const Action& a,
                                               AgentId dest) const {
    Message m;
    if (a.is_decide()) m.payload.fresh_decide = a.value();
    m.payload.decided_ever =
        a.is_decide() ? std::optional<Value>(a.value()) : s.decided;
    m.payload.zeros = s.zeros;
    m.payload.faults = s.faults;
    m.sig = sign(s.self, dest, s.time, m.payload);
    return m;
  }

  /// E_report's payload plus the 64-bit signature.
  [[nodiscard]] std::size_t message_bits(const Message& /*m*/) const {
    return 2 * static_cast<std::size_t>(n_) + 4 + 64;
  }

  void update(State& s, const Action& a,
              std::span<const std::optional<Message>> inbox) const;

 private:
  int n_;
  int t_;
  std::uint64_t master_key_;
  /// Per sender: KeyedDigest64(agent_key(i)) with i already absorbed.
  std::vector<KeyedDigest64> signers_;
};

}  // namespace eba

template <>
struct std::hash<eba::AuthState> {
  std::size_t operator()(const eba::AuthState& s) const noexcept {
    return eba::hash_value(s);
  }
};
