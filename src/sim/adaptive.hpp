// Adaptive omission adversaries (cf. Hajiaghayi–Kowalski–Olkowski,
// arXiv:2405.04762): strategy objects that watch each staged round through
// the Stepper's AdversaryHook and choose send/receive drops ONLINE, instead
// of committing a failure pattern up front.
//
// The hook contract (sim/stepper.hpp StagedRound) is the whole interface:
// at the top of every round the strategy sees the actions every agent is
// about to perform — in particular who is deciding — and may add drops to
// the instance's pattern at the current or later rounds. `make_strategy_hook`
// wraps a strategy with the legality checks that make it a *valid* GO(t)
// (resp. SO(t)) adversary: the realized pattern stays within the t-budget
// and the model's plane (no receive drops under SO), past rounds are never
// rewritten, and the faulty set is fixed at base_pattern() time. Plane
// validity per drop — only faulty agents omit — is enforced by
// FailurePattern itself.
//
// Shipped strategies (factories below; tests/test_strategy.cpp certifies
// validity, tests/test_workload.cpp the engine-identity):
//
//  * deafen-the-decider — every faulty agent receive-drops the broadcasts
//    of agents staging a decide (GO), and a faulty agent that is itself
//    deciding mutes its own announcement (both models): decisions spread
//    as slowly as the budget allows.
//  * isolate-a-chain    — the classic hidden-chain lower-bound adversary:
//    faulty agent m behaves correctly until round m+1, where it delivers
//    only to the next chain member and then crashes; the LAST chain hop is
//    chosen online — the lowest-id nonfaulty agent that has not decided
//    yet. Drives P_min-style protocols to the Prop 6.1 bound t+2.
//  * randomized-budget  — seeded per-round coin flips on every legal drop;
//    the RNG consumption is observation-independent, so a seed fully
//    determines the realized pattern (the fuzz harness and the engine
//    differential rely on this).
//
// Strategies are stateful (chain progress, RNG). Run each instance with a
// FRESH strategy object; the runners below take one by reference and
// `run_adaptive_workload` (net/workload.hpp) owns one per instance.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "failure/pattern.hpp"
#include "sim/drivers.hpp"
#include "sim/simulator.hpp"
#include "sim/stepper.hpp"

namespace eba {

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// The budget the strategy promises to respect: SO(t) forbids receive
  /// drops, GO(t) allows both planes.
  [[nodiscard]] virtual FailureModel model() const = 0;
  /// Called once before round 0: commits the faulty set (and any
  /// precommitted drops). The faulty set cannot change afterwards.
  [[nodiscard]] virtual FailurePattern base_pattern() = 0;
  /// Observes one staged round; may add drops at rounds >= obs.round.
  virtual void on_round(const StagedRound& obs, FailurePattern& alpha) = 0;

  /// Snapshot of the strategy's mutable state (RNG position, chain
  /// progress), opaque to callers. Restoring it must make the strategy
  /// replay the exact drops it produced after the checkpoint was taken —
  /// the crash/restore differential (tests/test_recovery.cpp) depends on
  /// it. Stateless strategies return/accept the empty string.
  [[nodiscard]] virtual std::string checkpoint_state() const { return {}; }
  virtual void restore_state(const std::string& state) {
    EBA_REQUIRE(state.empty(), "stateless strategy given a nonempty state");
  }
};

std::unique_ptr<AdversaryStrategy> make_deafen_decider_strategy(
    int n, int t, FailureModel model);
std::unique_ptr<AdversaryStrategy> make_isolate_chain_strategy(int n, int t);
std::unique_ptr<AdversaryStrategy> make_random_budget_strategy(
    int n, int t, FailureModel model, std::uint64_t seed,
    double drop_prob = 0.35);

struct NamedStrategyFactory {
  std::string name;
  std::function<std::unique_ptr<AdversaryStrategy>(std::uint64_t seed)> make;
};

/// Every shipped strategy applicable under `model`, as seedable factories
/// (the deterministic strategies ignore the seed).
[[nodiscard]] std::vector<NamedStrategyFactory> shipped_strategies(
    int n, int t, FailureModel model);

/// Wraps a strategy as a Stepper hook and enforces the validity contract
/// after every invocation: model/budget via in_model, and no rewriting of
/// rounds before the staged one.
[[nodiscard]] AdversaryHook make_strategy_hook(AdversaryStrategy& strat,
                                               int t);

/// The one adaptive setup: builds a stepper whose pattern is the strategy's
/// base pattern (which must lie in the strategy's model and budget) and
/// whose adversary hook is `make_strategy_hook(strat, t)`.
template <ExchangeProtocol X, class P>
Stepper<X, P> adaptive_stepper(const X& x, const P& act,
                               AdversaryStrategy& strat,
                               std::vector<Value> inits, int t,
                               const StepperOptions& opt,
                               TraceSink<X>* sink = nullptr) {
  FailurePattern base = strat.base_pattern();
  EBA_REQUIRE(base.in_model(strat.model(), t),
              "strategy base pattern outside its model/budget");
  Stepper<X, P> stepper(x, act, std::move(base), std::move(inits), t, opt,
                        sink);
  stepper.set_adversary_hook(make_strategy_hook(strat, t));
  return stepper;
}

/// What an adaptive run leaves behind: the usual summary plus the pattern
/// the strategy actually realized (for validity assertions and for
/// replaying the run as a static adversary).
struct AdaptiveOutcome {
  RunSummary summary;
  FailurePattern realized = FailurePattern::failure_free(1);
};

/// Bare-Stepper adaptive run (the adaptive analogue of the drivers).
template <ExchangeProtocol X, class P>
AdaptiveOutcome run_adaptive(const X& x, const P& act,
                             AdversaryStrategy& strat,
                             const std::vector<Value>& inits, int t,
                             const StepperOptions& opt = {}) {
  Stepper<X, P> stepper = adaptive_stepper(x, act, strat, inits, t, opt);
  return {.summary = run_to_end(stepper), .realized = stepper.pattern()};
}

/// `simulate()` against an adaptive adversary: full state materialization,
/// same realized-pattern side channel.
template <ExchangeProtocol X, class P>
Run<X> simulate_adaptive(const X& x, const P& act, AdversaryStrategy& strat,
                         const std::vector<Value>& inits, int t,
                         const StepperOptions& opt = {},
                         FailurePattern* realized = nullptr) {
  MaterializingSink<X> sink;
  Stepper<X, P> stepper = adaptive_stepper(x, act, strat, inits, t, opt, &sink);
  Run<X> run{run_to_end(stepper), std::move(sink.states())};
  if (realized) *realized = stepper.pattern();
  return run;
}

/// Type-erased adaptive runner, dispatched on ProtocolKind like
/// make_driver; each run stops at t+4 rounds or once every agent decided.
using AdaptiveDriver =
    std::function<AdaptiveOutcome(AdversaryStrategy&, const std::vector<Value>&)>;

[[nodiscard]] AdaptiveDriver make_adaptive_driver(ProtocolKind k, int n,
                                                  int t);

}  // namespace eba
