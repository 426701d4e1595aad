// The synchronous runs-and-systems simulator (paper §3).
//
// Given an information-exchange protocol E, an action protocol P, a failure
// pattern α and initial preferences, the run is uniquely determined. The
// `Stepper` (stepper.hpp) computes it with the paper's round semantics — at
// each time k every agent performs P(s_i), the exchange chooses messages
// µ(s_i, a_i), the adversary filters them, and δ produces the time-(k+1)
// states — and `run_to_end` is the one loop that steps it until it is done.
// Every in-memory entry point calls it: `simulate()` below, the type-erased
// drivers (sim/drivers.hpp), the adaptive runners (sim/adaptive.hpp) and the
// search objectives (sim/objective.cpp). `simulate()` attaches a
// `MaterializingSink` to recover the classic fully-materialized `Run<X>`
// (every agent's state at every time); callers that only need the record run
// a bare Stepper and skip the per-round state copies (sim/drivers.cpp does).
#pragma once

#include <utility>
#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "failure/pattern.hpp"
#include "sim/stepper.hpp"

namespace eba {

/// What a completed run leaves behind: its protocol-agnostic record plus
/// the wire accounting (Prop 8.1's bit count).
struct RunSummary {
  RunRecord record;
  std::size_t bits_sent = 0;
  std::size_t messages_sent = 0;

  /// Largest decision round over nonfaulty agents; -1 if some never decide.
  [[nodiscard]] int last_nonfaulty_round() const {
    return record.last_nonfaulty_round();
  }
  /// Decision round of agent i, or -1.
  [[nodiscard]] int round_of(AgentId i) const {
    const auto d = record.decision(i);
    return d ? d->round : -1;
  }

  friend bool operator==(const RunSummary&, const RunSummary&) = default;
};

/// A fully materialized run: the summary plus the typed state of every
/// agent at every time.
template <ExchangeProtocol X>
struct Run : RunSummary {
  /// states[m][i]: local state of agent i at time m, m in 0..record.rounds.
  std::vector<std::vector<typename X::State>> states;

  friend bool operator==(const Run&, const Run&) = default;
};

/// Steps the instance until it is done and returns its summary. The one
/// run-to-end loop of the in-memory engines; the stepper keeps its final
/// states and (for an adaptive run) its realized pattern.
template <ExchangeProtocol X, class P>
RunSummary run_to_end(Stepper<X, P>& stepper) {
  while (stepper.step()) {
  }
  return {.record = stepper.take_record(),
          .bits_sent = stepper.bits_sent(),
          .messages_sent = stepper.messages_sent()};
}

template <ExchangeProtocol X, class P>
Run<X> simulate(const X& x, const P& act, const FailurePattern& alpha,
                const std::vector<Value>& inits, int t,
                const StepperOptions& opt = {}) {
  MaterializingSink<X> sink;
  Stepper<X, P> stepper(x, act, alpha, inits, t, opt, &sink);
  return {run_to_end(stepper), std::move(sink.states())};
}

}  // namespace eba
