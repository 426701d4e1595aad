// The seed's pre-Stepper simulate(), retained verbatim as the differential
// oracle for the instance-oriented run engine: it materializes a full
// states[m][i] snapshot every round and rescans `decided` at the top of
// every round, exactly as the original sim/simulator.hpp did. The
// equivalence suite (test_workload.cpp) asserts the Stepper-based
// simulate(), the trace-sink materialization, and the worker-pool cluster
// all reproduce this semantics bit for bit.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "failure/pattern.hpp"
#include "sim/simulator.hpp"

namespace eba::testing {

template <ExchangeProtocol X, class P>
Run<X> reference_simulate(const X& x, const P& act,
                          const FailurePattern& alpha,
                          const std::vector<Value>& inits, int t,
                          const StepperOptions& opt = {}) {
  const int n = x.n();
  EBA_REQUIRE(alpha.n() == n, "pattern/exchange agent count mismatch");
  EBA_REQUIRE(static_cast<int>(inits.size()) == n, "inits size mismatch");
  const int max_rounds = opt.max_rounds > 0 ? opt.max_rounds : t + 4;

  Run<X> run;
  run.record.n = n;
  run.record.t = t;
  run.record.inits = inits;
  run.record.nonfaulty = alpha.nonfaulty();

  run.states.emplace_back();
  run.states.back().reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i)
    run.states.back().push_back(
        x.initial_state(i, inits[static_cast<std::size_t>(i)]));

  std::vector<bool> decided(static_cast<std::size_t>(n), false);
  using Message = typename X::Message;

  for (int m = 0; m < max_rounds; ++m) {
    if (opt.stop_when_all_decided) {
      bool all = true;
      for (bool d : decided) all = all && d;
      if (all) break;
    }
    const auto& cur = run.states[static_cast<std::size_t>(m)];

    // 1. Actions.
    std::vector<Action> actions(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) {
      actions[static_cast<std::size_t>(i)] = act(cur[static_cast<std::size_t>(i)]);
      if (actions[static_cast<std::size_t>(i)].is_decide())
        decided[static_cast<std::size_t>(i)] = true;
    }

    // 2. Messages (broadcast: µ is destination-independent).
    std::vector<std::optional<Message>> outgoing(static_cast<std::size_t>(n));
    std::vector<AgentSet> sent(static_cast<std::size_t>(n));
    std::vector<AgentSet> delivered_to(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) {
      outgoing[static_cast<std::size_t>(i)] =
          x.message(cur[static_cast<std::size_t>(i)],
                    actions[static_cast<std::size_t>(i)], /*dest=*/0);
      if (outgoing[static_cast<std::size_t>(i)]) {
        run.bits_sent +=
            static_cast<std::size_t>(n - 1) *
            x.message_bits(*outgoing[static_cast<std::size_t>(i)]);
        run.messages_sent += static_cast<std::size_t>(n - 1);
        sent[static_cast<std::size_t>(i)] =
            AgentSet::all(n).minus(AgentSet{i});
      }
    }

    // 3. Adversary filtering + delivery; self-delivery always succeeds.
    std::vector<std::vector<std::optional<Message>>> inbox(
        static_cast<std::size_t>(n),
        std::vector<std::optional<Message>>(static_cast<std::size_t>(n)));
    for (AgentId i = 0; i < n; ++i) {
      if (!outgoing[static_cast<std::size_t>(i)]) continue;
      for (AgentId j = 0; j < n; ++j) {
        if (!alpha.delivered(m, i, j)) continue;
        inbox[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
            outgoing[static_cast<std::size_t>(i)];
        if (j != i) delivered_to[static_cast<std::size_t>(i)].insert(j);
      }
    }

    // 4. State updates.
    run.states.emplace_back(cur);
    auto& next = run.states.back();
    for (AgentId i = 0; i < n; ++i)
      x.update(next[static_cast<std::size_t>(i)],
               actions[static_cast<std::size_t>(i)],
               std::span<const std::optional<Message>>(
                   inbox[static_cast<std::size_t>(i)]));

    run.record.actions.push_back(std::move(actions));
    run.record.sent.push_back(std::move(sent));
    run.record.delivered.push_back(std::move(delivered_to));
  }

  run.record.rounds = static_cast<int>(run.record.actions.size());
  return run;
}

}  // namespace eba::testing
