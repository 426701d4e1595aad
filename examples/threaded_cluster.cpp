// Cluster demo: the optimal full-information protocol P_opt running over
// the byte-level messaging layer — one agreement instance occupying a bus
// slot, its eight agents' graph payloads serialized, adversary-filtered
// and delivered each round — with an Example 7.1-style adversary injected
// (four faulty agents go silent). The nonfaulty agents detect all four
// faults in round 1, gain common knowledge of them in round 2, and decide
// in round 3 — nine rounds before the limited-information protocols
// would. A second act pushes 64 such instances through the worker-pool
// workload driver at once.
#include <iostream>

#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "failure/generators.hpp"
#include "net/cluster.hpp"
#include "net/workload.hpp"

int main() {
  using namespace eba;
  const int n = 8;
  const int t = 4;

  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const FailurePattern alpha = silent_agents_pattern(n, silent, t + 3);
  const std::vector<Value> prefs(n, Value::one);

  std::cout << "running " << n << " agents over the bus (" << t
            << " faulty, silent)...\n";
  const auto result = run_cluster(FipExchange(n), POpt(n, t), alpha, prefs, t);

  std::cout << "cluster stopped after " << result.record.rounds << " rounds\n\n";
  for (AgentId i = 0; i < n; ++i) {
    const auto d = result.record.decision(i);
    std::cout << "agent " << i << (alpha.is_nonfaulty(i) ? "          " : " (faulty) ");
    if (d)
      std::cout << "decided " << to_string(d->value) << " in round " << d->round;
    else
      std::cout << "never decided (it was silenced before it could learn anything)";
    std::cout << '\n';
  }

  // What did a nonfaulty agent know, and when?
  const auto& g = result.final_states[static_cast<std::size_t>(t)].graph();
  std::cout << "\nagent " << t << "'s communication graph covers " << g.time()
            << " rounds, " << g.bit_size() << " bits\n";

  const SpecReport report = check_eba(result.record);
  std::cout << "EBA specification: "
            << (report.ok() ? "SATISFIED" : "VIOLATED") << '\n';
  if (!report.ok()) return 1;

  // Act two: the same scenario as a workload — 64 concurrent instances,
  // each one Stepper + one bus slot, multiplexed over the worker pool.
  std::vector<InstanceSpec> specs(64, {alpha, prefs});
  const auto workload =
      run_workload(FipExchange(n), POpt(n, t), std::span(specs), t);
  int ok = 0;
  for (const auto& inst : workload.instances)
    if (check_eba(inst.record).ok()) ++ok;
  std::cout << "\nworkload: " << ok << "/" << specs.size()
            << " concurrent instances satisfied the spec over "
            << workload.workers << " worker(s) in "
            << workload.wall_seconds * 1e3 << " ms\n";
  return ok == static_cast<int>(specs.size()) ? 0 : 1;
}
