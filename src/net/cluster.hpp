// Cluster runtime: runs an (exchange, action-protocol) pair over the
// byte-payload messaging layer, producing the same RunRecord as the
// abstract simulator for the same inputs (tested).
//
// `run_cluster` is a single-instance wrapper over the instance-oriented
// workload engine (net/workload.hpp): one Stepper + one bus slot, driven by
// one worker. For many concurrent instances call `run_workload` directly.
#pragma once

#include <vector>

#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "net/workload.hpp"

namespace eba {

template <ExchangeProtocol X, class P>
ClusterResult<X> run_cluster(const X& x, const P& act,
                             const FailurePattern& alpha,
                             const std::vector<Value>& inits, int t,
                             int max_rounds = 0) {
  InstanceSpec spec{alpha, inits};
  WorkloadOptions opt;
  opt.workers = 1;
  opt.max_rounds = max_rounds;
  WorkloadResult<X> result =
      run_workload(x, act, std::span<const InstanceSpec>(&spec, 1), t, opt);
  return std::move(result.instances.front());
}

}  // namespace eba
