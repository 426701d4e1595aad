// Shared helpers for the benchmark harness binaries.
#pragma once

#include <vector>

#include "core/types.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "stats/table.hpp"

namespace eba::bench {

inline std::vector<Value> all_ones(int n) {
  return std::vector<Value>(static_cast<std::size_t>(n), Value::one);
}

inline std::vector<Value> one_zero(int n, AgentId who = 0) {
  auto v = all_ones(n);
  v[static_cast<std::size_t>(who)] = Value::zero;
  return v;
}

/// The worst-case "hidden 0-chain" adversary: agents 0..t-1 are faulty;
/// agent k stays silent except for a single delivery to agent k+1 in round
/// k+1, relaying a 0-decision chain that the other agents cannot see. With
/// init_0 = 0 this drives the limited-information protocols to the full t+2
/// rounds.
inline FailurePattern hidden_chain_pattern(int n, int t, int horizon) {
  AgentSet faulty;
  for (AgentId k = 0; k < t; ++k) faulty.insert(k);
  FailurePattern p(n, faulty.complement(n));
  for (AgentId k = 0; k < t; ++k) {
    for (int m = 0; m < horizon; ++m) {
      for (AgentId to = 0; to < n; ++to) {
        if (to == k) continue;
        if (m == k && to == k + 1) continue;  // the single chain delivery
        p.drop(m, k, to);
      }
    }
  }
  return p;
}

}  // namespace eba::bench
