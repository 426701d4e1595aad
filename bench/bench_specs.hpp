// Random workload instances for the benches that drive run_workload
// (bench_recovery, bench_durability).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "stats/rng.hpp"

namespace eba::bench {

/// `count` random workload instances: each a sampled adversary (sending
/// omissions, or general omissions with receive faults) over t + 2 rounds
/// and random preferences, all drawn from one Rng seeded with `seed`.
inline std::vector<InstanceSpec> make_specs(int n, int t, std::size_t count,
                                            FailureModel model,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<InstanceSpec> specs;
  specs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    FailurePattern alpha =
        model == FailureModel::sending
            ? sample_adversary(n, t, t + 2, 0.35, rng)
            : sample_go_adversary(n, t, t + 2, 0.35, 0.2, rng);
    specs.push_back({std::move(alpha), sample_preferences(n, rng)});
  }
  return specs;
}

}  // namespace eba::bench
