// Aggregate-throughput benchmark for the instance-oriented run engine
// (BENCH_throughput.json).
//
// Sweeps (instances × n × failure density × protocol) through the
// worker-pool workload driver (net/workload.hpp): every instance is one
// Stepper + one BusPool slot, all instances are concurrently in flight, and
// a fixed worker pool multiplexes them. Reports aggregate decided
// instances per second and p50/p99 admission-to-completion decision
// latency (stats/agg percentiles), plus a 256-instance P_opt point rerun at
// pinned worker counts (worker scaling).
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_throughput.json by ci/run_benches.cmake and gated by
// ci/check_bench.py on the headline decided/sec); human-readable table on
// stderr.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "exchange/basic.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "stats/agg.hpp"
#include "stats/rng.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

struct PointResult {
  std::string protocol;
  int instances = 0;
  int n = 0;
  int t = 0;
  double density = 0;
  int workers = 0;
  int completed = 0;  ///< instances in which every nonfaulty agent decided
  double wall_seconds = 0;
  double decided_per_sec = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double mean_rounds = 0;
  Aggregate latency;  ///< per-instance latencies, for per-protocol merges
};

std::vector<InstanceSpec> make_specs(int instances, int n, int t,
                                     double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<InstanceSpec> specs;
  specs.reserve(static_cast<std::size_t>(instances));
  for (int k = 0; k < instances; ++k) {
    FailurePattern alpha = density > 0.0
                               ? sample_adversary(n, t, t + 2, density, rng)
                               : FailurePattern::failure_free(n);
    specs.push_back({std::move(alpha), sample_preferences(n, rng)});
  }
  return specs;
}

bool all_nonfaulty_decided(const RunRecord& record) {
  for (AgentId i : record.nonfaulty)
    if (!record.decision(i)) return false;
  return true;
}

template <class X, class P>
PointResult run_point(const X& x, const P& p, const std::string& protocol,
                      int instances, int t, double density,
                      std::uint64_t seed, int workers = 0) {
  const auto specs = make_specs(instances, x.n(), t, density, seed);
  WorkloadOptions opt;
  opt.workers = workers;
  const auto result = run_workload(x, p, std::span(specs), t, opt);

  PointResult point;
  point.protocol = protocol;
  point.instances = instances;
  point.n = x.n();
  point.t = t;
  point.density = density;
  point.workers = result.workers;
  point.wall_seconds = result.wall_seconds;
  double rounds = 0;
  for (std::size_t k = 0; k < result.instances.size(); ++k) {
    const RunRecord& record = result.instances[k].record;
    rounds += record.rounds;
    if (all_nonfaulty_decided(record)) {
      point.completed += 1;
      point.latency.add(result.latency_us[k]);
    }
  }
  point.decided_per_sec =
      point.wall_seconds > 0 ? point.completed / point.wall_seconds : 0;
  point.mean_rounds = instances > 0 ? rounds / instances : 0;
  if (point.latency.count() > 0) {
    point.p50_latency_us = point.latency.percentile(0.5);
    point.p99_latency_us = point.latency.percentile(0.99);
  }
  return point;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void json_point(std::ostringstream& out, const PointResult& p,
                const char* indent) {
  out << indent << "{\"protocol\": \"" << p.protocol
      << "\", \"instances\": " << p.instances << ", \"n\": " << p.n
      << ", \"t\": " << p.t << ", \"failure_density\": " << fmt(p.density)
      << ", \"workers\": " << p.workers
      << ", \"completed\": " << p.completed
      << ", \"wall_seconds\": " << fmt(p.wall_seconds)
      << ", \"decided_per_sec\": " << fmt(p.decided_per_sec)
      << ", \"p50_latency_us\": " << fmt(p.p50_latency_us)
      << ", \"p99_latency_us\": " << fmt(p.p99_latency_us)
      << ", \"mean_rounds\": " << fmt(p.mean_rounds) << "}";
}

}  // namespace
}  // namespace eba::bench

int main() {
  using namespace eba;
  using namespace eba::bench;

  const int workers =
      static_cast<int>(std::thread::hardware_concurrency());

  // --- sweep: instances × n × failure density × protocol ------------------
  std::vector<PointResult> sweep;
  for (double density : {0.0, 0.3}) {
    sweep.push_back(run_point(MinExchange(8), PMin(8, 2), "P_min", 1024, 2,
                              density, 11));
    sweep.push_back(run_point(BasicExchange(8), PBasic(8, 2), "P_basic", 1024,
                              2, density, 12));
    sweep.push_back(run_point(FipExchange(8), POpt(8, 2), "P_opt", 256, 2,
                              density, 13));
    sweep.push_back(run_point(FipExchange(8), POpt(8, 2), "P_opt", 1024, 2,
                              density, 14));
  }
  // Scale axes: smaller/larger agent counts under load.
  sweep.push_back(
      run_point(FipExchange(4), POpt(4, 1), "P_opt", 2048, 1, 0.3, 15));
  sweep.push_back(
      run_point(FipExchange(16), POpt(16, 4), "P_opt", 128, 4, 0.3, 16));

  // --- headline: ≥1000 concurrent P_opt instances under failures ----------
  const PointResult headline =
      run_point(FipExchange(8), POpt(8, 2), "P_opt", 1024, 2, 0.3, 17);

  // --- worker scaling: the headline point at pinned worker counts ---------
  // The workers:1 row is the blind spot the scaling gate closes: every
  // other point runs at hardware concurrency, so a scheduler regression
  // that only bites multi-worker configurations (or a pool that got SLOWER
  // than single-threaded) would otherwise go unmeasured. check_bench.py
  // gates multi-worker throughput against the workers:1 row (with a small
  // tolerance — single-core CI runners cannot beat 1 worker).
  std::vector<PointResult> scaling;
  for (int w : {1, 2, 4})
    scaling.push_back(
        run_point(FipExchange(8), POpt(8, 2), "P_opt", 256, 2, 0.3, 19, w));

  // --- per-protocol latency summaries (stats/agg merge) -------------------
  struct ProtocolSummary {
    std::string protocol;
    Aggregate latency;
  };
  std::vector<ProtocolSummary> summaries;
  for (const PointResult& p : sweep) {
    ProtocolSummary* s = nullptr;
    for (ProtocolSummary& existing : summaries)
      if (existing.protocol == p.protocol) s = &existing;
    if (!s) {
      summaries.push_back({p.protocol, {}});
      s = &summaries.back();
    }
    s->latency.merge(p.latency);
  }

  // --- human-readable report (stderr) -------------------------------------
  std::cerr << "=== bench_throughput: aggregate decided-instances/sec over "
               "the worker-pool workload driver ===\n\n";
  Table table({"protocol", "instances", "n", "density", "decided/s",
               "p50 us", "p99 us", "rounds"});
  for (const PointResult& p : sweep)
    table.row(p.protocol, p.instances, p.n, p.density, p.decided_per_sec,
              p.p50_latency_us, p.p99_latency_us, p.mean_rounds);
  table.print(std::cerr);
  std::cerr << "\nheadline: " << headline.completed << "/"
            << headline.instances
            << " concurrent P_opt instances decided, "
            << fmt(headline.decided_per_sec) << " decided/s over "
            << headline.workers << " workers\n";
  std::cerr << "worker scaling (256 P_opt instances): ";
  for (const PointResult& p : scaling)
    std::cerr << p.workers << "w=" << fmt(p.decided_per_sec) << "/s ";
  std::cerr << "\n";

  // --- machine-readable JSON (stdout) -------------------------------------
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"bench_throughput\",\n";
  out << "  \"workers\": " << workers << ",\n";
  out << "  \"concurrent_instances\": " << headline.instances << ",\n";
  out << "  \"headline\": ";
  json_point(out, headline, "");
  out << ",\n";
  out << "  \"worker_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    json_point(out, scaling[i], "    ");
    out << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"protocol_latency\": [\n";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto& s = summaries[i];
    out << "    {\"protocol\": \"" << s.protocol
        << "\", \"count\": " << s.latency.count() << ", \"p50_latency_us\": "
        << fmt(s.latency.count() ? s.latency.percentile(0.5) : 0)
        << ", \"p99_latency_us\": "
        << fmt(s.latency.count() ? s.latency.percentile(0.99) : 0) << "}"
        << (i + 1 < summaries.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    json_point(out, sweep[i], "    ");
    out << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << out.str();

  // The bench fails loudly if the engine stopped deciding: the acceptance
  // invariant CI relies on.
  if (headline.completed < 1000) {
    std::cerr << "FAIL: fewer than 1000 concurrent instances completed\n";
    return 1;
  }
  return 0;
}
