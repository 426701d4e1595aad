// General-omissions benchmark (BENCH_go.json).
//
// Three GO(t) workload points for P_opt_go (action/p_opt_go.hpp):
//
//   * headline — the exhaustive spec sweep at n = 4, t = 2 (drops on both
//     planes in round 1): one representative world per (renaming orbit ×
//     stabilizer preference class) is simulated and checked against the EBA
//     spec, with the world weights certified to cover the whole
//     (GO pattern × preference) space (failure/orbit_sweep.hpp). This is
//     the "model-checking throughput" number: it exercises the clause
//     (vertex-cover) fault machinery, the GO chain test and the
//     common-knowledge test on every shape of 2-fault adversary.
//   * scale — decided-runs/sec over sampled GO adversaries at n = 16,
//     t = 2 (both planes, p = 0.3), spec-checked; the per-decision cost of
//     the cover reasoning at a bench-scale agent count.
//   * example71_go — the GO analogue of Example 7.1 (t deaf-and-mute
//     agents, all-one preferences) at n = 12, t = 5: the common-knowledge
//     shortcut must hit round 3 while the P0 ablation takes t+2, and at
//     n = 8, t = 4 (n = 2t, unidentifiable) both must take t+2.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_go.json by ci/run_benches.cmake; its "gate" block names the headline
// sweep wall time for ci/ab.py); human-readable table on stderr.
// Exit code is nonzero when any self-check fails.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "sim/drivers.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

struct SweepResult {
  std::uint64_t orbits = 0;
  std::uint64_t covered = 0;
  std::uint64_t space = 0;
  std::uint64_t runs = 0;
  double seconds = 0;
  bool spec_ok = true;
};

// Representative-world spec sweep: one run per (orbit × preference class),
// weights certified to cover every (pattern, preference vector) world.
SweepResult canonical_spec_sweep(int n, int t, int rounds) {
  SweepResult r;
  const EnumerationConfig cfg = go_config(n, t, rounds);
  r.space = count_go_adversaries(cfg) * (std::uint64_t{1} << n);
  const auto go = make_go_driver(n, t);
  const auto start = Clock::now();
  r.covered = for_each_representative_world(
      cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
               std::uint64_t) {
        // Each orbit's first preference class is the all-zeros vector
        // (class representatives are lex-min), marking an orbit start.
        if (std::all_of(p.begin(), p.end(),
                        [](Value v) { return v == Value::zero; }))
          ++r.orbits;
        const RunSummary s = go(alpha, p);
        ++r.runs;
        if (!check_eba(s.record).ok_strict()) r.spec_ok = false;
        return r.spec_ok;
      });
  r.seconds = seconds_since(start);
  if (r.covered != r.space) r.spec_ok = false;
  return r;
}

struct ScaleResult {
  int n = 0;
  int t = 0;
  std::uint64_t runs = 0;
  double seconds = 0;
  double runs_per_sec = 0;
  bool spec_ok = true;
};

ScaleResult sampled_scale_point(int n, int t, int count) {
  ScaleResult r;
  r.n = n;
  r.t = t;
  const auto go = make_go_driver(n, t);
  Rng rng(static_cast<std::uint64_t>(n) * 1000 + static_cast<std::uint64_t>(t));
  std::vector<FailurePattern> alphas;
  std::vector<std::vector<Value>> prefs;
  for (int k = 0; k < count; ++k) {
    alphas.push_back(sample_go_adversary(n, rng.below(t + 1), t + 2, 0.3, 0.3,
                                         rng));
    prefs.push_back(sample_preferences(n, rng));
  }
  const auto start = Clock::now();
  for (int k = 0; k < count; ++k) {
    const RunSummary s = go(alphas[static_cast<std::size_t>(k)],
                            prefs[static_cast<std::size_t>(k)]);
    ++r.runs;
    if (!check_eba(s.record).ok()) r.spec_ok = false;
  }
  r.seconds = seconds_since(start);
  r.runs_per_sec = r.seconds > 0 ? static_cast<double>(r.runs) / r.seconds : 0;
  return r;
}

struct Example71Go {
  int n = 0;
  int t = 0;
  int go_round = 0;
  int p0_round = 0;
  bool ok = true;
};

Example71Go example71_go(int n, int t, int expect_go_round) {
  Example71Go e;
  e.n = n;
  e.t = t;
  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const FailurePattern alpha = deaf_mute_agents_pattern(n, silent, t + 3);
  const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);
  const RunSummary g = make_go_driver(n, t)(alpha, ones);
  const RunSummary g0 = make_go_p0_driver(n, t)(alpha, ones);
  for (AgentId i : alpha.nonfaulty()) {
    e.go_round = std::max(e.go_round, g.round_of(i));
    e.p0_round = std::max(e.p0_round, g0.round_of(i));
  }
  e.ok = e.go_round == expect_go_round && e.p0_round == t + 2 &&
         check_eba(g.record).ok() && check_eba(g0.record).ok();
  return e;
}

int run() {
  const SweepResult headline = canonical_spec_sweep(4, 2, 1);
  const SweepResult n5 = canonical_spec_sweep(5, 1, 1);
  const ScaleResult scale = sampled_scale_point(16, 2, 200);
  // n > 2t: the shortcut fires (round 3); n = 2t: provably impossible.
  const Example71Go shortcut = example71_go(12, 5, 3);
  const Example71Go boundary = example71_go(8, 4, 4 + 2);

  Table table({"point", "detail", "runs", "seconds", "ok"});
  const auto row = [&](const std::string& name, const std::string& detail,
                       std::uint64_t runs, double secs, bool ok) {
    table.add_row({name, detail, std::to_string(runs),
                   std::to_string(secs), ok ? "yes" : "NO"});
  };
  row("sweep n=4 t=2 r=1",
      std::to_string(headline.orbits) + " orbits / " +
          std::to_string(headline.space) + " worlds",
      headline.runs, headline.seconds, headline.spec_ok);
  row("sweep n=5 t=1 r=1",
      std::to_string(n5.orbits) + " orbits / " + std::to_string(n5.space) +
          " worlds",
      n5.runs, n5.seconds, n5.spec_ok);
  row("scale n=16 t=2",
      std::to_string(static_cast<std::uint64_t>(scale.runs_per_sec)) +
          " runs/s",
      scale.runs, scale.seconds, scale.spec_ok);
  row("example71_go n=12 t=5",
      "round " + std::to_string(shortcut.go_round) + " vs p0 " +
          std::to_string(shortcut.p0_round),
      1, 0, shortcut.ok);
  row("example71_go n=8 t=4",
      "round " + std::to_string(boundary.go_round) + " (n=2t: no shortcut)",
      1, 0, boundary.ok);
  table.print(std::cerr);

  const auto json_sweep = [](std::ostringstream& out, const SweepResult& s) {
    out << "{\"orbits\": " << s.orbits << ", \"covered\": " << s.covered
        << ", \"space\": " << s.space << ", \"runs\": " << s.runs
        << ", \"seconds\": " << s.seconds
        << ", \"spec_ok\": " << (s.spec_ok ? "true" : "false") << "}";
  };
  const auto json_ex = [](std::ostringstream& out, const Example71Go& e) {
    out << "{\"n\": " << e.n << ", \"t\": " << e.t
        << ", \"go_round\": " << e.go_round
        << ", \"p0_round\": " << e.p0_round
        << ", \"ok\": " << (e.ok ? "true" : "false") << "}";
  };
  std::ostringstream out;
  out << "{\n  \"gate\": {\"metric\": \"headline.seconds\", "
         "\"better\": \"lower\"},\n";
  out << "  \"headline\": ";
  json_sweep(out, headline);
  out << ",\n  \"sweep_n5\": ";
  json_sweep(out, n5);
  out << ",\n  \"scale\": {\"n\": " << scale.n << ", \"t\": " << scale.t
      << ", \"runs\": " << scale.runs << ", \"seconds\": " << scale.seconds
      << ", \"runs_per_sec\": " << scale.runs_per_sec
      << ", \"spec_ok\": " << (scale.spec_ok ? "true" : "false") << "},\n";
  out << "  \"example71_go\": ";
  json_ex(out, shortcut);
  out << ",\n  \"example71_go_boundary\": ";
  json_ex(out, boundary);
  out << "\n}\n";
  std::cout << out.str();

  const bool ok = headline.spec_ok && n5.spec_ok && scale.spec_ok &&
                  shortcut.ok && boundary.ok;
  if (!ok) std::cerr << "FAIL: a GO self-check failed\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eba::bench

int main() { return eba::bench::run(); }
