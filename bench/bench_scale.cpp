// Verification-at-scale benchmark (BENCH_scale.json) — the orbit-level
// run-reuse engine (sim/relabel.hpp, failure/orbit_sweep.hpp,
// kripke/system.hpp's RunReuse::relabel).
//
// Two families of points:
//
//   * reuse — add_all_runs with simulate-once-relabel-everywhere against
//     full re-simulation on the same context. The headline (γ_fip n = 8,
//     t = 1, drops in round 1) gates a >= 5x wall-time speedup; every row
//     pins the relabel path bit-identical to re-simulation: the same runs
//     in the same order (decisions included) and the same finalized Kripke
//     partition. "sims" is the number of simulations the relabel path
//     actually performs — one per (orbit × stabilizer preference class) —
//     versus "runs" for the re-simulation baseline. Each row also reports
//     each policy's finalize time (building the indistinguishability
//     index), which no gate reads.
//
//   * spec_scale — exhaustive EBA spec sweeps that only the
//     representative-world quotient makes affordable: P_opt on every
//     SO(1) adversary at n = 7 and n = 8 (drops in the first two rounds)
//     and P_opt_go on every GO(2) adversary at n = 5, with the world
//     weights certified to cover the unreduced (pattern × preference)
//     space.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_scale.json by ci/run_benches.cmake; its "gate" block names the
// headline relabel-path wall time, which ci/ab.py leaves unpaired: one run
// is too slow and too large to repeat in pairs); human-readable table on
// stderr. The JSON ends with the process's peak RSS (getrusage), ungated.
// Exit code is nonzero when any self-check fails, including a relabel
// speedup below kMinSpeedup.
#include <chrono>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "failure/canonical.hpp"
#include "failure/generators.hpp"
#include "failure/orbit_sweep.hpp"
#include "kripke/system.hpp"
#include "sim/drivers.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

struct ReusePoint {
  std::string label;
  std::uint64_t runs = 0;           ///< materialized runs (both paths)
  std::uint64_t sims = 0;           ///< simulations the relabel path performs
  double resim_seconds = 0;
  double seconds = 0;               ///< relabel-path wall time
  double speedup = 0;
  double resim_finalize_seconds = 0;  ///< finalize of the resimulated runs
  double finalize_seconds = 0;        ///< finalize of the relabeled runs
  bool decisions_match = true;
  bool knowledge_identical = true;
  [[nodiscard]] bool identical_to_resimulation() const {
    return decisions_match && knowledge_identical;
  }
};

/// add_all_runs under both reuse policies, pinned identical: same run list
/// (decisions compared explicitly), same finalized partition. Best-of-
/// `repeats` wall time per policy for adding the runs. Finalize is timed
/// once per policy, on the kept system after the timed repeats, so it
/// cannot disturb the heap they run on.
template <class X, class P>
ReusePoint reuse_point(const std::string& label, const X& x, const P& act,
                       int t, int horizon, const EnumerationConfig& cfg,
                       int repeats) {
  ReusePoint out;
  out.label = label;
  for_each_representative_world(
      cfg,
      [&](const FailurePattern&, const std::vector<Value>&, std::uint64_t) {
        ++out.sims;
        return true;
      });

  InterpretedSystem<X, P> resim(x, act, t, horizon);
  for (int r = 0; r < repeats; ++r) {
    InterpretedSystem<X, P> sys(x, act, t, horizon);
    const auto start = Clock::now();
    sys.add_all_runs(cfg, {.reuse = RunReuse::resimulate});
    const double s = seconds_since(start);
    if (r == 0 || s < out.resim_seconds) out.resim_seconds = s;
    if (r + 1 == repeats) resim = std::move(sys);
  }
  InterpretedSystem<X, P> relab(x, act, t, horizon);
  for (int r = 0; r < repeats; ++r) {
    InterpretedSystem<X, P> sys(x, act, t, horizon);
    const auto start = Clock::now();
    sys.add_all_runs(cfg, {.reuse = RunReuse::relabel});
    const double s = seconds_since(start);
    if (r == 0 || s < out.seconds) out.seconds = s;
    if (r + 1 == repeats) relab = std::move(sys);
  }
  out.speedup = out.seconds > 0 ? out.resim_seconds / out.seconds : 0;

  out.runs = static_cast<std::uint64_t>(resim.num_runs());
  if (resim.num_runs() != relab.num_runs()) out.decisions_match = false;
  for (int r = 0; out.decisions_match && r < resim.num_runs(); ++r) {
    if (!(resim.run(r) == relab.run(r))) out.decisions_match = false;
    for (AgentId i = 0; i < cfg.n; ++i)
      if (resim.run(r).record.decision(i) != relab.run(r).record.decision(i))
        out.decisions_match = false;
  }
  auto start = Clock::now();
  resim.finalize();
  out.resim_finalize_seconds = seconds_since(start);
  start = Clock::now();
  relab.finalize();
  out.finalize_seconds = seconds_since(start);
  out.knowledge_identical = relab.same_partition(resim);
  return out;
}

struct SpecScalePoint {
  std::string label;
  std::uint64_t worlds = 0;   ///< representative worlds driven
  std::uint64_t covered = 0;  ///< Σ weights
  std::uint64_t space = 0;    ///< count_adversaries · 2^n
  double seconds = 0;
  bool spec_ok = true;
};

/// Exhaustive representative-world spec sweep of one driver over cfg.
SpecScalePoint spec_scale_point(const std::string& label,
                                const EnumerationConfig& cfg,
                                const RunDriver& drive) {
  SpecScalePoint out;
  out.label = label;
  out.space = count_adversaries(cfg) * (std::uint64_t{1} << cfg.n);
  const auto start = Clock::now();
  out.covered = for_each_representative_world(
      cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
               std::uint64_t) {
        const RunSummary s = drive(alpha, p);
        ++out.worlds;
        if (!check_eba(s.record).ok_strict()) out.spec_ok = false;
        return out.spec_ok;
      });
  out.seconds = seconds_since(start);
  if (out.covered != out.space) out.spec_ok = false;
  return out;
}

/// The process's peak resident set so far (getrusage reports KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int run() {
  constexpr double kMinSpeedup = 5.0;

  std::vector<ReusePoint> reuse;
  // Headline: the γ_fip context at a scale the re-simulating baseline can
  // still complete in bench time (260k runs). Simulation cost grows faster
  // with n than run size does, so this is also where reuse pays most.
  reuse.push_back(reuse_point("gamma_fip n=8 t=1 r=1", FipExchange(8),
                              POpt(8, 1), 1, 3,
                              EnumerationConfig{.n = 8, .t = 1, .rounds = 1},
                              2));
  // Identity rows: a mid-size γ_fip point plus other exchanges and the GO
  // model, all pinned bit-identical too.
  reuse.push_back(reuse_point("gamma_fip n=6 t=1 r=1", FipExchange(6),
                              POpt(6, 1), 1, 3,
                              EnumerationConfig{.n = 6, .t = 1, .rounds = 1},
                              2));
  reuse.push_back(reuse_point("gamma_min n=4 t=2 r=1", MinExchange(4),
                              PMin(4, 2), 2, 4,
                              EnumerationConfig{.n = 4, .t = 2, .rounds = 1},
                              3));
  reuse.push_back(reuse_point("gamma_fip_go n=3 t=1 r=1", FipExchange(3),
                              POptGo(3, 1), 1, 3, go_config(3, 1, 1), 3));
  const ReusePoint& headline = reuse.front();

  std::vector<SpecScalePoint> spec;
  spec.push_back(spec_scale_point("p_opt so n=7 t=1 r=2",
                                  {.n = 7, .t = 1, .rounds = 2},
                                  make_fip_driver(7, 1)));
  spec.push_back(spec_scale_point("p_opt so n=8 t=1 r=2",
                                  {.n = 8, .t = 1, .rounds = 2},
                                  make_fip_driver(8, 1)));
  spec.push_back(spec_scale_point("p_opt_go go n=5 t=2 r=1",
                                  go_config(5, 2, 1),
                                  make_go_driver(5, 2)));

  // Human-readable report (stderr).
  std::cerr << "=== bench_scale: orbit-level run reuse "
               "(simulate once, relabel everywhere) ===\n\n";
  Table rtable({"reuse point", "runs", "sims", "resim s", "relabel s",
                "speedup", "finalize s (resim/relabel)", "identical"});
  for (const auto& p : reuse) {
    std::string finalize = std::to_string(p.resim_finalize_seconds).substr(0, 8);
    finalize.append(" / ").append(
        std::to_string(p.finalize_seconds).substr(0, 8));
    rtable.row(p.label, p.runs, p.sims,
               std::to_string(p.resim_seconds).substr(0, 8),
               std::to_string(p.seconds).substr(0, 8),
               std::to_string(p.speedup).substr(0, 6), finalize,
               p.identical_to_resimulation() ? "yes" : "NO");
  }
  rtable.print(std::cerr);
  std::cerr << "\n";
  Table stable({"spec sweep", "worlds", "covered", "space", "seconds", "ok"});
  for (const auto& p : spec)
    stable.row(p.label, p.worlds, p.covered, p.space,
               std::to_string(p.seconds).substr(0, 8),
               p.spec_ok ? "yes" : "NO");
  stable.print(std::cerr);

  // Machine-readable report (stdout).
  const auto json_reuse = [](std::ostringstream& out, const ReusePoint& p) {
    out << "{\"label\": \"" << p.label << "\", \"runs\": " << p.runs
        << ", \"sims\": " << p.sims
        << ", \"resim_seconds\": " << p.resim_seconds
        << ", \"seconds\": " << p.seconds << ", \"speedup\": " << p.speedup
        << ", \"resim_finalize_seconds\": " << p.resim_finalize_seconds
        << ", \"finalize_seconds\": " << p.finalize_seconds
        << ", \"decisions_match\": " << (p.decisions_match ? "true" : "false")
        << ", \"knowledge_identical\": "
        << (p.knowledge_identical ? "true" : "false")
        << ", \"identical_to_resimulation\": "
        << (p.identical_to_resimulation() ? "true" : "false") << "}";
  };
  const auto json_spec = [](std::ostringstream& out, const SpecScalePoint& p) {
    out << "{\"label\": \"" << p.label << "\", \"worlds\": " << p.worlds
        << ", \"covered\": " << p.covered << ", \"space\": " << p.space
        << ", \"seconds\": " << p.seconds
        << ", \"spec_ok\": " << (p.spec_ok ? "true" : "false") << "}";
  };
  std::ostringstream out;
  out << "{\n  \"gate\": {\"metric\": \"headline.seconds\", "
         "\"better\": \"lower\"},\n";
  out << "  \"headline\": ";
  json_reuse(out, headline);
  out << ",\n  \"min_speedup\": " << kMinSpeedup;
  out << ",\n  \"reuse\": [\n";
  for (std::size_t i = 0; i < reuse.size(); ++i) {
    out << "    ";
    json_reuse(out, reuse[i]);
    out << (i + 1 < reuse.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"spec_scale\": [\n";
  for (std::size_t i = 0; i < spec.size(); ++i) {
    out << "    ";
    json_spec(out, spec[i]);
    out << (i + 1 < spec.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"peak_rss_mib\": " << peak_rss_mib() << "\n}\n";
  std::cout << out.str();

  bool ok = true;
  if (reuse.empty() || spec.empty()) {
    std::cerr << "\nFAIL: no reuse or no spec_scale rows\n";
    ok = false;
  }
  if (headline.speedup < kMinSpeedup) {
    std::cerr << "\nFAIL: headline relabel speedup below " << kMinSpeedup
              << "x\n";
    ok = false;
  }
  for (const auto& p : reuse)
    if (!p.identical_to_resimulation()) {
      std::cerr << "\nFAIL: " << p.label
                << " relabel path diverges from re-simulation\n";
      ok = false;
    }
  for (const auto& p : spec)
    if (!p.spec_ok) {
      std::cerr << "\nFAIL: " << p.label << " spec sweep failed\n";
      ok = false;
    }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eba::bench

int main() {
#if defined(__GLIBC__)
  // The headline point builds and tears down multi-GB run sets back to back;
  // with default glibc settings every teardown trims the heap and the next
  // build re-faults the pages, so both paths measure the kernel instead of
  // the algorithm. Keep freed memory in the arena for the bench's lifetime.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, std::numeric_limits<int>::max());
#endif
  return eba::bench::run();
}
