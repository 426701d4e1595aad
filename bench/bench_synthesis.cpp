// KBP-synthesis benchmark (BENCH_synthesis.json).
//
// Measures the class-memoized, world-deduplicated, pool-parallel
// KbpSynthesizer (kripke/synthesis.hpp) against the pre-optimization
// baseline — the same synthesizer with every lever off, which evaluates the
// Thm 6.5/6.6 knowledge tests world-by-world with a fresh common-knowledge
// BFS per test, exactly the seed implementation. Both variants must produce
// bit-identical decision tables; the headline config is the full
// γ_min(n=4, t=1, drops ≤ 2 rounds) enumeration (4112 worlds) and its
// speedup is gated here (>= 5x, kMinSpeedup). The speedup compares serial
// runs on both sides (the optimized synthesizer at one worker): at this
// size the pool's per-call thread start costs more than it saves, and it
// slows more than serial code on a busy host. Scale points the
// baseline cannot reach in bench time (γ_fip n=4 full enumeration, Thm 6.5
// at n=5, and γ_fip n=5 via orbit-level run reuse —
// kripke/canonical_worlds.hpp) run optimized-only and are checked against
// P_opt / P_min instead.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_synthesis.json by ci/run_benches.cmake; its "gate" block names the
// headline optimized wall time for ci/ab.py); human table on
// stderr. Exit code is nonzero when any self-check fails.
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "failure/generators.hpp"
#include "kripke/canonical_worlds.hpp"
#include "kripke/synthesis.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

struct PointResult {
  std::string label;
  std::size_t worlds = 0;
  int horizon = 0;
  std::optional<double> baseline_seconds;
  double optimized_seconds = 0;
  std::optional<double> serial_seconds;  ///< optimized, one worker
  std::optional<double> speedup;         ///< baseline / serial
  bool match = true;  ///< decisions identical (baseline vs optimized, or
                      ///< synthesized vs the paper's protocol)
  SynthesisStats stats;
};

/// The full context: every adversary of cfg × every preference vector.
/// (The world list is exchange-independent.)
std::vector<std::pair<FailurePattern, std::vector<Value>>> context_worlds(
    const EnumerationConfig& cfg) {
  std::vector<std::pair<FailurePattern, std::vector<Value>>> worlds;
  const auto prefs = all_preference_vectors(cfg.n);
  enumerate_adversaries(cfg, [&](const FailurePattern& alpha) {
    for (const auto& p : prefs) worlds.emplace_back(alpha, p);
    return true;
  });
  return worlds;
}

template <class X>
bool same_decisions(const SynthesisResult<X>& a, const SynthesisResult<X>& b) {
  if (a.decisions.size() != b.decisions.size()) return false;
  for (std::size_t w = 0; w < a.decisions.size(); ++w)
    for (std::size_t i = 0; i < a.decisions[w].size(); ++i) {
      const auto& da = a.decisions[w][i];
      const auto& db = b.decisions[w][i];
      if (da.has_value() != db.has_value()) return false;
      if (da && (da->value != db->value || da->round != db->round))
        return false;
    }
  return a.table == b.table;
}

/// Best-of-`repeats` wall time of one synthesis run (over `orbits`, when
/// given: kripke/canonical_worlds.hpp); returns the last result.
template <class X>
SynthesisResult<X> timed_run(const X& x, int t, KbpProgram program,
                             const SynthesisOptions& opt,
                             const std::vector<typename KbpSynthesizer<X>::World>& worlds,
                             int horizon, int repeats, double& best_seconds,
                             const std::vector<WorldOrbit>& orbits = {}) {
  best_seconds = 0;
  SynthesisResult<X> result;
  for (int r = 0; r < repeats; ++r) {
    KbpSynthesizer<X> synth(x, t, program, opt);
    const auto start = Clock::now();
    result = synth.run(worlds, horizon, orbits);
    const double s = seconds_since(start);
    if (r == 0 || s < best_seconds) best_seconds = s;
  }
  return result;
}

/// Whether every world's synthesized decisions are P_opt's (n, t = 1) over
/// `horizon` rounds, simulated directly.
bool matches_p_opt(const SynthesisResult<FipExchange>& result,
                   const std::vector<KbpSynthesizer<FipExchange>::World>& worlds,
                   int n, int horizon) {
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    SimulateOptions sopt;
    sopt.max_rounds = horizon;
    sopt.stop_when_all_decided = false;
    const auto run = simulate(FipExchange(n), POpt(n, 1), worlds[w].first,
                              worlds[w].second, 1, sopt);
    for (AgentId i = 0; i < n; ++i) {
      const auto expected = run.record.decision(i);
      const auto& got = result.decisions[w][static_cast<std::size_t>(i)];
      if (got.has_value() != expected.has_value() ||
          (expected && (got->value != expected->value ||
                        got->round != expected->round)))
        return false;
    }
  }
  return true;
}

constexpr SynthesisOptions kBaseline{.memoize = false, .workers = 1};
constexpr SynthesisOptions kOptimized{.memoize = true, .workers = 0};
constexpr SynthesisOptions kOptimizedSerial{.memoize = true, .workers = 1};

/// A baseline-vs-optimized comparison point: best of `repeats` each, the
/// variants alternating so a slow spell of the host hits every side.
template <class X>
PointResult compare_point(const std::string& label, const X& x, int t,
                          KbpProgram program, const EnumerationConfig& cfg,
                          int horizon, int repeats) {
  PointResult out;
  out.label = label;
  out.horizon = horizon;
  const auto worlds = context_worlds(cfg);
  out.worlds = worlds.size();
  double base_s = 0;
  double opt_s = 0;
  double serial_s = 0;
  SynthesisResult<X> base;
  SynthesisResult<X> fast;
  SynthesisResult<X> serial;
  for (int r = 0; r < repeats; ++r) {
    double b = 0;
    double o = 0;
    double s = 0;
    base = timed_run(x, t, program, kBaseline, worlds, horizon, 1, b);
    fast = timed_run(x, t, program, kOptimized, worlds, horizon, 1, o);
    serial = timed_run(x, t, program, kOptimizedSerial, worlds, horizon, 1, s);
    if (r == 0 || b < base_s) base_s = b;
    if (r == 0 || o < opt_s) opt_s = o;
    if (r == 0 || s < serial_s) serial_s = s;
  }
  out.baseline_seconds = base_s;
  out.optimized_seconds = opt_s;
  out.serial_seconds = serial_s;
  out.speedup = serial_s > 0 ? base_s / serial_s : 0;
  out.match = same_decisions(base, fast) && same_decisions(base, serial);
  out.stats = fast.stats;
  return out;
}

void json_stats(std::ostringstream& out, const SynthesisStats& s) {
  out << "{\"worlds\": " << s.worlds << ", \"world_rounds\": " << s.world_rounds
      << ", \"evaluated_rounds\": " << s.evaluated_rounds
      << ", \"common_bfs\": " << s.common_bfs << "}";
}

void json_point(std::ostringstream& out, const PointResult& p,
                const std::string& indent) {
  out << indent << "{\"label\": \"" << p.label << "\", \"worlds\": " << p.worlds
      << ", \"horizon\": " << p.horizon << ", \"baseline_seconds\": ";
  if (p.baseline_seconds)
    out << *p.baseline_seconds;
  else
    out << "null";
  out << ", \"optimized_seconds\": " << p.optimized_seconds
      << ", \"optimized_serial_seconds\": ";
  if (p.serial_seconds)
    out << *p.serial_seconds;
  else
    out << "null";
  out << ", \"speedup\": ";
  if (p.speedup)
    out << *p.speedup;
  else
    out << "null";
  out << ", \"decisions_match\": " << (p.match ? "true" : "false")
      << ", \"stats\": ";
  json_stats(out, p.stats);
  out << "}";
}

int run() {
  constexpr double kMinSpeedup = 5.0;
  std::vector<PointResult> points;

  // Headline: Thm 6.5's context at the seed's scaling limit — the full
  // gamma_min(4, 1) enumeration, P0. The optimized run takes ~4-6 ms; a
  // slow spell of the host across best-of-15 still sank the speedup below
  // the floor about once in twenty runs, so the headline takes the best of
  // 45 alternating rounds (~2 s).
  points.push_back(compare_point("p0/gamma_min n=4 full", MinExchange(4), 1,
                                 KbpProgram::p0,
                                 {.n = 4, .t = 1, .rounds = 2}, 4, 45));

  // P1 comparisons: the common-knowledge BFS dominates the baseline here.
  points.push_back(compare_point("p1/gamma_min n=3 full", MinExchange(3), 1,
                                 KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4, 3));
  points.push_back(compare_point("p1/gamma_fip n=3 full", FipExchange(3), 1,
                                 KbpProgram::p1,
                                 {.n = 3, .t = 1, .rounds = 2}, 4, 3));

  // Scale points (optimized only): checked against the paper's protocols.
  {
    PointResult p;
    p.label = "p1/gamma_fip n=4 full";
    p.horizon = 4;
    const auto worlds =
        context_worlds({.n = 4, .t = 1, .rounds = 2});
    p.worlds = worlds.size();
    const auto result = timed_run(FipExchange(4), 1, KbpProgram::p1,
                                  kOptimized, worlds, 4, 2,
                                  p.optimized_seconds);
    p.stats = result.stats;
    p.match = matches_p_opt(result, worlds, 4, 4);
    points.push_back(p);
  }
  {
    // gamma_fip(5): reachable in bench time only with orbit-level run
    // reuse — knowledge tests run once per (orbit × preference class)
    // representative world and the rest are relabeled
    // (kripke/canonical_worlds.hpp). Decisions are checked against a
    // direct P_opt simulation of every world.
    PointResult p;
    p.label = "p1/gamma_fip n=5 orbit";
    p.horizon = 4;
    const CanonicalContext ctx =
        canonical_context_worlds({.n = 5, .t = 1, .rounds = 2});
    p.worlds = ctx.worlds.size();
    const auto result = timed_run(FipExchange(5), 1, KbpProgram::p1,
                                  kOptimized, ctx.worlds, 4, 2,
                                  p.optimized_seconds, ctx.orbits);
    p.stats = result.stats;
    p.match = matches_p_opt(result, ctx.worlds, 5, 4);
    points.push_back(p);
  }
  {
    PointResult p;
    p.label = "p0/gamma_min n=5 full";
    p.horizon = 4;
    const auto worlds =
        context_worlds({.n = 5, .t = 1, .rounds = 2});
    p.worlds = worlds.size();
    const auto result = timed_run(MinExchange(5), 1, KbpProgram::p0,
                                  kOptimized, worlds, 4, 2,
                                  p.optimized_seconds);
    p.stats = result.stats;
    const PMin pmin(5, 1);
    for (const auto& [state, action] : result.table)
      if (action != pmin(state)) p.match = false;
    points.push_back(p);
  }

  const PointResult& headline = points.front();

  // Human-readable report (stderr).
  std::cerr << "=== bench_synthesis: KBP synthesizer, baseline vs "
               "class-memoized/deduped/parallel ===\n\n";
  Table table({"point", "worlds", "baseline s", "optimized s", "serial s",
               "speedup", "eval'd/world-rounds", "C_N BFS", "match"});
  for (const auto& p : points) {
    std::ostringstream frac;
    frac << p.stats.evaluated_rounds << "/" << p.stats.world_rounds;
    table.row(p.label, p.worlds,
              p.baseline_seconds
                  ? std::to_string(*p.baseline_seconds).substr(0, 8)
                  : std::string("-"),
              std::to_string(p.optimized_seconds).substr(0, 8),
              p.serial_seconds
                  ? std::to_string(*p.serial_seconds).substr(0, 8)
                  : std::string("-"),
              p.speedup ? std::to_string(*p.speedup).substr(0, 6)
                        : std::string("-"),
              frac.str(), p.stats.common_bfs, p.match ? "yes" : "NO");
  }
  table.print(std::cerr);

  // Machine-readable report (stdout).
  std::ostringstream out;
  out << "{\n  \"gate\": {\"metric\": \"headline.optimized_seconds\", "
         "\"better\": \"lower\"},\n";
  out << "  \"headline\": ";
  json_point(out, headline, "");
  out << ",\n  \"min_speedup\": " << kMinSpeedup;
  out << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    json_point(out, points[i], "    ");
    if (i + 1 < points.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  std::cout << out.str();

  bool ok = true;
  if (!headline.speedup || *headline.speedup < kMinSpeedup) {
    std::cerr << "\nFAIL: headline speedup below " << kMinSpeedup << "x\n";
    ok = false;
  }
  for (const auto& p : points)
    if (!p.match) {
      std::cerr << "\nFAIL: " << p.label
                << " decisions diverge from the reference\n";
      ok = false;
    }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eba::bench

int main() { return eba::bench::run(); }
