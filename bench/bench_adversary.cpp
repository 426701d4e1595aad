// Adversary-strategy benchmark (BENCH_adversary.json).
//
// Three families of gated rows:
//
//  * worst_case — the branch-and-bound searcher (failure/strategy.hpp) must
//    find the ANALYTIC worst decision round — the Prop 6.1 bound t+2 — for
//    each small (protocol, n, t) configuration, SO and GO; the headline is
//    P_opt at n=4, t=2 with the t+2 score ceiling (first-witness mode).
//    Each row runs its search kSearchRepeats times, must find the same
//    result every time, and reports the best wall time. An
//    Example-7.1 anchor row pins the analytic decision rounds (P_opt round
//    3, P_min/P_basic round t+2) the searches are measured against.
//  * adaptive — the shipped adaptive GO strategies (sim/adaptive.hpp) at
//    n=16 must sustain a worst decision round at least as late as the best
//    STATIC pattern found by random sampling with the same budget: an
//    adversary that reacts to staged decisions must not lose to blind
//    sampling.
//  * fuzz — seeded spec-oracle sweeps (sim/fuzz.hpp) at n = 8..64 with zero
//    violations across SO and GO; the rows that make "correct at large n"
//    a measured, regression-gated claim rather than an extrapolation.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_adversary.json by ci/run_benches.cmake; its "gate" block names the
// headline search wall time for ci/ab.py); human-readable table on
// stderr. Exit code is self-gating. `--fuzz-smoke` runs a seconds-budget
// fuzz subset only (for ci/verify.sh) and writes no JSON.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "failure/generators.hpp"
#include "failure/strategy.hpp"
#include "sim/adaptive.hpp"
#include "sim/fuzz.hpp"
#include "sim/objective.hpp"
#include "stats/rng.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

// ---------------------------------------------------------------------------
// Worst-case search rows
// ---------------------------------------------------------------------------

struct WorstCaseRow {
  std::string label;
  std::string searcher;  ///< "bnb" or "greedy"
  ProtocolKind protocol = ProtocolKind::p_opt;
  FailureModel model = FailureModel::sending;
  int n = 0;
  int t = 0;
  int rounds = 0;
  bool use_ceiling = false;
  int expected_round = 0;  ///< the analytic worst decision round (t+2)
  /// `gate_exact`: row fails unless found == expected. Greedy rows gate
  /// found <= expected only (hill climbing may stall on a plateau).
  bool gate_exact = true;

  int found_round = 0;
  bool ceiling_reached = false;
  std::uint64_t nodes = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t pruned_symmetry = 0;
  std::uint64_t pruned_settled = 0;
  std::uint64_t pruned_unreached = 0;
  double seconds = 0;
  bool ok = false;
};

/// Searches per row. One search of the headline takes ~10 ms, too short to
/// time once: `seconds` is the best of kSearchRepeats identical searches.
constexpr int kSearchRepeats = 25;

void run_worst_case(WorstCaseRow& row) {
  ObjectiveConfig ocfg;
  ocfg.objective = SearchObjective::decision_round;
  ocfg.protocol = row.protocol;
  ocfg.n = row.n;
  ocfg.t = row.t;
  const PatternEvaluator eval = make_pattern_evaluator(ocfg);

  SearchOptions opt;
  opt.space = EnumerationConfig{
      .n = row.n, .t = row.t, .rounds = row.rounds, .model = row.model};
  if (row.use_ceiling)
    opt.score_ceiling = static_cast<double>(row.expected_round);

  SearchResult res;
  bool repeatable = true;
  for (int r = 0; r < kSearchRepeats; ++r) {
    SearchResult next = row.searcher == "greedy"
                            ? greedy_worst_case(opt, eval)
                            : branch_and_bound_worst_case(opt, eval);
    if (r > 0) {
      repeatable = repeatable && next.best_score == res.best_score &&
                   next.stats.nodes == res.stats.nodes &&
                   next.stats.evaluations == res.stats.evaluations;
      next.seconds = std::min(next.seconds, res.seconds);
    }
    res = std::move(next);
  }
  row.found_round = static_cast<int>(res.best_score);
  row.ceiling_reached = res.ceiling_reached;
  row.nodes = res.stats.nodes;
  row.evaluations = res.stats.evaluations;
  row.pruned_symmetry = res.stats.pruned_symmetry;
  row.pruned_settled = res.stats.pruned_settled;
  row.pruned_unreached = res.stats.pruned_unreached;
  row.seconds = res.seconds;
  row.ok = repeatable && (row.gate_exact
                              ? row.found_round == row.expected_round
                              : row.found_round <= row.expected_round);
}

/// `seconds` at the stream's six significant digits: fmt()'s %.3f would
/// round a ~8 ms search to whole milliseconds.
void json_worst_case(std::ostringstream& out, const WorstCaseRow& r,
                     const char* indent) {
  out << indent << "{\"label\": \"" << r.label << "\", \"searcher\": \""
      << r.searcher << "\", \"protocol\": \"" << to_string(r.protocol)
      << "\", \"model\": \""
      << (r.model == FailureModel::sending ? "SO" : "GO")
      << "\", \"n\": " << r.n << ", \"t\": " << r.t
      << ", \"rounds\": " << r.rounds
      << ", \"expected_round\": " << r.expected_round
      << ", \"found_round\": " << r.found_round << ", \"ceiling_reached\": "
      << (r.ceiling_reached ? "true" : "false") << ", \"nodes\": " << r.nodes
      << ", \"evaluations\": " << r.evaluations
      << ", \"pruned_symmetry\": " << r.pruned_symmetry
      << ", \"pruned_settled\": " << r.pruned_settled
      << ", \"pruned_unreached\": " << r.pruned_unreached
      << ", \"seconds\": " << r.seconds << ", \"ok\": "
      << (r.ok ? "true" : "false") << "}";
}

// ---------------------------------------------------------------------------
// Example 7.1 anchor
// ---------------------------------------------------------------------------

struct Example71Row {
  int n = 20;
  int t = 10;
  int fip_round = 0;
  int min_round = 0;
  int basic_round = 0;
  bool ok = false;
};

Example71Row run_example71() {
  Example71Row row;
  AgentSet silent;
  for (AgentId i = 0; i < row.t; ++i) silent.insert(i);
  const FailurePattern alpha =
      silent_agents_pattern(row.n, silent, row.t + 3);
  const std::vector<Value> ones(static_cast<std::size_t>(row.n), Value::one);

  const RunSummary fip =
      make_driver(ProtocolKind::p_opt, row.n, row.t)(alpha, ones);
  const RunSummary min =
      make_driver(ProtocolKind::p_min, row.n, row.t)(alpha, ones);
  const RunSummary basic =
      make_driver(ProtocolKind::p_basic, row.n, row.t)(alpha, ones);
  row.fip_round = fip.last_nonfaulty_round();
  row.min_round = min.last_nonfaulty_round();
  row.basic_round = basic.last_nonfaulty_round();
  row.ok = row.fip_round == 3 && row.min_round == row.t + 2 &&
           row.basic_round == row.t + 2;
  return row;
}

// ---------------------------------------------------------------------------
// Adaptive vs static sampling at n=16
// ---------------------------------------------------------------------------

struct AdaptiveReport {
  int n = 16;
  int t = 3;
  std::string protocol = "P_opt_go";
  struct StrategyRow {
    std::string name;
    int worst_round = 0;
    int runs = 0;
  };
  std::vector<StrategyRow> strategies;
  int adaptive_worst = 0;   ///< max over strategies
  int static_worst = 0;     ///< max over sampled static patterns
  int static_samples = 0;
  double seconds = 0;
  bool ok = false;  ///< adaptive_worst >= static_worst
};

AdaptiveReport run_adaptive_vs_static() {
  const Clock::time_point start = Clock::now();
  AdaptiveReport rep;
  const int n = rep.n;
  const int t = rep.t;
  const ProtocolKind kind = ProtocolKind::p_opt_go;
  const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);

  // Adaptive side: every shipped GO strategy; the seeded one gets a handful
  // of seeds, the deterministic ones run once.
  const AdaptiveDriver drive = make_adaptive_driver(kind, n, t);
  for (const NamedStrategyFactory& f :
       shipped_strategies(n, t, FailureModel::general)) {
    AdaptiveReport::StrategyRow row;
    row.name = f.name;
    const int seeds = f.name == "random_budget" ? 8 : 1;
    for (int s = 0; s < seeds; ++s) {
      const auto strat = f.make(static_cast<std::uint64_t>(s) + 1);
      const AdaptiveOutcome out = drive(*strat, ones);
      row.worst_round =
          std::max(row.worst_round, out.summary.last_nonfaulty_round());
      row.runs += 1;
    }
    rep.adaptive_worst = std::max(rep.adaptive_worst, row.worst_round);
    rep.strategies.push_back(std::move(row));
  }

  // Static side: blind random GO sampling with the same budget (k = t
  // faulty, drops over the same t+2-round prefix).
  const RunDriver run = make_driver(kind, n, t);
  Rng rng(0xadd5);
  rep.static_samples = 40;
  for (int s = 0; s < rep.static_samples; ++s) {
    const FailurePattern alpha =
        sample_go_adversary(n, t, t + 2, 0.35, 0.2, rng);
    rep.static_worst =
        std::max(rep.static_worst, run(alpha, ones).last_nonfaulty_round());
  }

  rep.ok = rep.adaptive_worst >= rep.static_worst;
  rep.seconds = seconds_since(start);
  return rep;
}

// ---------------------------------------------------------------------------
// Fuzz rows at n = 8..64
// ---------------------------------------------------------------------------

struct FuzzRow {
  std::string label;
  FuzzConfig cfg;
  FuzzReport report;
};

FuzzRow run_fuzz_row(std::string label, ProtocolKind kind, int n, int t,
                     int iterations) {
  FuzzRow row;
  row.label = std::move(label);
  row.cfg.n = n;
  row.cfg.t = t;
  row.cfg.protocol = kind;
  row.cfg.model = model_of(kind);
  row.cfg.base_seed = 0xf022;
  row.cfg.iterations = iterations;
  row.cfg.strict = true;
  row.report = run_fuzz(row.cfg);
  return row;
}

void json_fuzz(std::ostringstream& out, const FuzzRow& r,
               const char* indent) {
  out << indent << "{\"label\": \"" << r.label << "\", \"protocol\": \""
      << to_string(r.cfg.protocol) << "\", \"model\": \""
      << (r.cfg.model == FailureModel::sending ? "SO" : "GO")
      << "\", \"n\": " << r.cfg.n << ", \"t\": " << r.cfg.t
      << ", \"runs\": " << r.report.runs
      << ", \"violations\": " << r.report.violations
      << ", \"seconds\": " << fmt(r.report.seconds) << ", \"spec_ok\": "
      << (r.report.ok() ? "true" : "false") << "}";
}

/// Seconds-budget subset for ci/verify.sh: enough to catch a broken oracle
/// or a protocol regression, cheap enough for every CI run.
int fuzz_smoke() {
  bool ok = true;
  for (const auto& [kind, n, t, iters] :
       {std::tuple{ProtocolKind::p_opt, 8, 2, 10},
        std::tuple{ProtocolKind::p_opt_go, 8, 2, 10},
        std::tuple{ProtocolKind::p_min, 16, 4, 20},
        std::tuple{ProtocolKind::early_stop, 16, 4, 20},
        std::tuple{ProtocolKind::authenticated, 16, 4, 20}}) {
    FuzzConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.protocol = kind;
    cfg.model = model_of(kind);
    cfg.base_seed = 0x50a0;
    cfg.iterations = iters;
    const FuzzReport rep = run_fuzz(cfg);
    std::cerr << "fuzz-smoke " << to_string(kind) << " n=" << n
              << ": " << rep.runs << " runs, " << rep.violations
              << " violations\n";
    ok = ok && rep.ok();
  }
  std::cerr << (ok ? "fuzz-smoke PASS\n" : "fuzz-smoke FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eba::bench

int main(int argc, char** argv) {
  using namespace eba;
  using namespace eba::bench;

  if (argc > 1 && std::strcmp(argv[1], "--fuzz-smoke") == 0)
    return fuzz_smoke();

  // --- worst-case search rows ----------------------------------------------
  // The headline: P_opt at n=4, t=2 over the SO space with drops in rounds
  // 1..t+1, first-witness mode at the Prop 6.1 ceiling t+2.
  std::vector<WorstCaseRow> worst;
  worst.push_back({.label = "bnb_p_opt_n4_t2",
                   .searcher = "bnb",
                   .protocol = ProtocolKind::p_opt,
                   .n = 4,
                   .t = 2,
                   .rounds = 3,
                   .use_ceiling = true,
                   .expected_round = 4});
  worst.push_back({.label = "bnb_p_opt_n4_t1",
                   .searcher = "bnb",
                   .protocol = ProtocolKind::p_opt,
                   .n = 4,
                   .t = 1,
                   .rounds = 2,
                   .expected_round = 3});
  worst.push_back({.label = "bnb_p_basic_n4_t1",
                   .searcher = "bnb",
                   .protocol = ProtocolKind::p_basic,
                   .n = 4,
                   .t = 1,
                   .rounds = 2,
                   .expected_round = 3});
  worst.push_back({.label = "bnb_p_opt_go_n3_t1",
                   .searcher = "bnb",
                   .protocol = ProtocolKind::p_opt_go,
                   .model = FailureModel::general,
                   .n = 3,
                   .t = 1,
                   .rounds = 2,
                   .expected_round = 3});
  worst.push_back({.label = "greedy_p_opt_n4_t1",
                   .searcher = "greedy",
                   .protocol = ProtocolKind::p_opt,
                   .n = 4,
                   .t = 1,
                   .rounds = 2,
                   .expected_round = 3,
                   .gate_exact = false});
  for (WorstCaseRow& row : worst) run_worst_case(row);
  const WorstCaseRow& headline = worst.front();

  // --- Example 7.1 anchor + adaptive-vs-static + fuzz ----------------------
  const Example71Row ex71 = run_example71();
  const AdaptiveReport adaptive = run_adaptive_vs_static();

  std::vector<FuzzRow> fuzz;
  fuzz.push_back(run_fuzz_row("fuzz_p_opt_n8", ProtocolKind::p_opt, 8, 2, 60));
  fuzz.push_back(
      run_fuzz_row("fuzz_p_opt_go_n8", ProtocolKind::p_opt_go, 8, 2, 60));
  fuzz.push_back(
      run_fuzz_row("fuzz_p_opt_go_n16", ProtocolKind::p_opt_go, 16, 3, 20));
  fuzz.push_back(
      run_fuzz_row("fuzz_p_basic_n32", ProtocolKind::p_basic, 32, 6, 60));
  fuzz.push_back(run_fuzz_row("fuzz_p_min_n64", ProtocolKind::p_min, 64, 8, 60));
  fuzz.push_back(
      run_fuzz_row("fuzz_p_es_n32", ProtocolKind::early_stop, 32, 6, 60));
  fuzz.push_back(
      run_fuzz_row("fuzz_p_auth_n32", ProtocolKind::authenticated, 32, 6, 60));

  // --- human-readable report (stderr) --------------------------------------
  std::cerr << "=== bench_adversary: worst-case search, adaptive "
               "strategies, spec-oracle fuzz ===\n\n";
  Table wtable({"row", "searcher", "model", "n", "t", "expected", "found",
                "evals", "seconds", "ok"});
  for (const WorstCaseRow& r : worst)
    wtable.row(r.label, r.searcher,
               r.model == FailureModel::sending ? "SO" : "GO", r.n, r.t,
               r.expected_round, r.found_round, r.evaluations, r.seconds,
               r.ok ? "yes" : "NO");
  wtable.print(std::cerr);
  std::cerr << "\nexample 7.1 (n=20, t=10): P_opt round " << ex71.fip_round
            << ", P_min round " << ex71.min_round << ", P_basic round "
            << ex71.basic_round << (ex71.ok ? " (ok)" : " (MISMATCH)")
            << "\n";
  std::cerr << "adaptive n=" << adaptive.n << " t=" << adaptive.t << " GO: ";
  for (const auto& s : adaptive.strategies)
    std::cerr << s.name << "=" << s.worst_round << " ";
  std::cerr << "| static sampling (" << adaptive.static_samples
            << " patterns) = " << adaptive.static_worst
            << (adaptive.ok ? " (adaptive >= static)" : " (ADAPTIVE LOST)")
            << "\n\n";
  Table ftable({"fuzz row", "model", "n", "t", "runs", "violations",
                "seconds"});
  for (const FuzzRow& r : fuzz)
    ftable.row(r.label, r.cfg.model == FailureModel::sending ? "SO" : "GO",
               r.cfg.n, r.cfg.t, r.report.runs, r.report.violations,
               r.report.seconds);
  ftable.print(std::cerr);

  // --- machine-readable JSON (stdout) --------------------------------------
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"bench_adversary\",\n";
  out << "  \"gate\": {\"metric\": \"headline.seconds\", "
         "\"better\": \"lower\"},\n";
  out << "  \"headline\": ";
  json_worst_case(out, headline, "");
  out << ",\n";
  out << "  \"worst_case\": [\n";
  for (std::size_t i = 0; i < worst.size(); ++i) {
    json_worst_case(out, worst[i], "    ");
    out << (i + 1 < worst.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"example71\": {\"n\": " << ex71.n << ", \"t\": " << ex71.t
      << ", \"p_opt_round\": " << ex71.fip_round
      << ", \"p_min_round\": " << ex71.min_round
      << ", \"p_basic_round\": " << ex71.basic_round << ", \"ok\": "
      << (ex71.ok ? "true" : "false") << "},\n";
  out << "  \"adaptive\": {\"protocol\": \"" << adaptive.protocol
      << "\", \"n\": " << adaptive.n << ", \"t\": " << adaptive.t
      << ", \"model\": \"GO\", \"strategies\": [";
  for (std::size_t i = 0; i < adaptive.strategies.size(); ++i) {
    const auto& s = adaptive.strategies[i];
    out << (i ? ", " : "") << "{\"name\": \"" << s.name
        << "\", \"worst_round\": " << s.worst_round
        << ", \"runs\": " << s.runs << "}";
  }
  out << "], \"adaptive_worst_round\": " << adaptive.adaptive_worst
      << ", \"static_samples\": " << adaptive.static_samples
      << ", \"static_worst_round\": " << adaptive.static_worst
      << ", \"seconds\": " << fmt(adaptive.seconds) << ", \"ok\": "
      << (adaptive.ok ? "true" : "false") << "},\n";
  out << "  \"fuzz\": [\n";
  for (std::size_t i = 0; i < fuzz.size(); ++i) {
    json_fuzz(out, fuzz[i], "    ");
    out << (i + 1 < fuzz.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::cout << out.str();

  // --- self-gates ----------------------------------------------------------
  bool failed = false;
  for (const WorstCaseRow& r : worst)
    if (!r.ok) {
      std::cerr << "FAIL: " << r.label << " found round " << r.found_round
                << ", expected " << r.expected_round << "\n";
      failed = true;
    }
  if (!ex71.ok) {
    std::cerr << "FAIL: Example 7.1 decision rounds diverge from the paper\n";
    failed = true;
  }
  if (!adaptive.ok) {
    std::cerr << "FAIL: adaptive strategies lost to blind static sampling\n";
    failed = true;
  }
  for (const FuzzRow& r : fuzz)
    if (!r.report.ok()) {
      std::cerr << "FAIL: " << r.label << ": " << r.report.violations
                << " spec violations\n";
      failed = true;
    }
  return failed ? 1 : 0;
}
