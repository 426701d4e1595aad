// The paper's quantitative claims, one self-checking section each
// (BENCH_paper.json). Every section states its claim in its `claim` string
// and checks it on every row:
//
//   example71, ablation  Example 7.1 and §6–§7: k silent faulty agents
//   domination           Thm 6.3, Cor 6.7, Cor 7.8 on corresponding runs
//   failure_sweep        the §8 conjecture; only Cor 7.8's gap >= 0 is gated
//   prop81_bits          Prop 8.1, bits per run
//   prop82_rounds        Prop 8.2, failure-free decision rounds
//   termination          Prop 6.1 / 7.3, decisions by round t+2
//
// Output: JSON on stdout (written to BENCH_paper.json by
// ci/run_benches.cmake; its "gate" block names the total wall time for
// ci/check_bench.py), one table per section on stderr. Exit code is nonzero
// when any section's claim fails, and stderr names the section and the row.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "failure/orbit_sweep.hpp"
#include "sim/simulator.hpp"
#include "stats/agg.hpp"
#include "stats/rng.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One cell of a section's rows: the stderr table's text and the JSON value.
/// Strings here are fixed labels with no quotes or backslashes to escape.
struct Cell {
  std::string text;
  std::string json;

  Cell(const char* s) : Cell(std::string(s)) {}
  Cell(const std::string& s) : text(s) {
    json += '"';
    json += s;
    json += '"';
  }
  Cell(int v) : text(std::to_string(v)), json(text) {}
  Cell(long v) : text(std::to_string(v)), json(text) {}
  Cell(std::size_t v) : text(std::to_string(v)), json(text) {}
  Cell(double v) : text(format("%.3g", v)), json(format("%.6g", v)) {}

  static std::string format(const char* spec, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
  }
};

/// One paper claim: its rows, whose column names head both the stderr table
/// and the keys of the JSON rows, and the failed checks that make the
/// section's correctness bit false.
class Section {
 public:
  Section(std::string name, std::string claim, std::vector<std::string> columns)
      : name_(std::move(name)),
        claim_(std::move(claim)),
        columns_(std::move(columns)) {}

  void row(std::vector<Cell> cells) {
    EBA_REQUIRE(cells.size() == columns_.size(), "row width != column count");
    rows_.push_back(std::move(cells));
  }

  /// Records a failure of the claim, described by `what`, unless `holds`.
  template <class... Ts>
  void check(bool holds, const Ts&... what) {
    if (holds) return;
    std::ostringstream os;
    (os << ... << what);
    failures_.push_back(os.str());
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  void print_table(std::ostream& os) const {
    Table table(columns_);
    for (const auto& cells : rows_) {
      std::vector<std::string> text;
      for (const Cell& c : cells) text.push_back(c.text);
      table.add_row(std::move(text));
    }
    os << "\n=== " << name_ << (ok() ? "" : " (FAILED)") << " ===\n"
       << claim_ << "\n\n";
    table.print(os);
  }

  void print_json(std::ostream& os, double seconds) const {
    os << "    \"" << name_ << "\": {\"ok\": " << (ok() ? "true" : "false")
       << ", \"seconds\": " << seconds << ",\n      \"claim\": \"" << claim_
       << "\",\n      \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "        {";
      for (std::size_t c = 0; c < columns_.size(); ++c)
        os << (c ? ", " : "") << '"' << columns_[c]
           << "\": " << rows_[r][c].json;
      os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "      ]}";
  }

 private:
  std::string name_;
  std::string claim_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
  std::vector<std::string> failures_;
};

/// Stands for "never decided" in a latest-round reading, so that a maximum
/// over agents or runs cannot hide an undecided agent.
constexpr int kNever = std::numeric_limits<int>::max();

/// The latest decision round among `who`, or kNever.
int latest_round(const RunSummary& s, AgentSet who) {
  int latest = 0;
  for (AgentId i : who) {
    const int r = s.round_of(i);
    latest = std::max(latest, r < 0 ? kNever : r);
  }
  return latest;
}

/// The (n, t) shapes with t drawn from ts(n), a nondecreasing list: each
/// shape once, skipping t outside 1 <= t <= n - 2.
template <class Ts>
std::vector<std::pair<int, int>> shapes(std::initializer_list<int> ns,
                                        Ts ts) {
  std::vector<std::pair<int, int>> out;
  for (const int n : ns) {
    int prev = 0;
    for (const int t : ts(n)) {
      if (t < 1 || n - t < 2 || t == prev) continue;
      prev = t;
      out.emplace_back(n, t);
    }
  }
  return out;
}

// k of the t faulty agents silent, all-one preferences. For k < t the silent
// agents are the only hidden-chain candidates, so P_basic's counting test and
// the cond_1 test over full graphs both fire in round k+2. Only at k = t does
// the silent set pin down the whole faulty set: C_N(t-faulty) lets P_opt
// decide in round 3 while the others wait out round t+2.
Section silent_family(const char* name, const char* claim, int n, int t,
                      bool with_p0) {
  std::vector<std::string> columns = {"k", "P_min", "P_basic", "P_opt"};
  std::vector<RunDriver> drivers = {make_min_driver(n, t),
                                    make_basic_driver(n, t),
                                    make_fip_driver(n, t)};
  if (with_p0) {
    columns.insert(columns.begin() + 3, "P0_fip");
    drivers.insert(drivers.begin() + 2, make_fip_p0_driver(n, t));
  }
  Section s(name, claim, columns);
  for (int k = 1; k <= t; ++k) {
    AgentSet silent;
    for (AgentId i = 0; i < k; ++i) silent.insert(i);
    const auto alpha = silent_agents_pattern(n, silent, t + 3);
    std::vector<Cell> cells = {k};
    for (std::size_t d = 0; d < drivers.size(); ++d) {
      const int got = latest_round(drivers[d](alpha, all_ones(n)),
                                   alpha.nonfaulty());
      const bool is_opt = d + 1 == drivers.size();
      const int want = d == 0 ? t + 2 : k < t ? k + 2 : is_opt ? 3 : t + 2;
      s.check(got == want, "n=", n, " t=", t, " k=", k, ": ",
              columns[d + 1], " decides in round ", got, ", expected ", want);
      cells.emplace_back(got);
    }
    s.row(std::move(cells));
  }
  return s;
}

Section example71() {
  return silent_family(
      "example71",
      "Example 7.1: n = 20, t = 10, all-one preferences, k silent faulty "
      "agents. At k = t P_min and P_basic decide in round 12 and P_opt in "
      "round 3; at k < t P_basic and P_opt decide in round k+2, P_min in "
      "round t+2.",
      20, 10, false);
}

Section ablation() {
  return silent_family(
      "ablation",
      "n = 12, t = 5, all-one preferences, k silent faulty agents. P_min "
      "decides in round t+2; for k < t P_basic, P0 on E_fip and P_opt all "
      "decide in round k+2; at k = t only P_opt (the common-knowledge lines) "
      "reaches round 3.",
      12, 5, true);
}

struct Tally {
  long earlier = 0;
  long tie = 0;
  long later = 0;

  void observe(int lhs_round, int rhs_round) {
    if (lhs_round < rhs_round)
      ++earlier;
    else if (lhs_round == rhs_round)
      ++tie;
    else
      ++later;
  }
};

Section domination() {
  Section s("domination",
            "Corresponding runs: P_opt is never later than P_min or P_basic "
            "for a nonfaulty agent (later == 0). P_basic vs P_min is reported, "
            "not gated: P_basic wins on failure-free all-ones runs and is "
            "never later in these families.",
            {"n", "t", "pair", "earlier", "tie", "later"});
  Rng rng(88);
  for (const auto& [n, t] :
       std::vector<std::pair<int, int>>{{5, 2}, {8, 3}, {10, 4}, {16, 6}}) {
    const auto fip = make_fip_driver(n, t);
    const auto mini = make_min_driver(n, t);
    const auto basic = make_basic_driver(n, t);
    Tally opt_vs_min, opt_vs_basic, basic_vs_min;
    const int samples = n <= 10 ? 400 : 120;
    for (int k = 0; k < samples; ++k) {
      FailurePattern alpha = FailurePattern::failure_free(n);
      std::vector<Value> prefs;
      switch (k % 4) {
        case 0:  // coordinated silence, all ones (Example 7.1 family)
          alpha = silent_agents_pattern(
              n, AgentSet::all(n).minus(AgentSet::all(n - t)), t + 2);
          prefs = all_ones(n);
          break;
        case 1:  // hidden chain
          alpha = hidden_chain_pattern(n, t, t + 3);
          prefs = one_zero(n);
          break;
        case 2:  // failure-free all-ones: P_basic's strict win over P_min
          prefs = all_ones(n);
          break;
        default:  // random
          alpha = sample_adversary(n, rng.below(t + 1), t + 2, 0.35, rng);
          prefs = sample_preferences(n, rng);
      }
      const RunSummary f = fip(alpha, prefs);
      const RunSummary m = mini(alpha, prefs);
      const RunSummary b = basic(alpha, prefs);
      for (AgentId i : alpha.nonfaulty()) {
        opt_vs_min.observe(f.round_of(i), m.round_of(i));
        opt_vs_basic.observe(f.round_of(i), b.round_of(i));
        basic_vs_min.observe(b.round_of(i), m.round_of(i));
      }
    }
    for (const auto& [pair, tally, gated] :
         {std::tuple{"P_opt vs P_min", opt_vs_min, true},
          std::tuple{"P_opt vs P_basic", opt_vs_basic, true},
          std::tuple{"P_basic vs P_min", basic_vs_min, false}}) {
      s.row({n, t, pair, tally.earlier, tally.tie, tally.later});
      if (gated)
        s.check(tally.later == 0, "n=", n, " t=", t, ": ", pair, ": ",
                tally.later, " nonfaulty decisions are later");
    }
  }
  return s;
}

Section failure_sweep() {
  Section s("failure_sweep",
            "Random omissions with drop probability p, all-one or Pr[0] = 1/n "
            "preferences: every per-agent gap P_basic - P_opt and P_min - "
            "P_opt is >= 0 (lowest_gap). The share of agents where P_basic is "
            "later (the section 8 conjecture: rarely) is reported, not gated.",
            {"n", "t", "prefs", "p", "mean_opt", "mean_basic", "mean_min",
             "basic_later_pct", "basic_gap_max", "min_later_pct",
             "min_gap_max", "lowest_gap"});
  Rng rng(888);
  // Uniform random preferences almost always contain a 0 and end in round 2
  // regardless of protocol; the regime where information matters is
  // one-heavy preferences, so both all-ones and Pr[0] = 1/n are swept.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{8, 2}, {16, 4}}) {
    const auto fip = make_fip_driver(n, t);
    const auto basic = make_basic_driver(n, t);
    const auto mini = make_min_driver(n, t);
    for (const bool rare_zero : {false, true}) {
      for (const double p : {0.05, 0.15, 0.3, 0.5}) {
        Aggregate opt_rounds, basic_rounds, min_rounds;
        long basic_later = 0, min_later = 0, agents = 0;
        int basic_gap_max = 0, min_gap_max = 0;
        int lowest_gap = std::numeric_limits<int>::max();
        const int samples = n <= 8 ? 300 : 100;
        for (int k = 0; k < samples; ++k) {
          const auto alpha = sample_adversary(n, t, t + 2, p, rng);
          auto prefs = all_ones(n);
          if (rare_zero)
            for (auto& v : prefs)
              if (rng.chance(1.0 / n)) v = Value::zero;
          const RunSummary f = fip(alpha, prefs);
          const RunSummary b = basic(alpha, prefs);
          const RunSummary m = mini(alpha, prefs);
          for (AgentId i : alpha.nonfaulty()) {
            opt_rounds.add(f.round_of(i));
            basic_rounds.add(b.round_of(i));
            min_rounds.add(m.round_of(i));
            const int gb = b.round_of(i) - f.round_of(i);
            const int gm = m.round_of(i) - f.round_of(i);
            basic_later += gb > 0 ? 1 : 0;
            min_later += gm > 0 ? 1 : 0;
            basic_gap_max = std::max(basic_gap_max, gb);
            min_gap_max = std::max(min_gap_max, gm);
            lowest_gap = std::min({lowest_gap, gb, gm});
            ++agents;
          }
        }
        const auto pct = [&](long x) {
          return 100.0 * static_cast<double>(x) / static_cast<double>(agents);
        };
        const char* prefs_name = rare_zero ? "Pr[0]=1/n" : "all-1";
        s.row({n, t, prefs_name, p, opt_rounds.mean(), basic_rounds.mean(),
               min_rounds.mean(), pct(basic_later), basic_gap_max,
               pct(min_later), min_gap_max, lowest_gap});
        s.check(lowest_gap >= 0, "n=", n, " t=", t, " prefs=", prefs_name,
                " p=", p, ": some agent decides ", -lowest_gap,
                " round(s) earlier than under P_opt");
      }
    }
  }
  return s;
}

/// Bits sent by the full-information graph exchange run for `rounds` rounds
/// with no decisions, failure-free.
std::size_t fip_exchange_bits(int n, int rounds) {
  const FipExchange x(n);
  auto noop = [](const FipState&) { return Action::noop(); };
  SimulateOptions opt;
  opt.max_rounds = rounds;
  opt.stop_when_all_decided = false;
  return simulate(x, noop, FailurePattern::failure_free(n), all_ones(n),
                  rounds, opt)
      .bits_sent;
}

Section prop81_bits() {
  Section s("prop81_bits",
            "Bits per run: P_min = n(n-1); P_basic <= 2n(n-1)(t+2) "
            "(basic_cap), in failure-free all-ones (free) and hidden-chain "
            "(chain) runs; the graph exchange over t+2 rounds = "
            "n(n-1)((t+2)(t+1)n^2 + 2n(t+2)), the O(n^4 t^2) envelope. Each "
            "(n, t) once.",
            {"n", "t", "min_free", "min_chain", "basic_free", "basic_chain",
             "basic_cap", "fip"});
  std::set<std::pair<int, int>> seen;
  for (const auto& [n, t] : shapes({4, 8, 16, 24, 32}, [](int n) {
         return std::array{1, n / 4, n / 2 - 1};
       })) {
    s.check(seen.emplace(n, t).second, "(n, t) = (", n, ", ", t,
            ") is emitted twice");
    const std::size_t links = static_cast<std::size_t>(n) * (n - 1);
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    const std::size_t rounds = static_cast<std::size_t>(t) + 2;
    const std::size_t basic_cap = 2 * links * rounds;
    const std::size_t fip_want =
        links * (rounds * (rounds - 1) * nn + 2 * rounds * n);
    const std::size_t fip = fip_exchange_bits(n, t + 2);
    const auto mini = make_min_driver(n, t);
    const auto basic = make_basic_driver(n, t);
    const auto free_alpha = FailurePattern::failure_free(n);
    const auto chain_alpha = hidden_chain_pattern(n, t, t + 3);
    const std::size_t min_free = mini(free_alpha, all_ones(n)).bits_sent;
    const std::size_t min_chain = mini(chain_alpha, one_zero(n)).bits_sent;
    const std::size_t basic_free = basic(free_alpha, all_ones(n)).bits_sent;
    const std::size_t basic_chain = basic(chain_alpha, one_zero(n)).bits_sent;
    s.row({n, t, min_free, min_chain, basic_free, basic_chain, basic_cap,
           fip});
    for (const std::size_t bits : {min_free, min_chain})
      s.check(bits == links, "n=", n, " t=", t, ": P_min sends ", bits,
              " bits, expected n(n-1) = ", links);
    for (const std::size_t bits : {basic_free, basic_chain})
      s.check(bits <= basic_cap, "n=", n, " t=", t, ": P_basic sends ", bits,
              " bits, above 2n(n-1)(t+2) = ", basic_cap);
    s.check(fip == fip_want, "n=", n, " t=", t, ": the graph exchange sends ",
            fip, " bits, expected ", fip_want);
  }
  return s;
}

Section prop82_rounds() {
  Section s("prop82_rounds",
            "Failure-free runs: with a 0 present (exists-0; every such "
            "vector for n <= 8, 32 samples above) P_min, P_basic and P_opt "
            "decide by round 2; all-ones runs take round t+2 under P_min and "
            "round 2 under P_basic and P_opt.",
            {"n", "t", "case", "P_min", "P_basic", "P_opt"});
  Rng rng(2023);
  for (const auto& [n, t] : shapes({3, 4, 6, 8, 12, 16, 24, 32}, [](int n) {
         return std::array{1, n / 3, n - 2};
       })) {
    const auto alpha = FailurePattern::failure_free(n);
    const auto drivers = paper_drivers(n, t);

    std::vector<std::vector<Value>> with_zero;
    if (n <= 8) {
      for (auto& p : all_preference_vectors(n))
        if (std::count(p.begin(), p.end(), Value::zero) > 0)
          with_zero.push_back(std::move(p));
    } else {
      for (int k = 0; k < 32; ++k) {
        auto p = sample_preferences(n, rng);
        p[static_cast<std::size_t>(rng.below(n))] = Value::zero;
        with_zero.push_back(std::move(p));
      }
    }
    std::array<int, 3> exists0{}, ones{};
    for (std::size_t d = 0; d < drivers.size(); ++d) {
      for (const auto& prefs : with_zero)
        exists0[d] = std::max(
            exists0[d], latest_round(drivers[d].run(alpha, prefs),
                                     AgentSet::all(n)));
      ones[d] =
          latest_round(drivers[d].run(alpha, all_ones(n)), AgentSet::all(n));
    }
    s.row({n, t, "exists-0", exists0[0], exists0[1], exists0[2]});
    s.row({n, t, "all-ones", ones[0], ones[1], ones[2]});
    for (std::size_t d = 0; d < drivers.size(); ++d) {
      const int want_ones = d == 0 ? t + 2 : 2;
      s.check(exists0[d] <= 2, "n=", n, " t=", t, ": exists-0: ",
              drivers[d].name, " decides in round ", exists0[d],
              ", expected <= 2");
      s.check(ones[d] == want_ones, "n=", n, " t=", t, ": all-ones: ",
              drivers[d].name, " decides in round ", ones[d], ", expected ",
              want_ones);
    }
  }
  return s;
}

struct Worst {
  int round = 0;
  bool spec_ok = true;

  void observe(const RunSummary& s) {
    spec_ok = spec_ok && check_eba(s.record).ok_strict();
    round = std::max(round, latest_round(s, AgentSet::all(s.n)));
  }
};

/// Checks and records one termination row; `tight` rows must reach t+2
/// under P_min and P_basic.
void termination_row(Section& s, int n, int t, const char* coverage,
                     std::uint64_t worlds, std::uint64_t covered,
                     const std::vector<NamedDriver>& drivers,
                     const std::array<Worst, 3>& worst, bool tight) {
  const bool spec_ok = std::all_of(worst.begin(), worst.end(),
                                   [](const Worst& w) { return w.spec_ok; });
  s.row({n, t, coverage, std::size_t{worlds}, std::size_t{covered},
         worst[0].round, worst[1].round, worst[2].round, t + 2,
         spec_ok ? "yes" : "NO"});
  s.check(spec_ok, "n=", n, " t=", t, " ", coverage,
          ": a run violates the strict EBA spec");
  for (std::size_t d = 0; d < drivers.size(); ++d) {
    s.check(worst[d].round <= t + 2, "n=", n, " t=", t, " ", coverage, ": ",
            drivers[d].name, " decides in round ", worst[d].round,
            ", after t+2 = ", t + 2);
    if (tight && d < 2)
      s.check(worst[d].round == t + 2, "n=", n, " t=", t, " ", coverage,
              ": ", drivers[d].name, " never reaches t+2 = ", t + 2,
              " (worst ", worst[d].round, ")");
  }
}

Section termination() {
  Section s("termination",
            "Every agent decides by round t+2 and every run is ok_strict. "
            "Exhaustive rows: one representative world per renaming orbit, "
            "weights covering count_adversaries * 2^n worlds. Sampled rows "
            "cover the worlds they drive, the first being the hidden chain: "
            "P_min and P_basic reach exactly t+2.",
            {"n", "t", "coverage", "worlds", "covered", "P_min", "P_basic",
             "P_opt", "bound", "spec_ok"});

  // Exhaustive small shapes: one representative-world sweep per shape,
  // reused across all three protocols.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{
           {3, 1}, {4, 1}, {4, 2}, {5, 1}, {6, 1}}) {
    const EnumerationConfig cfg{.n = n, .t = t, .rounds = 2};
    const auto drivers = paper_drivers(n, t);
    std::array<Worst, 3> worst{};
    std::uint64_t worlds = 0;
    const std::uint64_t covered = for_each_representative_world(
        cfg, [&](const FailurePattern& alpha, const std::vector<Value>& p,
                 std::uint64_t) {
          for (std::size_t d = 0; d < drivers.size(); ++d)
            worst[d].observe(drivers[d].run(alpha, p));
          ++worlds;
          return true;
        });
    const std::uint64_t space =
        count_adversaries(cfg) * (std::uint64_t{1} << cfg.n);
    s.check(covered == space, "n=", n, " t=", t, ": representative weights "
            "cover ", covered, " worlds, not the unreduced ", space);
    termination_row(s, n, t, "exhaustive", worlds, covered, drivers, worst,
                    false);
  }

  // Sampled larger shapes, seeded with the worst-case hidden chain.
  Rng rng(6171);
  for (const auto& [n, t, samples] :
       std::vector<std::tuple<int, int, int>>{{6, 2, 2000}, {8, 4, 1000},
                                              {12, 5, 400}, {16, 7, 150},
                                              {24, 10, 40}}) {
    const auto drivers = paper_drivers(n, t);
    std::array<Worst, 3> worst{};
    for (int k = 0; k < samples; ++k) {
      const FailurePattern alpha =
          k == 0 ? hidden_chain_pattern(n, t, t + 3)
                 : sample_adversary(n, rng.below(t + 1), t + 2, 0.4, rng);
      const std::vector<Value> prefs =
          k == 0 ? one_zero(n) : sample_preferences(n, rng);
      for (std::size_t d = 0; d < drivers.size(); ++d)
        worst[d].observe(drivers[d].run(alpha, prefs));
    }
    const auto worlds = static_cast<std::uint64_t>(samples);
    termination_row(s, n, t, "sampled", worlds, worlds, drivers, worst, true);
  }
  return s;
}

int run() {
  const auto start = Clock::now();
  std::vector<std::pair<Section, double>> sections;
  for (Section (*section)() : {example71, ablation, domination, failure_sweep,
                               prop81_bits, prop82_rounds, termination}) {
    const auto section_start = Clock::now();
    Section s = section();
    sections.emplace_back(std::move(s), seconds_since(section_start));
  }
  const double total_seconds = seconds_since(start);

  std::vector<std::string> failed;
  for (const auto& [s, seconds] : sections) {
    s.print_table(std::cerr);
    if (!s.ok()) failed.push_back(s.name());
  }

  std::ostringstream out;
  out << "{\n  \"gate\": {\"metric\": \"headline.seconds\", "
         "\"better\": \"lower\"},\n"
      << "  \"headline\": {\"seconds\": " << total_seconds
      << ", \"sections\": " << sections.size()
      << ", \"ok\": " << (failed.empty() ? "true" : "false")
      << "},\n  \"sections\": {\n";
  for (std::size_t k = 0; k < sections.size(); ++k) {
    sections[k].first.print_json(out, sections[k].second);
    out << (k + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::cout << out.str();

  std::cerr << "\n" << sections.size() << " sections in " << total_seconds
            << "s\n";
  for (const auto& [s, seconds] : sections)
    for (const std::string& what : s.failures())
      std::cerr << "FAIL [" << s.name() << "]: " << what << "\n";
  if (failed.empty()) return 0;
  std::cerr << "FAIL: sections failed:";
  for (const std::string& name : failed) std::cerr << " " << name;
  std::cerr << "\n";
  return 1;
}

}  // namespace
}  // namespace eba::bench

int main() { return eba::bench::run(); }
