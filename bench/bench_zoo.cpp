// Protocol-zoo comparison matrix (BENCH_zoo.json).
//
// Five shipped protocols — P_min, P_basic, P_opt, P_es (early stopping) and
// P_auth (authenticated per-destination reports) — run on the same realized-
// fault family: f silent faulty agents with unanimous preference 1, f swept
// 0..t at n = 8, 16, 32. The matrix reads off decision rounds, message and
// bit totals and per-cell wall time, and self-checks three properties:
//
//   * spec_ok     — every run passes the strict EBA spec (Prop 6.1 bound);
//   * bound_ok    — the early stoppers decide within min(f+2, t+2) rounds
//                   (decided time min(f+1, t+1); see docs/PROTOCOL_ZOO.md
//                   on the numbering);
//   * dominate_ok — per world and per nonfaulty agent, P_opt decides no
//                   later than P_es, and P_es no later than P_basic.
//
// The interesting shape: at f < t every realized-fault-aware protocol
// decides in round f+2 while P_min sits at t+2; at f = t the budget test
// drops P_es (and P_opt) to round 3 while P_basic pays t+2.
//
// Output: machine-readable JSON on stdout (written to BENCH_zoo.json by
// ci/run_benches.cmake; its "gate" block names the headline matrix wall time
// for ci/ab.py); human-readable table on stderr. Exit code is
// nonzero when any self-check fails or a protocol is missing from the
// matrix. `--smoke` restricts to n = 8 for ci/verify.sh and prints no gate
// block.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "sim/drivers.hpp"
#include "stats/table.hpp"

namespace eba::bench {
namespace {

struct Row {
  std::string protocol;
  int n = 0;
  int t = 0;
  int f = 0;
  int round = 0;  ///< last nonfaulty decision round
  std::size_t messages = 0;
  std::size_t bits = 0;
  double seconds = 0;
  bool spec_ok = false;
  bool bound_ok = true;  ///< early-stop rows only; vacuously true elsewhere
};

struct Matrix {
  std::vector<Row> rows;
  bool spec_ok = true;
  bool bounds_ok = true;
  bool domination_ok = true;
};

// The five-protocol comparison at one (n, t), f swept 0..t on the silent-
// agents family with unanimous 1 preferences.
void sweep_shape(Matrix& m, int n, int t) {
  const std::vector<std::pair<std::string, RunDriver>> zoo = {
      {"P_min", make_min_driver(n, t)},
      {"P_basic", make_basic_driver(n, t)},
      {"P_opt", make_fip_driver(n, t)},
      {"P_es", make_early_stop_driver(n, t)},
      {"P_auth", make_auth_driver(n, t)},
  };
  const std::vector<Value> ones(static_cast<std::size_t>(n), Value::one);
  for (int f = 0; f <= t; ++f) {
    AgentSet silent;
    for (AgentId i = 0; i < f; ++i) silent.insert(i);
    const FailurePattern alpha = silent_agents_pattern(n, silent, t + 3);

    // Per-agent decision rounds of this world's P_opt/P_es/P_basic runs,
    // for the domination bit.
    std::vector<std::vector<int>> rounds_by_protocol(zoo.size());
    for (std::size_t k = 0; k < zoo.size(); ++k) {
      Row row;
      row.protocol = zoo[k].first;
      row.n = n;
      row.t = t;
      row.f = f;
      const auto start = Clock::now();
      const RunSummary s = zoo[k].second(alpha, ones);
      row.seconds = seconds_since(start);
      row.round = s.last_nonfaulty_round();
      row.messages = s.messages_sent;
      row.bits = s.bits_sent;
      row.spec_ok = check_eba(s.record).ok_strict();
      if (row.protocol == "P_es" || row.protocol == "P_auth") {
        const int bound = std::min(f + 2, t + 2);
        for (AgentId i = 0; i < n; ++i) {
          const int r = s.round_of(i);
          if (r <= 0 || r > bound) row.bound_ok = false;
        }
      }
      auto& per_agent = rounds_by_protocol[k];
      for (AgentId i = 0; i < n; ++i) per_agent.push_back(s.round_of(i));
      m.spec_ok = m.spec_ok && row.spec_ok;
      m.bounds_ok = m.bounds_ok && row.bound_ok;
      m.rows.push_back(std::move(row));
    }

    // Domination: P_opt <= P_es <= P_basic per nonfaulty agent. (Indices
    // into `zoo`: 1 = P_basic, 2 = P_opt, 3 = P_es.)
    for (AgentId i : alpha.nonfaulty()) {
      const int basic = rounds_by_protocol[1][static_cast<std::size_t>(i)];
      const int opt = rounds_by_protocol[2][static_cast<std::size_t>(i)];
      const int es = rounds_by_protocol[3][static_cast<std::size_t>(i)];
      if (!(opt <= es && es <= basic)) m.domination_ok = false;
    }
  }
}

int run(bool smoke) {
  const auto start = Clock::now();
  Matrix m;
  sweep_shape(m, 8, 3);
  if (!smoke) {
    sweep_shape(m, 16, 4);
    sweep_shape(m, 32, 4);
  }
  const double total_seconds = seconds_since(start);

  Table table({"protocol", "n", "t", "f", "round", "messages", "bits", "ok"});
  for (const Row& r : m.rows)
    table.add_row({r.protocol, std::to_string(r.n), std::to_string(r.t),
                   std::to_string(r.f), std::to_string(r.round),
                   std::to_string(r.messages), std::to_string(r.bits),
                   r.spec_ok && r.bound_ok ? "yes" : "NO"});
  table.print(std::cerr);
  std::cerr << "matrix: " << m.rows.size() << " rows in " << total_seconds
            << "s; spec " << (m.spec_ok ? "ok" : "FAIL") << ", bounds "
            << (m.bounds_ok ? "ok" : "FAIL") << ", domination "
            << (m.domination_ok ? "ok" : "FAIL") << "\n";

  std::ostringstream out;
  out << "{\n";
  if (!smoke)
    out << "  \"gate\": {\"metric\": \"headline.seconds\", "
           "\"better\": \"lower\"},\n";
  out << "  \"headline\": {\"seconds\": " << total_seconds
      << ", \"rows\": " << m.rows.size() << ", \"smoke\": "
      << (smoke ? "true" : "false")
      << ", \"spec_ok\": " << (m.spec_ok ? "true" : "false")
      << ", \"bounds_ok\": " << (m.bounds_ok ? "true" : "false")
      << ", \"domination_ok\": " << (m.domination_ok ? "true" : "false")
      << "},\n  \"matrix\": [\n";
  for (std::size_t k = 0; k < m.rows.size(); ++k) {
    const Row& r = m.rows[k];
    out << "    {\"protocol\": \"" << r.protocol << "\", \"n\": " << r.n
        << ", \"t\": " << r.t << ", \"f\": " << r.f
        << ", \"round\": " << r.round << ", \"messages\": " << r.messages
        << ", \"bits\": " << r.bits << ", \"seconds\": " << r.seconds
        << ", \"spec_ok\": " << (r.spec_ok ? "true" : "false")
        << ", \"bound_ok\": " << (r.bound_ok ? "true" : "false") << "}"
        << (k + 1 < m.rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << out.str();

  bool all_protocols = true;
  for (const char* name : {"P_min", "P_basic", "P_opt", "P_es", "P_auth"}) {
    const auto is_name = [&](const Row& r) { return r.protocol == name; };
    if (std::none_of(m.rows.begin(), m.rows.end(), is_name)) {
      std::cerr << "FAIL: " << name << " is missing from the matrix\n";
      all_protocols = false;
    }
  }
  const bool ok =
      m.spec_ok && m.bounds_ok && m.domination_ok && all_protocols;
  if (!ok) std::cerr << "FAIL: a zoo self-check failed\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eba::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return eba::bench::run(smoke);
}
