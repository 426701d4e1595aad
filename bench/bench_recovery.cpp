// Crash-recovery and durability benchmark (BENCH_recovery.json).
//
// Three families of gated rows:
//
//  * replay (headline) — offline verification throughput of EBTR trace
//    containers (audit/trace_file.hpp): a workload run streams one trace
//    per instance, then `replay_verify` re-parses every container,
//    re-derives its decision certificate and re-checks the EBA spec. Every
//    trace must verify; the row reports traces/sec and MB/sec.
//  * snapshot — the cost of durability: the same static workload run
//    without a store and with a MemVfs run log at an every-round checkpoint
//    cadence (net/checkpoint.hpp, store/run_log.hpp). The records must be
//    identical; the row reports the overhead ratio (informational —
//    wall-clock ratios are machine-dependent).
//  * tamper — a rejection sweep over one finished trace: sampled
//    truncations and bit flips must ALL be rejected by the verifier.
//
// The bench-scale crash storms live in bench_durability.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_recovery.json by ci/run_benches.cmake; its "gate" block names the
// headline replay throughput for ci/ab.py); human-readable summary
// on stderr. Exit code is self-gating.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_specs.hpp"
#include "bench_util.hpp"
#include "action/p_opt.hpp"
#include "audit/trace_file.hpp"
#include "exchange/fip.hpp"
#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "stats/rng.hpp"
#include "store/vfs.hpp"

namespace eba::bench {
namespace {

// ---------------------------------------------------------------------------
// Replay-verification throughput (headline)
// ---------------------------------------------------------------------------

struct ReplayRow {
  int n = 8;
  int t = 2;
  std::size_t traces = 0;
  std::size_t bytes = 0;
  std::size_t verifications = 0;
  double seconds = 0;
  double traces_per_sec = 0;
  double mb_per_sec = 0;
  bool ok = false;
};

ReplayRow run_replay(std::size_t count, int repetitions) {
  ReplayRow row;
  const FipExchange x(row.n);
  const POpt act(row.n, row.t);
  const auto specs = make_specs(row.n, row.t, count, FailureModel::sending,
                                0xeb7101);
  WorkloadOptions opt;
  opt.record_traces = true;
  const auto result = run_workload(x, act, specs, row.t, opt);

  row.traces = result.traces.size();
  for (const Bytes& trace : result.traces) row.bytes += trace.size();

  // One verification is sub-microsecond work; repeating the pass keeps the
  // measured interval long enough to time.
  const Clock::time_point start = Clock::now();
  bool all_ok = true;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const Bytes& trace : result.traces) {
      const ReplayReport report = replay_verify(trace);
      all_ok = all_ok && report.ok && report.complete;
      row.verifications += 1;
    }
  }
  row.seconds = seconds_since(start);
  row.ok = all_ok && row.traces == count;
  if (row.seconds > 0) {
    row.traces_per_sec =
        static_cast<double>(row.verifications) / row.seconds;
    row.mb_per_sec = static_cast<double>(row.bytes) *
                     static_cast<double>(repetitions) / (1024.0 * 1024.0) /
                     row.seconds;
  }
  return row;
}

// ---------------------------------------------------------------------------
// Snapshot overhead
// ---------------------------------------------------------------------------

struct SnapshotRow {
  int n = 8;
  int t = 2;
  std::size_t instances = 0;
  double plain_seconds = 0;
  double durable_seconds = 0;
  double overhead_ratio = 0;
  std::size_t snapshots = 0;
  bool records_equal = false;
  bool ok = false;
};

SnapshotRow run_snapshot(std::size_t count) {
  SnapshotRow row;
  row.instances = count;
  const FipExchange x(row.n);
  const POpt act(row.n, row.t);
  const auto specs = make_specs(row.n, row.t, count, FailureModel::sending,
                                0xeb7102);

  Clock::time_point start = Clock::now();
  const auto plain = run_workload(x, act, specs, row.t);
  row.plain_seconds = seconds_since(start);

  MemVfs vfs;
  DurableStoreOptions store;
  store.vfs = &vfs;
  store.root = "wl";
  WorkloadOptions durable;
  durable.snapshot_every = 1;
  durable.store = &store;
  start = Clock::now();
  const auto snapshotted = run_workload(x, act, specs, row.t, durable);
  row.durable_seconds = seconds_since(start);

  row.snapshots = snapshotted.snapshots_taken;
  row.records_equal = true;
  for (std::size_t k = 0; k < count; ++k)
    row.records_equal = row.records_equal &&
                        plain.instances[k].record ==
                            snapshotted.instances[k].record;
  row.overhead_ratio = row.plain_seconds > 0
                           ? row.durable_seconds / row.plain_seconds
                           : 0;
  row.ok = row.records_equal && row.snapshots > count;
  return row;
}

// ---------------------------------------------------------------------------
// Tamper-rejection sweep
// ---------------------------------------------------------------------------

struct TamperRow {
  std::size_t trace_bytes = 0;
  std::size_t mutations = 0;
  std::size_t rejected = 0;
  double seconds = 0;
  bool ok = false;
};

TamperRow run_tamper() {
  TamperRow row;
  const int n = 8;
  const int t = 2;
  Rng rng(0xeb7103);
  const FailurePattern alpha = sample_adversary(n, t, t + 2, 0.35, rng);
  const auto run = simulate(FipExchange(n), POpt(n, t), alpha,
                            sample_preferences(n, rng), t);
  const Bytes trace = write_trace(run.record, /*instance_id=*/0xeb);
  row.trace_bytes = trace.size();

  const Clock::time_point start = Clock::now();
  // Sampled truncations and single-bit flips at a prime stride — the full
  // every-byte sweep lives in the tests; here the row measures and gates
  // the rejection path at bench scale.
  for (std::size_t cut = 0; cut < trace.size(); cut += 7) {
    Bytes mutant(trace.begin(),
                 trace.begin() + static_cast<std::ptrdiff_t>(cut));
    row.mutations += 1;
    if (!replay_verify(mutant).ok) row.rejected += 1;
  }
  for (std::size_t at = 0; at < trace.size(); at += 7) {
    Bytes mutant = trace;
    mutant[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    row.mutations += 1;
    if (!replay_verify(mutant).ok) row.rejected += 1;
  }
  row.seconds = seconds_since(start);
  row.ok = row.mutations > 0 && row.rejected == row.mutations &&
           replay_verify(trace).ok;
  return row;
}

}  // namespace
}  // namespace eba::bench

int main() {
  using namespace eba;
  using namespace eba::bench;

  const ReplayRow replay = run_replay(/*count=*/256, /*repetitions=*/64);
  const SnapshotRow snapshot = run_snapshot(/*count=*/128);

  const TamperRow tamper = run_tamper();

  // --- human-readable report (stderr) --------------------------------------
  std::cerr << "=== bench_recovery: trace replay, snapshots, tamper "
               "rejection ===\n\n";
  std::cerr << "replay headline: " << replay.traces << " traces ("
            << replay.bytes << " bytes) verified in " << fmt(replay.seconds)
            << "s = " << fmt(replay.traces_per_sec) << " traces/s, "
            << fmt(replay.mb_per_sec) << " MB/s"
            << (replay.ok ? " (ok)" : " (FAILED)") << "\n";
  std::cerr << "snapshot overhead: plain " << fmt(snapshot.plain_seconds)
            << "s vs every-round checkpoints " << fmt(snapshot.durable_seconds)
            << "s (" << fmt(snapshot.overhead_ratio) << "x, "
            << snapshot.snapshots << " snapshots)"
            << (snapshot.ok ? " (records identical)" : " (RECORDS DIVERGE)")
            << "\n";
  std::cerr << "tamper sweep: " << tamper.rejected << "/" << tamper.mutations
            << " mutations rejected over a " << tamper.trace_bytes
            << "-byte trace" << (tamper.ok ? " (ok)" : " (SOME ACCEPTED)")
            << "\n";

  // --- machine-readable JSON (stdout) --------------------------------------
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"bench_recovery\",\n";
  out << "  \"gate\": {\"metric\": \"headline.traces_per_sec\", "
         "\"better\": \"higher\"},\n";
  out << "  \"headline\": {\"label\": \"replay_verify\", \"n\": " << replay.n
      << ", \"t\": " << replay.t << ", \"traces\": " << replay.traces
      << ", \"bytes\": " << replay.bytes
      << ", \"verifications\": " << replay.verifications
      << ", \"seconds\": " << fmt(replay.seconds)
      << ", \"traces_per_sec\": " << fmt(replay.traces_per_sec)
      << ", \"mb_per_sec\": " << fmt(replay.mb_per_sec) << ", \"ok\": "
      << (replay.ok ? "true" : "false") << "},\n";
  out << "  \"snapshot\": {\"n\": " << snapshot.n << ", \"t\": " << snapshot.t
      << ", \"instances\": " << snapshot.instances
      << ", \"plain_seconds\": " << fmt(snapshot.plain_seconds)
      << ", \"durable_seconds\": " << fmt(snapshot.durable_seconds)
      << ", \"overhead_ratio\": " << fmt(snapshot.overhead_ratio)
      << ", \"snapshots\": " << snapshot.snapshots
      << ", \"records_equal\": " << (snapshot.records_equal ? "true" : "false")
      << ", \"ok\": " << (snapshot.ok ? "true" : "false") << "},\n";
  out << "  \"tamper\": {\"trace_bytes\": " << tamper.trace_bytes
      << ", \"mutations\": " << tamper.mutations
      << ", \"rejected\": " << tamper.rejected
      << ", \"seconds\": " << fmt(tamper.seconds) << ", \"ok\": "
      << (tamper.ok ? "true" : "false") << "}\n";
  out << "}\n";
  std::cout << out.str();

  // --- self-gates ----------------------------------------------------------
  bool failed = false;
  if (!replay.ok) {
    std::cerr << "FAIL: a streamed trace did not verify offline\n";
    failed = true;
  }
  if (!snapshot.ok) {
    std::cerr << "FAIL: every-round checkpoints changed the run records\n";
    failed = true;
  }
  if (!tamper.ok) {
    std::cerr << "FAIL: tamper sweep accepted " << (tamper.mutations -
                                                    tamper.rejected)
              << " mutations\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
