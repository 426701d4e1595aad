// Durable storage-engine benchmark (BENCH_durability.json).
//
// Five families of rows over the store/ layer:
//
//  * journal_append_mem (headline) — fsync'd append throughput of the
//    segment journal on the in-memory VFS: every record is appended AND
//    synced, so the number is the per-record durability cost without disk
//    noise. The row gates that a reopen recovers every record.
//  * journal_append_disk — the same loop on DiskVfs against a real tmpfs/
//    disk directory. Informational (gated: false): absolute fsync latency
//    is machine-dependent, but the row still self-checks recovery.
//  * checkpoints — full-vs-delta durability cost for one instance: at every
//    round boundary, the size and encode time of a full EBCK checkpoint
//    (net/checkpoint.hpp) against the round's DeltaPayload. Gates that the
//    per-round delta is strictly smaller than the full checkpoint — the
//    reason delta checkpoints exist.
//  * crash_storms — the bench-scale workload crash storms, all through the
//    durable store (MemVfs + RunLog + WAL intents), the driver's one
//    recovery path: one seeded boundary crash and two mid-round power cuts
//    per instance across P_min/SO, P_opt/SO, P_opt_go/GO and an
//    adaptive-adversary GO workload; gates that every crashed-and-recovered
//    record equals the uninterrupted run's and every streamed trace
//    verifies offline.
//  * torn_sweep — a power cut with a torn final page at every byte offset
//    (clean and corrupted): every tear must either recover the exact
//    durable prefix or reject with a typed error; never a wrong record.
//
// Output: machine-readable JSON on stdout (written verbatim to
// BENCH_durability.json by ci/run_benches.cmake; its "gate" block names the
// headline in-memory append throughput for ci/ab.py);
// human-readable table on stderr. Exit code is self-gating.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_specs.hpp"
#include "bench_util.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "audit/trace_file.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "failure/generators.hpp"
#include "net/checkpoint.hpp"
#include "net/workload.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"
#include "stats/table.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"

namespace eba::bench {
namespace {

// ---------------------------------------------------------------------------
// Fsync'd journal append throughput (headline: MemVfs; informational: disk)
// ---------------------------------------------------------------------------

struct AppendRow {
  std::string label;
  std::size_t records = 0;
  std::size_t payload_bytes = 0;
  std::size_t syncs = 0;
  double seconds = 0;
  double records_per_sec = 0;
  double mb_per_sec = 0;
  bool recovered_all = false;
  bool ok = false;
};

AppendRow run_append(std::string label, Vfs& vfs, const std::string& dir,
                     std::size_t count, std::size_t payload_bytes) {
  AppendRow row;
  row.label = std::move(label);
  row.records = count;
  row.payload_bytes = payload_bytes;

  JournalOptions opt;
  opt.page_size = 512;
  opt.segment_bytes = 1u << 18;
  Journal j = Journal::create(vfs, dir, opt);

  Bytes payload(payload_bytes);
  for (std::size_t b = 0; b < payload.size(); ++b)
    payload[b] = static_cast<std::uint8_t>(b * 131 + 7);

  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    payload[0] = static_cast<std::uint8_t>(k);  // vary the bytes a little
    (void)j.append(kRunLogDelta, payload);
    j.sync();  // durability per record: this IS the measured cost
    row.syncs += 1;
  }
  row.seconds = seconds_since(start);

  const Journal reopened = Journal::open(vfs, dir, opt);
  row.recovered_all = reopened.records().size() == count &&
                      reopened.last_seq() == count;
  row.ok = row.recovered_all;
  if (row.seconds > 0) {
    row.records_per_sec = static_cast<double>(count) / row.seconds;
    row.mb_per_sec = static_cast<double>(count * payload_bytes) /
                     (1024.0 * 1024.0) / row.seconds;
  }
  return row;
}

void json_append(std::ostringstream& out, const AppendRow& r, bool gated) {
  out << "{\"label\": \"" << r.label << "\", \"records\": " << r.records
      << ", \"payload_bytes\": " << r.payload_bytes
      << ", \"syncs\": " << r.syncs << ", \"seconds\": " << fmt(r.seconds)
      << ", \"records_per_sec\": " << fmt(r.records_per_sec)
      << ", \"mb_per_sec\": " << fmt(r.mb_per_sec)
      << ", \"gated\": " << (gated ? "true" : "false")
      << ", \"ok\": " << (r.ok ? "true" : "false") << "}";
}

// ---------------------------------------------------------------------------
// Full-vs-delta checkpoint cost
// ---------------------------------------------------------------------------

struct CheckpointRow {
  int n = 0;
  int t = 0;
  int rounds = 0;
  std::size_t full_bytes_total = 0;   ///< one EBCK per round boundary
  std::size_t delta_bytes_total = 0;  ///< one DeltaPayload per round
  double full_seconds = 0;
  double delta_seconds = 0;
  double bytes_ratio = 0;  ///< delta/full, < 1 is the point
  bool ok = false;
};

CheckpointRow run_checkpoints(int n, int t, std::uint64_t seed,
                              int repetitions) {
  CheckpointRow row;
  row.n = n;
  row.t = t;
  const FipExchange x(n);
  const POptGo act(n, t);
  Rng rng(seed);
  const FailurePattern alpha =
      sample_go_adversary(n, t, t + 2, 0.35, 0.2, rng);
  const std::vector<Value> inits = sample_preferences(n, rng);

  Stepper<FipExchange, POptGo> stepper(x, act, alpha, inits, t);
  std::vector<Bytes> fulls;
  while (stepper.step()) {
    fulls.push_back(checkpoint_stepper(stepper));
    row.rounds += 1;
  }
  const RunRecord& record = stepper.record();

  // Sizes once; encode time over `repetitions` passes so the interval is
  // long enough to gate as a ratio.
  for (const Bytes& full : fulls) row.full_bytes_total += full.size();
  for (int m = 0; m < row.rounds; ++m) {
    Writer w;
    encode_delta(w, delta_of_record(record, m));
    row.delta_bytes_total += w.take().size();
  }

  Clock::time_point start = Clock::now();
  for (int rep = 0; rep < repetitions; ++rep) {
    Stepper<FipExchange, POptGo> s(x, act, alpha, inits, t);
    while (s.step()) (void)checkpoint_stepper(s).size();
  }
  row.full_seconds = seconds_since(start);

  start = Clock::now();
  for (int rep = 0; rep < repetitions; ++rep) {
    Stepper<FipExchange, POptGo> s(x, act, alpha, inits, t);
    while (s.step()) {
      Writer w;
      encode_delta(w, delta_of_record(s.record(), s.time() - 1));
      (void)w.take().size();
    }
  }
  row.delta_seconds = seconds_since(start);

  row.bytes_ratio =
      row.full_bytes_total > 0
          ? static_cast<double>(row.delta_bytes_total) /
                static_cast<double>(row.full_bytes_total)
          : 0;
  // The gate: per-round deltas must be strictly cheaper than per-round
  // full checkpoints, in bytes — otherwise the incremental tier is dead
  // weight.
  row.ok = row.rounds >= 2 && row.delta_bytes_total < row.full_bytes_total;
  return row;
}

// ---------------------------------------------------------------------------
// Durable crash storms
// ---------------------------------------------------------------------------

struct StormRow {
  std::string label;
  std::string model;
  int n = 0;
  int t = 0;
  std::size_t instances = 0;
  std::size_t crashes = 0;
  double seconds = 0;
  bool records_equal = false;
  bool traces_ok = false;
  bool ok = false;
};

/// One boundary crash and two mid-round power cuts per instance, at seeded
/// rounds in [1, t + 2].
CrashSchedule mixed_storm(std::size_t count, int t, std::uint64_t seed) {
  CrashSchedule storm = CrashSchedule::seeded(count, t + 2, seed + 1);
  storm.mid_rounds =
      CrashSchedule::seeded_mid_round(count, t + 2, seed + 2, 2).mid_rounds;
  return storm;
}

template <class X, class P>
StormRow run_storm(std::string label, const X& x, const P& act, int t,
                   FailureModel model, std::size_t count,
                   std::uint64_t seed) {
  StormRow row;
  row.label = std::move(label);
  row.model = model == FailureModel::sending ? "SO" : "GO";
  row.n = x.n();
  row.t = t;
  row.instances = count;
  const auto specs = make_specs(row.n, t, count, model, seed);

  const auto plain = run_workload(x, act, specs, t);

  MemVfs vfs;
  DurableStoreOptions store;
  store.vfs = &vfs;
  store.root = "wl";
  store.journal.page_size = 256;
  store.keep_checkpoints = 2;
  const CrashSchedule storm = mixed_storm(count, t, seed);
  WorkloadOptions opt;
  opt.snapshot_every = 1;
  opt.crashes = &storm;
  opt.record_traces = true;
  opt.store = &store;
  const Clock::time_point start = Clock::now();
  const auto crashed = run_workload(x, act, specs, t, opt);
  row.seconds = seconds_since(start);

  row.crashes = crashed.crashes_injected;
  row.records_equal = true;
  row.traces_ok = true;
  for (std::size_t k = 0; k < count; ++k) {
    row.records_equal =
        row.records_equal &&
        plain.instances[k].record == crashed.instances[k].record;
    row.traces_ok = row.traces_ok && replay_verify(crashed.traces[k]).ok;
  }
  row.ok = row.records_equal && row.traces_ok && row.crashes >= count;
  return row;
}

StormRow run_adaptive_storm(std::size_t count, std::uint64_t seed) {
  StormRow row;
  row.label = "storm_adaptive_p_opt_go";
  row.model = "GO";
  row.n = 6;
  row.t = 2;
  row.instances = count;
  const FipExchange x(row.n);
  const POptGo act(row.n, row.t);

  const auto factories =
      shipped_strategies(row.n, row.t, FailureModel::general);
  const auto specs_at = [&](std::uint64_t salt) {
    Rng rng(seed + salt);
    std::vector<AdaptiveInstanceSpec> specs;
    for (std::size_t k = 0; k < count; ++k) {
      AdaptiveInstanceSpec spec;
      spec.strategy = factories[k % factories.size()].make(seed + k);
      spec.inits = sample_preferences(row.n, rng);
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  auto plain_specs = specs_at(0);
  const auto plain = run_adaptive_workload(
      x, act, std::span<AdaptiveInstanceSpec>(plain_specs), row.t);

  auto crash_specs = specs_at(0);
  MemVfs vfs;
  DurableStoreOptions store;
  store.vfs = &vfs;
  store.root = "wl";
  store.journal.page_size = 256;
  const CrashSchedule storm = mixed_storm(count, row.t, seed);
  WorkloadOptions opt;
  opt.snapshot_every = 1;
  opt.crashes = &storm;
  opt.record_traces = true;
  opt.store = &store;
  const Clock::time_point start = Clock::now();
  const auto crashed = run_adaptive_workload(
      x, act, std::span<AdaptiveInstanceSpec>(crash_specs), row.t, opt);
  row.seconds = seconds_since(start);

  row.crashes = crashed.crashes_injected;
  row.records_equal = true;
  row.traces_ok = true;
  for (std::size_t k = 0; k < count; ++k) {
    row.records_equal =
        row.records_equal &&
        plain.instances[k].record == crashed.instances[k].record;
    row.traces_ok = row.traces_ok && replay_verify(crashed.traces[k]).ok;
  }
  row.ok = row.records_equal && row.traces_ok && row.crashes >= count;
  return row;
}

void json_storm(std::ostringstream& out, const StormRow& r,
                const char* indent) {
  out << indent << "{\"label\": \"" << r.label << "\", \"model\": \""
      << r.model << "\", \"n\": " << r.n << ", \"t\": " << r.t
      << ", \"instances\": " << r.instances << ", \"crashes\": " << r.crashes
      << ", \"records_equal\": " << (r.records_equal ? "true" : "false")
      << ", \"traces_ok\": " << (r.traces_ok ? "true" : "false")
      << ", \"seconds\": " << fmt(r.seconds)
      << ", \"ok\": " << (r.ok ? "true" : "false") << "}";
}

// ---------------------------------------------------------------------------
// Torn-write sweep
// ---------------------------------------------------------------------------

struct TornRow {
  std::size_t offsets = 0;    ///< tear points tried (clean + corrupt)
  std::size_t recovered = 0;  ///< reopened with the exact durable prefix
  std::size_t rejected = 0;   ///< reopen refused with a typed DecodeError
  double seconds = 0;
  bool ok = false;  ///< every offset recovered-or-rejected, never wrong
};

TornRow run_torn_sweep() {
  TornRow row;
  constexpr std::uint32_t kPage = 128;
  constexpr std::size_t kSynced = 6;

  const Clock::time_point start = Clock::now();
  for (int corrupt = 0; corrupt < 2; ++corrupt) {
    for (std::uint32_t keep = 0; keep <= kPage; ++keep) {
      MemVfs vfs;
      JournalOptions opt;
      opt.page_size = kPage;
      Journal j = Journal::create(vfs, "j", opt);
      Bytes payload(40);
      for (std::size_t k = 0; k < kSynced; ++k) {
        payload[0] = static_cast<std::uint8_t>(k);
        (void)j.append(kRunLogDelta, payload);
        j.sync();
      }
      payload[0] = 0xEE;  // the unsynced record the tear lands on
      (void)j.append(kRunLogDelta, payload);

      TearSpec tear;
      tear.path = "j/seg-000001";
      tear.keep = keep;
      tear.corrupt = corrupt == 1;
      vfs.power_cut("j/", tear);

      row.offsets += 1;
      try {
        const Journal reopened = Journal::open(vfs, "j", opt);
        const auto& recs = reopened.records();
        // Wrong outcomes: losing a synced record, inventing one, or
        // surfacing damaged bytes as a valid record. (A corrupted byte in
        // the zero padding past the CRC legitimately recovers.)
        if (recs.size() < kSynced || recs.size() > kSynced + 1) return row;
        bool bytes_ok = true;
        for (std::size_t k = 0; k < recs.size(); ++k) {
          payload[0] =
              k < kSynced ? static_cast<std::uint8_t>(k) : std::uint8_t{0xEE};
          bytes_ok = bytes_ok && recs[k].seq == k + 1 &&
                     recs[k].payload == payload;
        }
        if (!bytes_ok) return row;
        row.recovered += 1;
      } catch (const DecodeError&) {
        row.rejected += 1;
      }
    }
  }
  row.seconds = seconds_since(start);
  row.ok = row.recovered + row.rejected == row.offsets && row.offsets > 0;
  return row;
}

}  // namespace
}  // namespace eba::bench

int main() {
  using namespace eba;
  using namespace eba::bench;

  MemVfs mem;
  const AppendRow mem_row =
      run_append("journal_append_mem", mem, "bench-journal",
                 /*count=*/20000, /*payload_bytes=*/128);

  // Disk row: real fsyncs in a throwaway directory; informational.
  char disk_dir[] = "/tmp/eba_bench_durability_XXXXXX";
  AppendRow disk_row;
  if (::mkdtemp(disk_dir) != nullptr) {
    DiskVfs disk;
    disk_row = run_append("journal_append_disk", disk,
                          std::string(disk_dir) + "/journal",
                          /*count=*/512, /*payload_bytes=*/128);
    std::error_code ec;
    std::filesystem::remove_all(disk_dir, ec);
  } else {
    disk_row.label = "journal_append_disk";
  }

  const CheckpointRow ckpt =
      run_checkpoints(/*n=*/8, /*t=*/2, 0xd07a01, /*repetitions=*/256);

  std::vector<StormRow> storms;
  storms.push_back(run_storm("storm_p_min", MinExchange(6), PMin(6, 2), 2,
                             FailureModel::sending, 48, 0xd07a10));
  storms.push_back(run_storm("storm_p_opt", FipExchange(6), POpt(6, 2), 2,
                             FailureModel::sending, 48, 0xd07a13));
  storms.push_back(run_storm("storm_p_opt_go", FipExchange(6), POptGo(6, 2),
                             2, FailureModel::general, 48, 0xd07a11));
  storms.push_back(run_adaptive_storm(/*count=*/24, 0xd07a12));

  const TornRow torn = run_torn_sweep();

  // --- human-readable report (stderr) --------------------------------------
  std::cerr << "=== bench_durability: fsync'd journal, delta checkpoints, "
               "crash storms, torn writes ===\n\n";
  Table atable({"append", "records", "bytes", "syncs", "seconds", "rec/s",
                "MB/s", "ok"});
  for (const AppendRow* r :
       std::initializer_list<const AppendRow*>{&mem_row, &disk_row})
    atable.row(r->label, r->records, r->payload_bytes, r->syncs,
               fmt(r->seconds), fmt(r->records_per_sec), fmt(r->mb_per_sec),
               r->ok ? "yes" : "NO");
  atable.print(std::cerr);
  std::cerr << "\ncheckpoints: " << ckpt.rounds << " rounds, full "
            << ckpt.full_bytes_total << "B/" << fmt(ckpt.full_seconds)
            << "s vs delta " << ckpt.delta_bytes_total << "B/"
            << fmt(ckpt.delta_seconds) << "s (bytes ratio "
            << fmt(ckpt.bytes_ratio) << ")"
            << (ckpt.ok ? " (ok)" : " (DELTA NOT SMALLER)") << "\n\n";
  Table stable({"crash storm", "model", "n", "t", "instances", "crashes",
                "seconds", "ok"});
  for (const StormRow& r : storms)
    stable.row(r.label, r.model, r.n, r.t, r.instances, r.crashes,
               fmt(r.seconds), r.ok ? "yes" : "NO");
  stable.print(std::cerr);
  std::cerr << "\ntorn sweep: " << torn.offsets << " tears, "
            << torn.recovered << " recovered / " << torn.rejected
            << " rejected" << (torn.ok ? " (ok)" : " (WRONG RECOVERY)")
            << "\n";

  // --- machine-readable JSON (stdout) --------------------------------------
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"bench_durability\",\n";
  out << "  \"gate\": {\"metric\": \"headline.records_per_sec\", "
         "\"better\": \"higher\"},\n";
  out << "  \"headline\": ";
  json_append(out, mem_row, /*gated=*/true);
  out << ",\n";
  out << "  \"disk\": ";
  json_append(out, disk_row, /*gated=*/false);
  out << ",\n";
  out << "  \"checkpoints\": {\"n\": " << ckpt.n << ", \"t\": " << ckpt.t
      << ", \"rounds\": " << ckpt.rounds
      << ", \"full_bytes\": " << ckpt.full_bytes_total
      << ", \"delta_bytes\": " << ckpt.delta_bytes_total
      << ", \"full_seconds\": " << fmt(ckpt.full_seconds)
      << ", \"delta_seconds\": " << fmt(ckpt.delta_seconds)
      << ", \"bytes_ratio\": " << fmt(ckpt.bytes_ratio)
      << ", \"ok\": " << (ckpt.ok ? "true" : "false") << "},\n";
  out << "  \"crash_storms\": [\n";
  for (std::size_t i = 0; i < storms.size(); ++i) {
    json_storm(out, storms[i], "    ");
    out << (i + 1 < storms.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"torn_sweep\": {\"offsets\": " << torn.offsets
      << ", \"recovered\": " << torn.recovered
      << ", \"rejected\": " << torn.rejected
      << ", \"seconds\": " << fmt(torn.seconds)
      << ", \"ok\": " << (torn.ok ? "true" : "false") << "}\n";
  out << "}\n";
  std::cout << out.str();

  // --- self-gates ----------------------------------------------------------
  bool failed = false;
  if (!mem_row.ok) {
    std::cerr << "FAIL: journal_append_mem did not recover every record\n";
    failed = true;
  }
  if (!disk_row.ok) {
    std::cerr << "FAIL: journal_append_disk did not recover every record\n";
    failed = true;
  }
  if (!ckpt.ok) {
    std::cerr << "FAIL: delta checkpoints are not smaller than full ones\n";
    failed = true;
  }
  if (storms.empty()) {
    std::cerr << "FAIL: no crash_storms rows\n";
    failed = true;
  }
  for (const StormRow& r : storms)
    if (!r.ok) {
      std::cerr << "FAIL: " << r.label
                << ": records_equal=" << r.records_equal
                << " traces_ok=" << r.traces_ok << " crashes=" << r.crashes
                << "\n";
      failed = true;
    }
  if (!torn.ok) {
    std::cerr << "FAIL: torn sweep saw a wrong recovery ("
              << torn.recovered << " recovered + " << torn.rejected
              << " rejected != " << torn.offsets << " offsets)\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
