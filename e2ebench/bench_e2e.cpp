// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload NAME [--seed S] [--seed-offset D] [--seconds T]
//             [--trace 0|1] [--trace-out FILE] [--smoke]
//
// --trace 0, the timed phase: a closed loop of 1024-instance batches, each
// built from (seed, batch index) and pushed through run_workload with 2
// workers, for T seconds (and at least kPrefixBatches batches). No message
// delay is injected, so latency is processor time. Prints the end-to-end
// metrics.
//
// --trace 1, the traced phase: paired 2-worker / 1-worker batches for part
// of T, then the traced driver (traced_driver.hpp) over a fixed instance
// set, alternating untraced and traced passes, until T has elapsed. Prints
// the per-layer metrics; --trace-out writes the last pass's spans as
// Chrome trace-event JSON.
//
// Every instance is checked (check_eba(...).ok_strict()); the durable
// workload also reruns every 8th batch without its store and compares
// records, and the traced driver is compared record-for-record with
// run_workload. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when the run is correct, 1 when it is not, 2 on a
// usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "action/authenticated.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "audit/trace_file.hpp"
#include "calibrate.hpp"
#include "core/spec.hpp"
#include "exchange/authenticated.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "failure/generators.hpp"
#include "net/workload.hpp"
#include "spans.hpp"
#include "stats/rng.hpp"
#include "store/vfs.hpp"
#include "traced_driver.hpp"

// -- Allocation counting ------------------------------------------------------
// Replacement global allocation functions: malloc/free, as the default
// ones, plus a per-thread count that the span recorder attributes to layers.

void* operator new(std::size_t size) {
  ++e2e::tls_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++e2e::tls_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC 12 reports free() here as mismatched with the operator new it sees
// inlined at call sites (-Wmismatched-new-delete); both sides are
// malloc/free, so the warning is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// -- Workloads ----------------------------------------------------------------

enum class Protocol { p_opt, p_min, p_auth };

struct Workload {
  std::string_view name;
  Protocol protocol;
  int n;
  int t;
  std::uint64_t default_seed;
  bool durable;                  ///< MemVfs store, traces, one power cut each
  std::size_t traced_instances;  ///< size of the traced phase's instance set
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"popt_n8", Protocol::p_opt, 8, 2, 1, false, 2048},
    {"popt_n32", Protocol::p_opt, 32, 8, 2, false, 512},
    {"pmin_n64", Protocol::p_min, 64, 8, 3, false, 1024},
    {"pauth_n16", Protocol::p_auth, 16, 4, 4, false, 2048},
    {"popt_n8_durable", Protocol::p_opt, 8, 2, 5, true, 2048},
};

constexpr std::size_t kBatch = 1024;         ///< instances per timed batch
constexpr int kWorkers = 2;                  ///< run_workload workers
constexpr double kDropDensity = 0.3;         ///< SO(t) drop probability
constexpr std::uint64_t kPrefixBatches = 8;  ///< decision_round_mean scope
constexpr std::uint64_t kRerunEvery = 8;     ///< durable store-free reruns
constexpr std::uint64_t kTracedStream = ~std::uint64_t{0};
constexpr std::uint32_t kJournalPage = 512;
constexpr std::uint64_t kAuthKey = 0x5eed0fa17e57ab1eull;

[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t salt = 0) {
  return splitmix64(seed ^ splitmix64(stream ^ splitmix64(salt)));
}

/// `count` instances with exactly t faulty agents each (SO(t), drops over
/// the first t+2 rounds at kDropDensity) and random preferences; a pure
/// function of (seed, stream).
std::vector<eba::InstanceSpec> make_specs(const Workload& w,
                                          std::uint64_t seed,
                                          std::uint64_t stream,
                                          std::size_t count) {
  eba::Rng rng(stream_seed(seed, stream));
  std::vector<eba::InstanceSpec> specs;
  specs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    eba::FailurePattern alpha =
        eba::sample_adversary(w.n, w.t, w.t + 2, kDropDensity, rng);
    specs.push_back({std::move(alpha), eba::sample_preferences(w.n, rng)});
  }
  return specs;
}

/// One mid-round power cut per instance, in round 1 or 2. Every instance
/// stages round 1, and one with any preference 1 also stages round 2 (its
/// 1-preferring agents cannot decide at time 0), so each cut fires.
eba::CrashSchedule make_crashes(const std::vector<eba::InstanceSpec>& specs,
                                std::uint64_t seed, std::uint64_t stream) {
  eba::Rng rng(stream_seed(seed, stream, 0xc4a5));
  eba::CrashSchedule s;
  s.mid_rounds.reserve(specs.size());
  for (const eba::InstanceSpec& spec : specs) {
    const bool all_zero =
        std::all_of(spec.inits.begin(), spec.inits.end(),
                    [](eba::Value v) { return v == eba::Value::zero; });
    const int round = 1 + rng.below(2);
    s.mid_rounds.push_back({all_zero ? 1 : round});
  }
  return s;
}

/// run_workload options for one batch, owning the durable store they point
/// at (a fresh MemVfs per batch).
class BatchOptions {
 public:
  BatchOptions(int workers, const std::vector<eba::InstanceSpec>& specs,
               std::uint64_t seed, std::uint64_t stream, bool durable) {
    opt.workers = workers;
    if (!durable) return;
    store.vfs = &vfs;
    store.root = "wl";
    store.journal.page_size = kJournalPage;
    crashes = make_crashes(specs, seed, stream);
    opt.snapshot_every = 1;
    opt.crashes = &crashes;
    opt.record_traces = true;
    opt.store = &store;
  }
  BatchOptions(const BatchOptions&) = delete;
  BatchOptions& operator=(const BatchOptions&) = delete;

  eba::MemVfs vfs;
  eba::DurableStoreOptions store;
  eba::CrashSchedule crashes;
  eba::WorkloadOptions opt;
};

// -- Statistics and reporting -------------------------------------------------

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of an unsorted sample (q in (0, 1]).
[[nodiscard]] double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

[[nodiscard]] double per(double num, double den) {
  return den > 0 ? num / den : 0;
}

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed self-checks, deduplicated
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      problem(name + " is not finite");
      value = 0;
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    if (std::find(problems.begin(), problems.end(), what) == problems.end())
      problems.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const {
    return attempted > 0 && failed == 0 && problems.empty();
  }

  void print() const {
    for (const std::string& p : problems)
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    for (std::size_t k = 0; k < metrics.size(); ++k)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k ? ", " : "", metrics[k].name.c_str(), metrics[k].value,
                  metrics[k].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// Outcome of checking one batch's records.
struct BatchCheck {
  std::size_t decided = 0;  ///< instances passing ok_strict
  double round_sum = 0;     ///< Σ rounds by which all nonfaulty decided
};

/// Checks every instance against the strict EBA spec; failures are counted
/// into the report.
template <eba::ExchangeProtocol X>
BatchCheck check_batch(const eba::WorkloadResult<X>& res, Report& rep) {
  BatchCheck c;
  rep.attempted += res.instances.size();
  for (const auto& inst : res.instances) {
    const eba::RunRecord& r = inst.record;
    if (!eba::check_eba(r).ok_strict()) {
      rep.failed += 1;
      continue;
    }
    c.decided += 1;
    int last = 0;
    for (eba::AgentId i : r.nonfaulty)
      last = std::max(last, r.decision(i)->round);
    c.round_sum += last;
  }
  return c;
}

/// Records that differ between two runs of the same specs.
template <eba::ExchangeProtocol X>
std::size_t record_mismatches(const eba::WorkloadResult<X>& a,
                              const eba::WorkloadResult<X>& b) {
  if (a.instances.size() != b.instances.size()) return a.instances.size();
  std::size_t bad = 0;
  for (std::size_t k = 0; k < a.instances.size(); ++k)
    bad += a.instances[k].record == b.instances[k].record ? 0 : 1;
  return bad;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -- Timed phase (--trace 0) --------------------------------------------------

template <class X, class P>
void timed_phase(const Args& a, const X& x, const P& p, Report& rep) {
  const Workload& w = *a.workload;
  const std::uint64_t min_batches = a.smoke ? 1 : kPrefixBatches;
  Calibrator calib(kWorkers);
  std::vector<double> thr, p50, p99, setup, calibs, raw_thr;
  double round_sum = 0;
  std::size_t round_instances = 0;

  const Clock::time_point start = Clock::now();
  std::uint64_t b = 0;
  for (; b < min_batches || (!a.smoke && seconds_since(start) < a.seconds);
       ++b) {
    const Clock::time_point inputs_start = Clock::now();
    const auto specs = make_specs(w, a.seed, b, kBatch);
    const std::span<const eba::InstanceSpec> view(specs);
    BatchOptions bo(kWorkers, specs, a.seed, b, w.durable);
    const double inputs_s = seconds_since(inputs_start);
    const double calib_ms = calib.run_ms();
    const Clock::time_point t0 = Clock::now();
    const auto res = eba::run_workload(x, p, view, w.t, bo.opt);
    const double call_s = seconds_since(t0);

    const BatchCheck c = check_batch(res, rep);
    if (b < kPrefixBatches) {
      round_sum += c.round_sum;
      round_instances += c.decided;
    }
    if (w.durable) {
      if (res.crashes_injected < specs.size() ||
          res.traces.size() != specs.size())
        rep.problem("a durable batch missed a power cut or a trace");
      if (b % kRerunEvery == 0) {
        BatchOptions plain(kWorkers, specs, a.seed, b, false);
        const auto ref = eba::run_workload(x, p, view, w.t, plain.opt);
        rep.attempted += specs.size();
        rep.failed += record_mismatches(res, ref);
        for (const eba::Bytes& trace : res.traces)
          if (!eba::replay_verify(trace).ok)
            rep.problem("a durable trace failed replay_verify");
      }
    }
    if (b == 0 && !a.smoke) continue;  // warm-up: caches and heap settle

    // Call start -> instance decided: run_workload's pre-admission time
    // (stepper construction, slot acquire, time-0 checkpoints, run logs —
    // and its teardown) plus the instance's admission-to-decision latency.
    const double pre_s = call_s - res.wall_seconds;
    std::vector<double> latency_ms;
    latency_ms.reserve(res.latency_us.size());
    for (double us : res.latency_us)
      latency_ms.push_back(pre_s * 1e3 + us * 1e-3);

    const double scale = kCalibRefMs / calib_ms;
    raw_thr.push_back(static_cast<double>(c.decided) / call_s);
    thr.push_back(raw_thr.back() / scale);
    p50.push_back(percentile(latency_ms, 0.50) * scale);
    p99.push_back(percentile(latency_ms, 0.99) * scale);
    // Set-up: making the batch's inputs plus the pre-admission time, so
    // work moved out of the rounds into pattern construction or admission
    // shows here.
    setup.push_back((inputs_s + pre_s) * scale);
    calibs.push_back(calib_ms);
  }

  rep.metric("decided_per_s", median(thr), "1/s");
  rep.metric("latency_p50_ms", median(p50), "ms");
  rep.metric("latency_p99_ms", median(p99), "ms");
  rep.metric("decision_round_mean",
             per(round_sum, static_cast<double>(round_instances)), "rounds");
  rep.metric("setup_s", median(setup), "s");
  std::fprintf(stderr,
               "%s seed %llu: %llu batches x %zu instances in %.2f s; %zu "
               "latency samples per batch; raw decided/s %.1f; calib median "
               "%.3f ms (checksum %llx)\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed),
               static_cast<unsigned long long>(b), kBatch,
               seconds_since(start), kBatch, median(raw_thr), median(calibs),
               static_cast<unsigned long long>(calib.checksum()));
}

// -- Traced phase (--trace 1) -------------------------------------------------

/// Bytes a MemVfs holds under `prefix` (the durable footprint).
[[nodiscard]] std::uint64_t footprint(const eba::MemVfs& vfs,
                                      const std::string& prefix) {
  std::uint64_t bytes = 0;
  for (const std::string& path : vfs.list(prefix))
    bytes += vfs.read(path).size();
  return bytes;
}

template <class X, class P>
void traced_phase(const Args& a, const X& x, const P& p, Report& rep) {
  const Workload& w = *a.workload;
  const Clock::time_point start = Clock::now();

  // Paired batches: the same specs at 2 workers and at 1, order alternating.
  Calibrator calib(kWorkers);
  std::vector<double> w2_over_w1, raw_thr, setup_share, calibs;
  const double pair_budget = 0.45 * a.seconds;
  const std::uint64_t min_pairs = a.smoke ? 1 : 2;
  for (std::uint64_t b = 0;
       b < min_pairs || (!a.smoke && seconds_since(start) < pair_budget);
       ++b) {
    const auto specs = make_specs(w, a.seed, b, kBatch);
    calibs.push_back(calib.run_ms());
    double call_s[2] = {0, 0};  // [0]: 2 workers, [1]: 1 worker
    for (int k = 0; k < 2; ++k) {
      const int which = b % 2 == 0 ? k : 1 - k;
      BatchOptions bo(which == 0 ? kWorkers : 1, specs, a.seed, b,
                      w.durable);
      const Clock::time_point t0 = Clock::now();
      const auto res = eba::run_workload(
          x, p, std::span<const eba::InstanceSpec>(specs), w.t, bo.opt);
      call_s[which] = seconds_since(t0);
      const BatchCheck c = check_batch(res, rep);
      if (which == 0) {
        raw_thr.push_back(static_cast<double>(c.decided) / call_s[0]);
        setup_share.push_back((call_s[0] - res.wall_seconds) / call_s[0]);
      }
    }
    w2_over_w1.push_back(call_s[1] / call_s[0]);
  }

  // The traced driver over a fixed instance set, pinned to run_workload.
  const auto specs = make_specs(w, a.seed, kTracedStream, w.traced_instances);
  const std::span<const eba::InstanceSpec> view(specs);
  BatchOptions ref_opt(kWorkers, specs, a.seed, kTracedStream, w.durable);
  const auto reference = eba::run_workload(x, p, view, w.t, ref_opt.opt);
  check_batch(reference, rep);
  std::uint64_t library_allocs = 0;  // run_workload inline on this thread
  {
    BatchOptions bo(1, specs, a.seed, kTracedStream, w.durable);
    const std::uint64_t before = tls_allocs;
    (void)eba::run_workload(x, p, view, w.t, bo.opt);
    library_allocs = tls_allocs - before;
  }

  Recorder traced(true);
  Recorder untraced(false);
  LayerTotals totals;
  std::vector<double> wall_traced, wall_untraced;
  std::vector<std::int64_t> round_allocs;
  DriverCounts counts;
  std::size_t crashes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t driver_allocs = 0;
  for (std::uint64_t pass = 0;
       pass < 1 || (!a.smoke && seconds_since(start) < a.seconds); ++pass) {
    for (int k = 0; k < 2; ++k) {
      const bool on = (pass % 2 == 0) == (k == 1);
      Recorder& rec = on ? traced : untraced;
      rec.clear();
      BatchOptions bo(1, specs, a.seed, kTracedStream, w.durable);
      const std::uint64_t allocs_before = tls_allocs;
      const Clock::time_point t0 = Clock::now();
      const TracedRun<X> run = run_traced(x, p, view, w.t, bo.opt, rec);
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = tls_allocs - allocs_before;

      if (record_mismatches(run.result, reference) > 0 ||
          run.result.traces != reference.traces ||
          run.result.crashes_injected != reference.crashes_injected)
        rep.problem("the traced driver's records, traces or crashes differ "
                    "from run_workload's");
      if (!on) {
        wall_untraced.push_back(wall);
        driver_allocs = allocs;
        continue;
      }
      const LayerTotals pass_totals = aggregate(rec.spans());
      if (pass_totals.self_ns_sum() != pass_totals.round_ns)
        rep.problem("span self times do not sum to the round time");
      totals.add(pass_totals);
      round_allocs.push_back(pass_totals.round_allocs);
      wall_traced.push_back(wall);
      counts = run.counts;
      crashes = run.result.crashes_injected;
      fsyncs = bo.vfs.sync_count();
      store_bytes = footprint(bo.vfs, "wl/");
    }
  }
  if (!a.trace_out.empty() &&
      !write_chrome_trace(traced.spans(), a.trace_out))
    rep.problem("could not write " + a.trace_out);

  const auto passes = static_cast<double>(wall_traced.size());
  const double rounds = passes * static_cast<double>(counts.rounds);
  const double instances = static_cast<double>(specs.size());
  const auto self_us = [&](Layer l) {
    return static_cast<double>(totals.self_ns[static_cast<std::size_t>(l)]) /
           1e3;
  };
  const auto us_per_round = [&](const char* name, Layer l) {
    rep.metric(name, per(self_us(l), rounds), "us");
  };
  const auto allocs_per_round = [&](const char* name,
                                    std::initializer_list<Layer> layers) {
    double sum = 0;
    for (Layer l : layers)
      sum += static_cast<double>(
          totals.self_allocs[static_cast<std::size_t>(l)]);
    rep.metric(name, per(sum, rounds), "count");
  };
  const auto per_instance = [&](const char* name, double total,
                                const char* unit) {
    rep.metric(name, per(total, instances), unit);
  };

  us_per_round("action.infer_us_per_round", Layer::action_infer);
  us_per_round("action.decide_us_per_round", Layer::action_decide);
  allocs_per_round("action.allocs_per_round",
                   {Layer::action_infer, Layer::action_decide});
  us_per_round("exchange.mu_us_per_round", Layer::exchange_mu);
  us_per_round("exchange.delta_us_per_round", Layer::exchange_delta);
  allocs_per_round("exchange.allocs_per_round",
                   {Layer::exchange_mu, Layer::exchange_delta});
  us_per_round("serialize.encode_us_per_round", Layer::serialize_encode);
  us_per_round("serialize.decode_us_per_round", Layer::serialize_decode);
  allocs_per_round("serialize.allocs_per_round",
                   {Layer::serialize_encode, Layer::serialize_decode});
  per_instance("serialize.bytes_per_instance",
               static_cast<double>(counts.encoded_bytes), "bytes");
  us_per_round("bus.exchange_us_per_round", Layer::bus_exchange);
  allocs_per_round("bus.allocs_per_round", {Layer::bus_exchange});
  per_instance("bus.deliveries_per_instance",
               static_cast<double>(counts.deliveries), "count");
  us_per_round("driver.glue_us_per_round", Layer::round);
  allocs_per_round("driver.glue_allocs_per_round", {Layer::round});
  rep.metric("driver.setup_share", median(setup_share), "ratio");
  rep.metric("pool.w2_over_w1", median(w2_over_w1), "ratio");
  us_per_round("store.intent_us_per_round", Layer::store_intent);
  us_per_round("store.delta_us_per_round", Layer::store_delta);
  us_per_round("store.checkpoint_us_per_round", Layer::store_checkpoint);
  rep.metric("store.recover_us_per_crash",
             per(self_us(Layer::store_recover),
                 passes * static_cast<double>(crashes)),
             "us");
  per_instance("store.fsyncs_per_instance", static_cast<double>(fsyncs),
               "count");
  per_instance("store.bytes_per_instance", static_cast<double>(store_bytes),
               "bytes");
  allocs_per_round("store.allocs_per_round",
                   {Layer::store_intent, Layer::store_delta,
                    Layer::store_checkpoint, Layer::store_recover});
  us_per_round("checkpoint.encode_us_per_round", Layer::checkpoint_encode);
  us_per_round("audit.trace_append_us_per_round", Layer::audit_trace_append);
  rep.metric("audit.certificate_us_per_instance",
             per(self_us(Layer::audit_certificate), passes * instances),
             "us");
  rep.metric("round.us", per(static_cast<double>(totals.round_ns) / 1e3,
                             rounds),
             "us");
  rep.metric("round.allocs",
             per(static_cast<double>(totals.round_allocs), rounds), "count");
  per_instance("sim.rounds_per_instance", static_cast<double>(counts.rounds),
               "rounds");
  rep.metric("trace.overhead_frac",
             median(wall_traced) / median(wall_untraced) - 1.0, "ratio");
  rep.metric("host.calib_ms", median(calibs), "ms");
  rep.metric("host.decided_per_s_raw", median(raw_thr), "1/s");
  rep.metric("host.peak_rss_mb", peak_rss_mb(), "MiB");

  const bool repeatable =
      std::all_of(round_allocs.begin(), round_allocs.end(),
                  [&](std::int64_t v) { return v == round_allocs.front(); });
  std::fprintf(stderr,
               "%s seed %llu: %zu paired batches, %zu traced + %zu untraced "
               "passes over %zu instances (%llu rounds each pass); "
               "allocations per pass: run_workload %llu, traced driver %llu; "
               "round allocations %s across passes\n",
               std::string(w.name).c_str(),
               static_cast<unsigned long long>(a.seed), w2_over_w1.size(),
               wall_traced.size(), wall_untraced.size(), specs.size(),
               static_cast<unsigned long long>(counts.rounds),
               static_cast<unsigned long long>(library_allocs),
               static_cast<unsigned long long>(driver_allocs),
               repeatable ? "repeat exactly" : "DIFFER");
}

// -- Command line -------------------------------------------------------------

template <class Fn>
void with_protocol(const Workload& w, Fn&& fn) {
  switch (w.protocol) {
    case Protocol::p_opt:
      fn(eba::FipExchange(w.n), eba::POpt(w.n, w.t));
      return;
    case Protocol::p_min:
      fn(eba::MinExchange(w.n), eba::PMin(w.n, w.t));
      return;
    case Protocol::p_auth:
      fn(eba::AuthExchange(w.n, w.t, kAuthKey), eba::PAuth(w.n, w.t));
      return;
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed S] "
               "[--seed-offset D] [--seconds T] [--trace 0|1] "
               "[--trace-out FILE] [--smoke]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  std::uint64_t offset = 0;
  for (int k = 1; k < argc; ++k) {
    const std::string_view flag = argv[k];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (k + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == value) a.workload = &w;
      if (!a.workload) usage("unknown workload");
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (end == value || *end || !(a.seconds >= 0)) usage("bad --seconds");
    } else {
      const unsigned long long number = std::strtoull(value, &end, 10);
      if (end == value || *end || value[0] == '-') usage("bad number");
      if (flag == "--seed") {
        a.seed = number;
        have_seed = true;
      } else if (flag == "--seed-offset") {
        offset = number;
      } else if (flag == "--trace" && number <= 1) {
        a.trace = number == 1;
      } else {
        usage("unknown flag or bad --trace");
      }
    }
  }
  if (!a.workload) usage("--workload is required");
  if (!have_seed) a.seed = a.workload->default_seed;
  a.seed += offset;
  return a;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Args a = parse(argc, argv);
  Report rep;
  try {
    with_protocol(*a.workload, [&](const auto& x, const auto& p) {
      if (a.trace)
        traced_phase(a, x, p, rep);
      else
        timed_phase(a, x, p, rep);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
