// Many-instance workload driver: thousands of concurrent agreement
// instances multiplexed over a fixed worker pool and a BusPool.
//
// Each instance is one `Stepper` (sim/stepper.hpp) plus one bus slot: the
// stepper holds the n agent states and the run record, the slot carries the
// instance's byte payloads through the adversary. Scheduling is
// round-sliced — a worker pops an instance, advances it by exactly one
// round (serialize µ → slot.exchange_round → deserialize → δ), and requeues
// it — so every admitted instance is concurrently in flight from admission
// to completion, none owns a thread, and the worker count bounds CPU use,
// not the instance count. This is the one execution model for cluster
// runs; `run_cluster` (net/cluster.hpp) is the single-instance wrapper.
//
// Two entry points share the scheduler and the wire path:
//
//  * `run_workload` — static adversaries: each instance's FailurePattern is
//    fixed up front (InstanceSpec).
//  * `run_adaptive_workload` — adaptive adversaries (sim/adaptive.hpp):
//    each instance owns a strategy object whose hook adds drops online in
//    begin_round(); the worker then mirrors the stepper's updated pattern
//    into the bus slot before the round's payloads move, so the byte-level
//    filter sees the same drops the in-memory engines do.
//
// Per-instance results are RunRecord-identical to `simulate()` (static) or
// `simulate_adaptive()` (adaptive, same-seeded strategy) on the same
// inputs — enforced by tests/test_workload.cpp.
//
// The driver is also the crash-recovery harness (tests/test_recovery.cpp,
// bench_durability): with a durable store (DurableStoreOptions) each
// instance journals a RunLog (store/run_log.hpp) — full checkpoints at the
// snapshot cadence, one delta per round, one write-ahead intent per staged
// round — and a `CrashSchedule` kills the instance's "process" at seeded
// rounds, at a boundary or mid-round. Every crash recovers the same way: a
// power cut drops whatever the log did not fsync, the slot is released,
// and `recover_run` rebuilds the stepper (and rolls an adaptive strategy
// back) from the journal; by engine determinism the crashed-and-recovered
// run finishes with the exact record an uninterrupted run produces.
// `record_traces` streams one EBTR trace (audit/trace_file.hpp) per
// instance, re-opened from the recovered record after every crash.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/certificate.hpp"
#include "audit/trace_file.hpp"
#include "core/types.hpp"
#include "exchange/exchange.hpp"
#include "net/bus.hpp"
#include "net/checkpoint.hpp"
#include "net/pool.hpp"
#include "net/serialize.hpp"
#include "sim/adaptive.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"

namespace eba {

/// Result of one instance: the protocol-agnostic record plus every agent's
/// final typed state. (Also what `run_cluster` returns.)
template <ExchangeProtocol X>
struct ClusterResult {
  RunRecord record;
  std::vector<typename X::State> final_states;
};

/// One agreement instance: its adversary and initial preferences.
struct InstanceSpec {
  FailurePattern alpha;
  std::vector<Value> inits;
};

/// One adaptive instance: the strategy that will choose drops online, plus
/// the initial preferences. Strategies are stateful (RNG draws, chain
/// progress), so each instance owns a fresh one.
struct AdaptiveInstanceSpec {
  std::unique_ptr<AdversaryStrategy> strategy;
  std::vector<Value> inits;
};

/// When instance k's "process" dies: after completing round `rounds[k][j]`,
/// before starting the next one. Each scheduled crash fires exactly once —
/// a recovered instance never re-dies at a round it already crashed in, so
/// every schedule terminates. Rounds must be strictly increasing and >= 1.
///
/// `mid_rounds[k]` schedules crashes *inside* a round instead: the process
/// dies while round r is staged — its write-ahead intent is durable, no
/// message has moved — and recovery completes the round from its intent.
/// Any crash requires a durable store (WorkloadOptions::store): every crash
/// is a power cut followed by run-log recovery.
struct CrashSchedule {
  std::vector<std::vector<int>> rounds;
  std::vector<std::vector<int>> mid_rounds;

  /// A seeded crash storm: each instance crashes `crashes_per_instance`
  /// times at uniform rounds in [1, horizon].
  [[nodiscard]] static CrashSchedule seeded(std::size_t instances, int horizon,
                                            std::uint64_t seed,
                                            int crashes_per_instance = 1) {
    EBA_REQUIRE(horizon >= 1, "crash storm needs a positive horizon");
    EBA_REQUIRE(crashes_per_instance >= 0, "negative crash count");
    CrashSchedule out;
    out.rounds.resize(instances);
    Rng rng(seed);
    for (auto& mine : out.rounds) {
      for (int c = 0; c < crashes_per_instance; ++c)
        mine.push_back(1 + rng.below(horizon));
      std::sort(mine.begin(), mine.end());
      mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    }
    return out;
  }

  /// A seeded mid-round crash storm: like seeded(), but every crash fires
  /// inside the chosen round (see mid_rounds above).
  [[nodiscard]] static CrashSchedule seeded_mid_round(
      std::size_t instances, int horizon, std::uint64_t seed,
      int crashes_per_instance = 1) {
    CrashSchedule out = seeded(instances, horizon, seed, crashes_per_instance);
    out.mid_rounds = std::move(out.rounds);
    out.rounds.clear();
    out.rounds.resize(instances);
    return out;
  }
};

/// Attaches the durable storage engine (src/store/) to a workload: each
/// instance writes a RunLog journal under `root` + "/inst-<k>" — full
/// checkpoints at the snapshot cadence, one delta per completed round, one
/// write-ahead intent per staged round. The store is the only crash-recovery
/// source: every scheduled crash is a power cut plus journal replay. A
/// store requires a snapshot cadence, and a cadence requires a store.
struct DurableStoreOptions {
  Vfs* vfs = nullptr;       ///< borrowed; MemVfs injects the power cuts
  std::string root;         ///< directory holding the per-instance logs
  JournalOptions journal;   ///< key / page size / segment roll threshold
  int keep_checkpoints = 1; ///< GC retention: newest full checkpoints kept
};

struct WorkloadOptions {
  int workers = 0;     ///< worker threads; 0 = hardware concurrency
  int max_rounds = 0;  ///< per-instance horizon; 0 = t+4
  /// Full-checkpoint cadence in rounds (0 = never). With a cadence, every
  /// instance logs a checkpoint at time 0 and after each
  /// `snapshot_every`-th completed round; recovery restores the newest one
  /// and replays the logged deltas after it. Requires a store.
  int snapshot_every = 0;
  /// Crash-injection schedule (borrowed; may be null). Scheduling any crash
  /// requires a store.
  const CrashSchedule* crashes = nullptr;
  /// Stream one durable EBTR trace per instance (WorkloadResult::traces).
  bool record_traces = false;
  /// Durable storage engine (borrowed; may be null). Set together with a
  /// snapshot cadence; mandatory for any crash schedule.
  const DurableStoreOptions* store = nullptr;
};

template <ExchangeProtocol X>
struct WorkloadResult {
  /// instances[k] corresponds to specs[k], regardless of completion order.
  std::vector<ClusterResult<X>> instances;
  /// Admission-to-completion latency per instance, in microseconds. All
  /// instances are admitted (occupy a bus slot) when the workload starts,
  /// so queueing delay under load is part of the latency.
  std::vector<double> latency_us;
  double wall_seconds = 0;
  int workers = 0;
  /// Instances concurrently in flight (= slots held) throughout the run.
  std::size_t concurrent_instances = 0;
  /// traces[k]: instance k's finished trace container (instance_id = k),
  /// present iff WorkloadOptions::record_traces.
  std::vector<Bytes> traces;
  std::size_t snapshots_taken = 0;
  std::size_t crashes_injected = 0;
};

namespace detail {

/// How one wire-round attempt ended: the instance completed (or was already
/// done), the round ran but the instance continues, or the caller's staging
/// hook aborted the round before any message moved (the stepper is then
/// still mid-round and must be discarded — crash injection does exactly
/// that).
enum class RoundOutcome { completed, in_progress, aborted };

/// One worker's wire-round buffers, reused by every round it advances and
/// owned by drive_workload for one workload call: `spare` holds the payload
/// buffers the bus handed back after the worker's previous round, and the
/// message vectors are the decode side (per sender, or n×n per edge).
/// `pooled[from]` is the decode target of sender `from`'s broadcast,
/// kept across rounds: by_sender drops its references before the next
/// decode, so from_bytes rebuilds a graph message in the same storage.
/// Cache-line aligned: workers' scratches sit side by side in one vector.
template <ExchangeProtocol X>
struct alignas(64) WireScratch {
  using Message = typename X::Message;
  std::vector<Bytes> spare;
  std::vector<Message> pooled;
  std::vector<std::optional<Message>> by_sender;
  std::vector<std::vector<std::optional<Message>>> inbox;

  /// The payload of `m`, encoded into a spare buffer when one is left.
  [[nodiscard]] Bytes encode(const Message& m) {
    if (spare.empty()) return to_bytes(m);
    Bytes buf = std::move(spare.back());
    spare.pop_back();
    return to_bytes(m, std::move(buf));
  }

  /// Keeps a decoded round's payload buffers for the next round.
  void recycle(BusPool::RoundResult& res) {
    for (std::optional<Bytes>& payload : res.take_payloads())
      if (payload) spare.push_back(std::move(*payload));
  }
};

/// Moves one staged round of `stepper` through its bus slot: serialize µ
/// into `scratch`'s buffers, exchange through the slot's adversary filter,
/// decode each sender's payload once, δ. With `sync_pattern` the slot's
/// pattern is refreshed from the stepper after begin_round() — the adaptive
/// hook may have just added drops for exactly this round.
/// `on_staged(actions)` runs at the staging point — after the actions and
/// the round's pattern are fixed, before any payload moves — which is where
/// the durable intent record is cut and where a mid-round power cut
/// strikes; returning false aborts the round.
template <ExchangeProtocol X, class P, class OnStaged>
RoundOutcome advance_wire_round_staged(const X& x, Stepper<X, P>& stepper,
                                       BusPool& pool, BusPool::SlotId slot,
                                       bool sync_pattern,
                                       WireScratch<X>& scratch,
                                       OnStaged&& on_staged) {
  using Message = typename X::Message;
  const std::vector<Action>* actions = stepper.begin_round();
  if (!actions) return RoundOutcome::completed;
  if (sync_pattern) pool.update_pattern(slot, stepper.pattern());
  if (!on_staged(*actions)) return RoundOutcome::aborted;

  const auto un = static_cast<std::size_t>(x.n());
  const std::span<const typename X::State> states(stepper.states());
  if constexpr (BroadcastExchange<X>) {
    std::vector<std::optional<Bytes>> outbox(un);
    const StagedMessages cost =
        stage_broadcast(x, states, *actions, [&](AgentId i, Message&& m) {
          outbox[static_cast<std::size_t>(i)] = scratch.encode(m);
        });
    BusPool::RoundResult res = pool.exchange_round(slot, std::move(outbox));
    // The bus stores each broadcast payload once, so each is decoded once,
    // into the sender's pooled target, and the stepper fans the decoded
    // value out to the receivers in res.received() — exactly as the
    // in-memory engine shares µ's result.
    std::vector<std::optional<Message>>& by_sender = scratch.by_sender;
    by_sender.assign(un, std::nullopt);
    scratch.pooled.resize(un);
    for (std::size_t from = 0; from < un; ++from)
      if (const auto& payload = res.payloads()[from])
        by_sender[from] = from_bytes(*payload, scratch.pooled[from]);
    scratch.recycle(res);
    stepper.finish_round(by_sender, res.received(), std::move(res.sent),
                         std::move(res.delivered), cost.bits, cost.messages);
  } else {
    // Per-destination staging: each (sender, receiver) edge ships its own
    // payload; the bus applies step()'s semantics (self-addressed payloads
    // are free and always delivered).
    std::vector<std::vector<std::optional<Bytes>>> outbox(
        un, std::vector<std::optional<Bytes>>(un));
    const StagedMessages cost = stage_per_destination(
        x, states, *actions, [&](AgentId i, AgentId j, Message&& m) {
          outbox[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              scratch.encode(m);
        });
    BusPool::RoundResult res = pool.exchange_round(slot, std::move(outbox));
    // Per-destination payloads are distinct by construction and decode
    // once per delivered edge.
    std::vector<std::vector<std::optional<Message>>>& inbox = scratch.inbox;
    inbox.resize(un);
    for (std::size_t to = 0; to < un; ++to) {
      inbox[to].assign(un, std::nullopt);
      for (std::size_t from = 0; from < un; ++from)
        if (const auto& payload = res.inbox[to][from])
          inbox[to][from] = from_bytes<Message>(*payload);
    }
    scratch.recycle(res);
    stepper.finish_round(inbox, std::move(res.sent), std::move(res.delivered),
                         cost.bits, cost.messages);
  }
  return stepper.done() ? RoundOutcome::completed : RoundOutcome::in_progress;
}

/// Round-sliced scheduler shared by both workload entry points: workers
/// claim small batches of instance indices, advance each by one round via
/// `step_one(worker, idx)` (true = instance completed, already harvested;
/// `worker` is run_workers' index, for per-worker scratch), and requeue
/// survivors. Workers claim kBatch indices per queue access: a
/// round of a small instance is microseconds, so per-round locking would
/// dominate.
template <class StepOne>
void drive_round_sliced(std::size_t count, int workers, StepOne&& step_one) {
  constexpr std::size_t kBatch = 8;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> ready;
  for (std::size_t k = 0; k < count; ++k) ready.push_back(k);
  std::size_t remaining = count;
  bool aborted = false;

  auto worker_main = [&](int worker) {
    try {
      std::vector<std::size_t> batch;
      std::vector<std::size_t> requeue;
      batch.reserve(kBatch);
      requeue.reserve(kBatch);
      for (;;) {
        batch.clear();
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return !ready.empty() || remaining == 0; });
          if (ready.empty()) return;
          while (!ready.empty() && batch.size() < kBatch) {
            batch.push_back(ready.front());
            ready.pop_front();
          }
        }
        requeue.clear();
        std::size_t completed_now = 0;
        for (std::size_t idx : batch) {
          if (step_one(worker, idx))
            completed_now += 1;
          else
            requeue.push_back(idx);
        }
        std::lock_guard lock(mu);
        // Another worker may have aborted (cleared the queue and zeroed
        // `remaining`) while this batch ran; touching the counter then
        // would underflow it and deadlock the pool.
        if (aborted) return;
        for (std::size_t idx : requeue) ready.push_back(idx);
        remaining -= completed_now;
        if (remaining == 0)
          cv.notify_all();
        else if (!requeue.empty())
          cv.notify_one();
      }
    } catch (...) {
      // Unblock peers before letting run_workers capture the exception.
      {
        std::lock_guard lock(mu);
        aborted = true;
        ready.clear();
        remaining = 0;
      }
      cv.notify_all();
      throw;
    }
  };

  run_workers(workers, worker_main);
}

/// One scheduled instance with its durability state: the live stepper and
/// slot, the instance's crash schedule position, the streaming trace writer,
/// and the run log (the crash-recovery source).
template <ExchangeProtocol X, class P>
struct ManagedInstance {
  ManagedInstance(Stepper<X, P> s, BusPool::SlotId sl,
                  AdversaryStrategy* strat = nullptr)
      : stepper(std::move(s)), slot(sl), strategy(strat) {}

  Stepper<X, P> stepper;
  BusPool::SlotId slot = 0;
  AdversaryStrategy* strategy = nullptr;  ///< adaptive instances only
  std::span<const int> crash_rounds;      ///< borrowed from the schedule
  std::size_t next_crash = 0;             ///< each entry fires once
  std::span<const int> mid_crash_rounds;  ///< mid-round entries
  std::size_t next_mid_crash = 0;
  std::optional<TraceWriter> trace;
  std::optional<RunLog> log;  ///< durable run log when a store is attached
  std::string log_dir;
};

/// Instance k's validated crash rounds (empty when none are scheduled).
inline std::span<const int> validated_crash_rounds(
    const std::vector<std::vector<int>>& all, std::size_t idx) {
  if (idx >= all.size()) return {};
  const std::vector<int>& mine = all[idx];
  for (std::size_t k = 0; k < mine.size(); ++k)
    EBA_REQUIRE(mine[k] >= 1 && (k == 0 || mine[k] > mine[k - 1]),
                "crash rounds must be strictly increasing and >= 1");
  return mine;
}

/// Shared durability setup: attaches crash schedules, opens the streaming
/// trace writers, and creates every instance's run log with its time-0
/// checkpoint.
template <ExchangeProtocol X, class P>
void prepare_durability(std::vector<ManagedInstance<X, P>>& instances,
                        const WorkloadOptions& opt,
                        WorkloadResult<X>& result) {
  EBA_REQUIRE(opt.snapshot_every >= 0, "negative snapshot cadence");
  bool any_crashes = false;
  if (opt.crashes) {
    for (std::size_t k = 0; k < instances.size(); ++k) {
      auto& inst = instances[k];
      inst.crash_rounds = validated_crash_rounds(opt.crashes->rounds, k);
      inst.mid_crash_rounds =
          validated_crash_rounds(opt.crashes->mid_rounds, k);
      any_crashes = any_crashes || !inst.crash_rounds.empty() ||
                    !inst.mid_crash_rounds.empty();
    }
  }
  EBA_REQUIRE(opt.store != nullptr || !(any_crashes || opt.snapshot_every > 0),
              "crash injection and snapshots require a durable store "
              "(WorkloadOptions::store)");
  if (opt.record_traces) {
    result.traces.resize(instances.size());
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const RunRecord& rec = instances[k].stepper.record();
      instances[k].trace.emplace(static_cast<std::uint64_t>(k), rec.n, rec.t,
                                 rec.nonfaulty, rec.inits);
    }
  }
  if (!opt.store) return;
  EBA_REQUIRE(opt.store->vfs != nullptr && !opt.store->root.empty(),
              "durable store needs a vfs and a root directory");
  EBA_REQUIRE(opt.store->keep_checkpoints >= 1,
              "durable store must retain at least one checkpoint");
  EBA_REQUIRE(opt.snapshot_every > 0,
              "a durable store requires a snapshot cadence");
  for (std::size_t k = 0; k < instances.size(); ++k) {
    auto& inst = instances[k];
    inst.log_dir = opt.store->root;
    inst.log_dir += "/inst-";
    inst.log_dir += std::to_string(k);
    inst.log.emplace(
        RunLog::create(*opt.store->vfs, inst.log_dir, opt.store->journal));
    inst.log->log_checkpoint(checkpoint_stepper(
        inst.stepper,
        inst.strategy ? inst.strategy->checkpoint_state() : std::string{}));
    result.snapshots_taken += 1;
  }
}

/// The body shared by run_workload and run_adaptive_workload once every
/// instance's stepper and slot exist: schedule, inject crashes, snapshot,
/// harvest, time. Each worker encodes and decodes through its own
/// WireScratch.
template <ExchangeProtocol X, class P>
void drive_workload(const X& x, const P& act, BusPool& pool,
                    std::vector<ManagedInstance<X, P>>& instances, int workers,
                    bool sync_pattern, const WorkloadOptions& opt,
                    WorkloadResult<X>& result) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point admitted = Clock::now();
  std::atomic<std::size_t> snapshots{0};
  std::atomic<std::size_t> crashes{0};
  std::vector<WireScratch<X>> scratch(static_cast<std::size_t>(workers));

  // A restored instance's trace stream restarts from its restored record:
  // the rounds before the crash point are re-added, the lost tail is
  // re-executed.
  auto reopen_trace = [](auto& inst, std::size_t idx) {
    if (!inst.trace) return;
    const RunRecord& rec = inst.stepper.record();
    inst.trace.emplace(static_cast<std::uint64_t>(idx), rec.n, rec.t,
                       rec.nonfaulty, rec.inits);
    inst.trace->add_record_rounds(rec);
  };

  // The one crash-recovery path. The instance's "process" dies: its slot is
  // released and the power cut erases everything its log did not fsync.
  // A fresh process then reopens the journal (torn-tail scan), restores the
  // newest full checkpoint, replays-and-verifies every logged delta round,
  // and completes a trailing write-ahead intent. recover_run throws on any
  // divergence, so a recovered instance is guaranteed byte-identical to the
  // pre-crash one up to its durable edge.
  auto restore_from_store = [&](auto& inst, std::size_t idx) {
    crashes.fetch_add(1, std::memory_order_relaxed);
    pool.release(inst.slot);
    const DurableStoreOptions& store = *opt.store;
    store.vfs->power_cut(inst.log_dir + "/");
    inst.log.emplace(RunLog::open(*store.vfs, inst.log_dir, store.journal));
    RecoveredRun<X, P> recovered = recover_run<X, P>(
        x, act, inst.log->journal().records(), inst.strategy);
    if (recovered.finished_intent)
      // Re-log the round the intent's replay completed, so a second crash
      // never finds two intents with no delta between them.
      inst.log->log_delta(delta_of_record(recovered.stepper.record(),
                                          recovered.stepper.time() - 1));
    inst.stepper = std::move(recovered.stepper);
    inst.slot = pool.acquire(inst.stepper.pattern(), inst.stepper.time());
    reopen_trace(inst, idx);
  };

  auto step_one = [&](int worker, std::size_t idx) -> bool {
    auto& inst = instances[idx];

    // Boundary crash injection: the instance dies between rounds.
    if (inst.next_crash < inst.crash_rounds.size() &&
        inst.stepper.time() >= inst.crash_rounds[inst.next_crash]) {
      inst.next_crash += 1;
      restore_from_store(inst, idx);
      return false;  // requeue: continue from the recovered round
    }

    // Staging hook: cut the round's durable intent record, and let a
    // scheduled mid-round crash strike while it is the only durable trace
    // of the round.
    const auto on_staged = [&](const std::vector<Action>& actions) -> bool {
      if (!inst.log) return true;
      const int m = inst.stepper.time();
      const FailurePattern& alpha = inst.stepper.pattern();
      const int n = inst.stepper.n();
      std::array<AgentSet, kMaxAgents> dropped_send;
      std::array<AgentSet, kMaxAgents> dropped_receive;
      for (AgentId i = 0; i < n; ++i) {
        dropped_send[static_cast<std::size_t>(i)] = alpha.dropped(m, i);
        dropped_receive[static_cast<std::size_t>(i)] =
            alpha.dropped_receive(m, i);
      }
      const auto un = static_cast<std::size_t>(n);
      inst.log->log_intent(
          IntentView{m, actions, std::span(dropped_send).first(un),
                     std::span(dropped_receive).first(un)});
      if (inst.next_mid_crash < inst.mid_crash_rounds.size() &&
          m + 1 == inst.mid_crash_rounds[inst.next_mid_crash]) {
        inst.next_mid_crash += 1;
        return false;  // die mid-round: intent durable, no message moved
      }
      return true;
    };

    const int before = inst.stepper.time();
    const RoundOutcome outcome = advance_wire_round_staged<X, P>(
        x, inst.stepper, pool, inst.slot, sync_pattern,
        scratch[static_cast<std::size_t>(worker)], on_staged);
    if (outcome == RoundOutcome::aborted) {
      restore_from_store(inst, idx);
      return false;  // requeue: recovery completed the interrupted round
    }
    const bool finished = outcome == RoundOutcome::completed;
    const bool advanced = inst.stepper.time() > before;
    if (advanced && inst.log)
      inst.log->log_delta(delta_of_record(inst.stepper.record(), before));
    if (advanced && inst.trace) {
      const RunRecord& rec = inst.stepper.record();
      inst.trace->add_round(rec.actions.back(), rec.sent.back(),
                            rec.delivered.back());
    }
    if (!finished) {
      if (inst.log && advanced &&
          inst.stepper.time() % opt.snapshot_every == 0) {
        inst.log->log_checkpoint(checkpoint_stepper(
            inst.stepper,
            inst.strategy ? inst.strategy->checkpoint_state() : std::string{}));
        inst.log->gc_keep_checkpoints(opt.store->keep_checkpoints);
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }

    result.latency_us[idx] =
        std::chrono::duration<double, std::micro>(Clock::now() - admitted)
            .count();
    RunRecord record = inst.stepper.take_record();
    if (inst.trace)
      result.traces[idx] = inst.trace->finish(
          build_certificate(record, static_cast<std::uint64_t>(idx)));
    result.instances[idx].record = std::move(record);
    result.instances[idx].final_states = inst.stepper.take_states();
    pool.release(inst.slot);
    return true;
  };
  drive_round_sliced(instances.size(), workers, step_one);

  result.snapshots_taken += snapshots.load();
  result.crashes_injected = crashes.load();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - admitted).count();
}

}  // namespace detail

template <ExchangeProtocol X, class P>
WorkloadResult<X> run_workload(const X& x, const P& act,
                               std::span<const InstanceSpec> specs, int t,
                               const WorkloadOptions& opt = {}) {
  // Broadcast exchanges stage one payload per sender per round; exchanges
  // with destination-dependent µ (E_auth) stage one per (sender, receiver)
  // edge through the bus's per-destination overload. Both paths mirror the
  // stepper's in-memory accounting exactly (tests/test_zoo.cpp pins the
  // three-engine equality for the per-destination path).
  WorkloadResult<X> result;
  result.instances.resize(specs.size());
  result.latency_us.assign(specs.size(), 0.0);
  result.concurrent_instances = specs.size();
  if (specs.empty()) return result;

  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;

  BusPool pool(specs.size());
  std::vector<detail::ManagedInstance<X, P>> instances;
  instances.reserve(specs.size());
  for (const InstanceSpec& spec : specs)
    instances.push_back({Stepper<X, P>(x, act, spec.alpha, spec.inits, t, sopt),
                         pool.acquire(spec.alpha)});
  detail::prepare_durability(instances, opt, result);

  const int workers = resolve_workers(opt.workers, specs.size());
  result.workers = workers;
  detail::drive_workload<X, P>(x, act, pool, instances, workers,
                               /*sync_pattern=*/false, opt, result);
  return result;
}

/// The adaptive-adversary workload: same scheduler and wire path, but each
/// instance's pattern grows online. The stepper's hook (installed here from
/// the instance's strategy) adds drops in begin_round();
/// advance_wire_round_staged then mirrors the updated pattern into the
/// slot, so wire-path filtering is bit-identical to the in-memory engines
/// on the same seeded strategy.
template <ExchangeProtocol X, class P>
WorkloadResult<X> run_adaptive_workload(const X& x, const P& act,
                                        std::span<AdaptiveInstanceSpec> specs,
                                        int t,
                                        const WorkloadOptions& opt = {}) {
  WorkloadResult<X> result;
  result.instances.resize(specs.size());
  result.latency_us.assign(specs.size(), 0.0);
  result.concurrent_instances = specs.size();
  if (specs.empty()) return result;

  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;

  BusPool pool(specs.size());
  std::vector<detail::ManagedInstance<X, P>> instances;
  instances.reserve(specs.size());
  for (AdaptiveInstanceSpec& spec : specs) {
    EBA_REQUIRE(spec.strategy != nullptr, "instance without a strategy");
    Stepper<X, P> stepper =
        adaptive_stepper(x, act, *spec.strategy, spec.inits, t, sopt);
    const BusPool::SlotId slot = pool.acquire(stepper.pattern());
    instances.push_back({std::move(stepper), slot, spec.strategy.get()});
  }
  detail::prepare_durability(instances, opt, result);

  const int workers = resolve_workers(opt.workers, specs.size());
  result.workers = workers;
  detail::drive_workload<X, P>(x, act, pool, instances, workers,
                               /*sync_pattern=*/true, opt, result);
  return result;
}

}  // namespace eba
