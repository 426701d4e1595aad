// The traced driver: a single-threaded, span-instrumented copy of the
// workload driver's wire path (net/workload.hpp `run_workload` and its
// `advance_wire_round_staged`), built only from the layers' public calls —
// Stepper::begin_round/finish_round, X::message, to_bytes/from_bytes,
// BusPool::exchange_round, RunLog::log_*, checkpoint_stepper, TraceWriter,
// build_certificate, and recover_run after Vfs::power_cut.
//
// Instances are admitted up front and driven round-robin on the calling
// thread, one round per scheduler step; every step is one `round` span with
// one child span per layer call. Two deliberate differences from the
// library driver, neither of which changes a record:
//
//  * µ is evaluated for every sender before any payload is encoded (into a
//    scratch buffer allocated once), so µ and encoding are two spans per
//    round instead of n interleaved pairs;
//  * a protocol exposing `infer_actions(state)` (P_opt) gets it called on
//    every agent state before begin_round, splitting the action span into
//    view inference and the agents' own decision rule.
//
// bench_e2e checks the driver record-for-record (and trace-for-trace)
// against run_workload on the same specs and options before it reports a
// single span. Crash injection is supported through a durable store with
// mid-round crash points only (CrashSchedule::mid_rounds), which is what
// the durable workload schedules.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/certificate.hpp"
#include "audit/trace_file.hpp"
#include "net/bus.hpp"
#include "net/checkpoint.hpp"
#include "net/serialize.hpp"
#include "net/workload.hpp"
#include "sim/stepper.hpp"
#include "spans.hpp"
#include "store/run_log.hpp"

namespace e2e {

/// Work counts of one traced run, beside the spans.
struct DriverCounts {
  std::uint64_t rounds = 0;         ///< completed rounds over all instances
  std::uint64_t encoded_bytes = 0;  ///< payload bytes serialized
  std::uint64_t deliveries = 0;     ///< payloads delivered (self included)
};

template <eba::ExchangeProtocol X>
struct TracedRun {
  eba::WorkloadResult<X> result;
  DriverCounts counts;
};

template <eba::ExchangeProtocol X, class P>
TracedRun<X> run_traced(const X& x, const P& act,
                        std::span<const eba::InstanceSpec> specs, int t,
                        const eba::WorkloadOptions& opt, Recorder& rec) {
  using namespace eba;
  using Message = typename X::Message;
  constexpr bool kBroadcast = BroadcastExchange<X>;
  const int n = x.n();
  const auto un = static_cast<std::size_t>(n);
  const DurableStoreOptions* store = opt.store;
  EBA_REQUIRE(!opt.crashes || (store && opt.crashes->rounds.empty()),
              "the traced driver injects mid-round crashes through a store "
              "only");
  EBA_REQUIRE(!store || opt.snapshot_every > 0,
              "a durable store requires a snapshot cadence");

  TracedRun<X> out;
  WorkloadResult<X>& result = out.result;
  result.instances.resize(specs.size());
  result.latency_us.assign(specs.size(), 0.0);
  result.concurrent_instances = specs.size();
  result.workers = 1;
  if (specs.empty()) return out;

  struct Inst {
    Inst(Stepper<X, P> s, BusPool::SlotId sl)
        : stepper(std::move(s)), slot(sl) {}
    Stepper<X, P> stepper;
    BusPool::SlotId slot;
    Bytes checkpoint;
    std::span<const int> mid_crash_rounds;
    std::size_t next_mid_crash = 0;
    std::optional<TraceWriter> trace;
    std::optional<RunLog> log;
    std::string log_dir;
  };

  // -- admission (untraced; mirrors run_workload + prepare_durability) -----
  StepperOptions sopt;
  sopt.max_rounds = opt.max_rounds;
  BusPool pool(specs.size());
  std::vector<Inst> insts;
  insts.reserve(specs.size());
  for (const InstanceSpec& spec : specs)
    insts.emplace_back(Stepper<X, P>(x, act, spec.alpha, spec.inits, t, sopt),
                       pool.acquire(spec.alpha));
  for (std::size_t k = 0; k < insts.size(); ++k) {
    Inst& inst = insts[k];
    if (opt.crashes && k < opt.crashes->mid_rounds.size())
      inst.mid_crash_rounds = opt.crashes->mid_rounds[k];
    if (opt.record_traces) {
      const RunRecord& r = inst.stepper.record();
      inst.trace.emplace(k, r.n, r.t, r.nonfaulty, r.inits);
    }
    if (opt.snapshot_every > 0) {
      inst.checkpoint = checkpoint_stepper(inst.stepper);
      result.snapshots_taken += 1;
    }
    if (store) {
      inst.log_dir = store->root;
      inst.log_dir += "/inst-";
      inst.log_dir += std::to_string(k);
      inst.log.emplace(
          RunLog::create(*store->vfs, inst.log_dir, store->journal));
      inst.log->log_checkpoint(inst.checkpoint);
    }
  }
  if (opt.record_traces) result.traces.resize(insts.size());

  // µ results of the round in flight: one per sender (broadcast) or per
  // (sender, receiver) edge. Reused by every round of every instance.
  std::vector<std::optional<Message>> staged(kBroadcast ? un : un * un);

  // Store-backed crash recovery, as run_workload's restore_from_store.
  const auto recover = [&](Inst& inst, std::size_t idx) {
    const Scope span(rec, Layer::store_recover, idx);
    store->vfs->power_cut(inst.log_dir + "/");
    inst.log.emplace(RunLog::open(*store->vfs, inst.log_dir, store->journal));
    RecoveredRun<X, P> recovered =
        recover_run<X, P>(x, act, inst.log->journal().records());
    if (recovered.finished_intent)
      inst.log->log_delta(delta_of_record(recovered.stepper.record(),
                                          recovered.stepper.time() - 1));
    inst.stepper = std::move(recovered.stepper);
    inst.slot = pool.acquire(inst.stepper.pattern(), inst.stepper.time());
    if (inst.trace) {
      const RunRecord& r = inst.stepper.record();
      inst.trace.emplace(idx, r.n, r.t, r.nonfaulty, r.inits);
      inst.trace->add_record_rounds(r);
    }
  };

  // One scheduler step of instance idx; true once it has completed.
  const auto step = [&](std::size_t idx) -> bool {
    const Scope round_span(rec, Layer::round, idx);
    Inst& inst = insts[idx];
    Stepper<X, P>& stepper = inst.stepper;

    if constexpr (requires(const typename X::State& s) {
                    act.infer_actions(s);
                  }) {
      if (!stepper.done()) {
        const Scope span(rec, Layer::action_infer, idx);
        for (const auto& s : stepper.states()) act.infer_actions(s);
      }
    }
    const std::vector<Action>* actions = nullptr;
    {
      const Scope span(rec, Layer::action_decide, idx);
      actions = stepper.begin_round();
    }
    const int before = stepper.time();

    if (actions) {
      if (inst.log) {
        {
          const Scope span(rec, Layer::store_intent, idx);
          IntentPayload intent;
          intent.round = before;
          intent.actions = *actions;
          const FailurePattern& alpha = stepper.pattern();
          intent.dropped_send.reserve(un);
          intent.dropped_receive.reserve(un);
          for (AgentId i = 0; i < n; ++i) {
            intent.dropped_send.push_back(alpha.dropped(before, i));
            intent.dropped_receive.push_back(alpha.dropped_receive(before, i));
          }
          inst.log->log_intent(intent);
        }
        if (inst.next_mid_crash < inst.mid_crash_rounds.size() &&
            before + 1 == inst.mid_crash_rounds[inst.next_mid_crash]) {
          // Power cut while the round is staged: the intent is its only
          // durable trace and no message has moved.
          inst.next_mid_crash += 1;
          result.crashes_injected += 1;
          pool.release(inst.slot);
          recover(inst, idx);
          return false;
        }
      }

      std::size_t bits = 0;
      std::size_t messages = 0;
      BusPool::RoundResult res;
      const auto& states = stepper.states();
      if constexpr (kBroadcast) {
        {
          const Scope span(rec, Layer::exchange_mu, idx);
          for (AgentId i = 0; i < n; ++i) {
            auto& m = staged[static_cast<std::size_t>(i)];
            m = x.message(states[static_cast<std::size_t>(i)],
                          (*actions)[static_cast<std::size_t>(i)], /*dest=*/0);
            if (!m) continue;
            bits += (un - 1) * x.message_bits(*m);
            messages += un - 1;
          }
        }
        std::vector<std::optional<Bytes>> outbox(un);
        {
          const Scope span(rec, Layer::serialize_encode, idx);
          for (std::size_t i = 0; i < un; ++i) {
            if (!staged[i]) continue;
            outbox[i] = to_bytes(*staged[i]);
            out.counts.encoded_bytes += outbox[i]->size();
            staged[i].reset();
          }
        }
        const Scope span(rec, Layer::bus_exchange, idx);
        res = pool.exchange_round(inst.slot, std::move(outbox));
      } else {
        {
          const Scope span(rec, Layer::exchange_mu, idx);
          for (AgentId i = 0; i < n; ++i)
            for (AgentId j = 0; j < n; ++j) {
              auto& m = staged[static_cast<std::size_t>(i) * un +
                               static_cast<std::size_t>(j)];
              m = x.message(states[static_cast<std::size_t>(i)],
                            (*actions)[static_cast<std::size_t>(i)], j);
              if (!m || j == i) continue;
              bits += x.message_bits(*m);
              messages += 1;
            }
        }
        std::vector<std::vector<std::optional<Bytes>>> outbox(
            un, std::vector<std::optional<Bytes>>(un));
        {
          const Scope span(rec, Layer::serialize_encode, idx);
          for (std::size_t i = 0; i < un; ++i)
            for (std::size_t j = 0; j < un; ++j) {
              auto& m = staged[i * un + j];
              if (!m) continue;
              outbox[i][j] = to_bytes(*m);
              out.counts.encoded_bytes += outbox[i][j]->size();
              m.reset();
            }
        }
        const Scope span(rec, Layer::bus_exchange, idx);
        res = pool.exchange_round(inst.slot, std::move(outbox));
      }

      std::vector<std::vector<std::optional<Message>>> inbox(
          un, std::vector<std::optional<Message>>(un));
      {
        const Scope span(rec, Layer::serialize_decode, idx);
        for (std::size_t from = 0; from < un; ++from) {
          std::optional<Message> decoded;
          for (std::size_t to = 0; to < un; ++to) {
            const auto& payload = res.inbox[to][from];
            if (!payload) continue;
            out.counts.deliveries += 1;
            if constexpr (kBroadcast) {
              // Broadcast payloads are bit-identical across receivers:
              // decode once per sender, share the value.
              if (!decoded) decoded = from_bytes<Message>(*payload);
              inbox[to][from] = *decoded;
            } else {
              inbox[to][from] = from_bytes<Message>(*payload);
            }
          }
        }
      }
      {
        const Scope span(rec, Layer::exchange_delta, idx);
        stepper.finish_round(inbox, std::move(res.sent),
                             std::move(res.delivered), bits, messages);
      }

      if (inst.log) {
        const Scope span(rec, Layer::store_delta, idx);
        inst.log->log_delta(delta_of_record(stepper.record(), before));
      }
      if (inst.trace) {
        const Scope span(rec, Layer::audit_trace_append, idx);
        const RunRecord& r = stepper.record();
        inst.trace->add_round(r.actions.back(), r.sent.back(),
                              r.delivered.back());
      }
      if (!stepper.done()) {
        if (opt.snapshot_every > 0 &&
            stepper.time() % opt.snapshot_every == 0) {
          {
            const Scope span(rec, Layer::checkpoint_encode, idx);
            inst.checkpoint = checkpoint_stepper(stepper);
          }
          if (inst.log) {
            const Scope span(rec, Layer::store_checkpoint, idx);
            inst.log->log_checkpoint(inst.checkpoint);
            inst.log->gc_keep_checkpoints(store->keep_checkpoints);
          }
          result.snapshots_taken += 1;
        }
        return false;
      }
    }

    // Completed: harvest the record (and seal the trace).
    RunRecord record = stepper.take_record();
    out.counts.rounds += static_cast<std::uint64_t>(record.rounds);
    if (inst.trace) {
      const Scope span(rec, Layer::audit_certificate, idx);
      result.traces[idx] = inst.trace->finish(build_certificate(record, idx));
    }
    result.instances[idx].record = std::move(record);
    result.instances[idx].final_states = stepper.take_states();
    pool.release(inst.slot);
    return true;
  };

  std::deque<std::size_t> ready;
  for (std::size_t k = 0; k < insts.size(); ++k) ready.push_back(k);
  while (!ready.empty()) {
    const std::size_t idx = ready.front();
    ready.pop_front();
    if (!step(idx)) ready.push_back(idx);
  }
  return out;
}

}  // namespace e2e
