// Durable per-instance run log: full checkpoints, delta rounds, and a
// mid-round write-ahead intent record, layered on the journal.
//
// The workload engine (net/workload.hpp) gives each instance one RunLog.
// Three record kinds flow through its journal:
//
//   FULL_CHECKPOINT (1)  an EBCK container (net/checkpoint.hpp) verbatim —
//                        the recovery root, written at the snapshot cadence.
//   DELTA (2)            one completed round's planes (round index, action
//                        bytes, sent/delivered word rows): the incremental
//                        checkpoint. Replaying deltas from the last full
//                        checkpoint is pinned byte-identical to having run
//                        the rounds, because the engine is deterministic
//                        (paper §3) — recover_run() verifies every replayed
//                        round against its logged delta and refuses to
//                        return a diverging instance.
//   INTENT (3)           the write-ahead log of a round in flight: the
//                        staged actions plus the pattern's drop rows for the
//                        round, appended (and fsynced) after the adversary
//                        hook ran but before any message moves. A crash
//                        between intent and delta recovers by re-running the
//                        round from replayed state and checking the realized
//                        actions/drops against the intent — this is what
//                        lets CrashSchedule fire mid-round.
//
// Retention: every FULL_CHECKPOINT starts a new recovery root; once a newer
// root is durable, records older than the last `keep` roots are dead weight
// and `gc_keep_checkpoints` lets the journal drop the sealed segments that
// hold only them.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/checkpoint.hpp"
#include "sim/adaptive.hpp"
#include "store/journal.hpp"

namespace eba {

inline constexpr std::uint8_t kRunLogCheckpoint = 1;
inline constexpr std::uint8_t kRunLogDelta = 2;
inline constexpr std::uint8_t kRunLogIntent = 3;

/// One completed round's planes, borrowed from wherever they live — a run
/// record (delta_of_record) or a decoded DeltaPayload. The one form
/// encode_delta and RunLog::log_delta take, so logging a round copies no
/// plane.
struct DeltaView {
  int round = 0;  ///< pattern round index m (the round just completed)
  std::span<const Action> actions;
  std::span<const AgentSet> sent;
  std::span<const AgentSet> delivered;
};

/// One completed round, as decoded from the log.
struct DeltaPayload {
  int round = 0;  ///< pattern round index m (the round just completed)
  std::vector<Action> actions;
  std::vector<AgentSet> sent;
  std::vector<AgentSet> delivered;

  operator DeltaView() const { return {round, actions, sent, delivered}; }
};

/// One staged (in-flight) round, borrowed: what is about to happen,
/// durably, before any message moves. The one form encode_intent and
/// RunLog::log_intent take.
struct IntentView {
  int round = 0;  ///< pattern round index m (the round being staged)
  std::span<const Action> actions;
  /// dropped_send[i] = receivers the pattern drops from sender i this round.
  std::span<const AgentSet> dropped_send;
  /// dropped_receive[i] = senders receiver i drops this round.
  std::span<const AgentSet> dropped_receive;
};

/// One staged round, as decoded from the log.
struct IntentPayload {
  int round = 0;  ///< pattern round index m (the round being staged)
  std::vector<Action> actions;
  std::vector<AgentSet> dropped_send;
  std::vector<AgentSet> dropped_receive;

  operator IntentView() const {
    return {round, actions, dropped_send, dropped_receive};
  }
};

/// Exact encoded size of a delta or intent record over n agents: round and
/// population words, one action byte per agent, two planes of n rows.
[[nodiscard]] constexpr std::size_t round_record_size(int n) {
  const auto un = static_cast<std::size_t>(n);
  return 8 + un + 2 * un * ((un + 7) / 8);
}

void encode_delta(Writer& w, const DeltaView& delta);
[[nodiscard]] DeltaPayload decode_delta(Reader& r);
void encode_intent(Writer& w, const IntentView& intent);
[[nodiscard]] IntentPayload decode_intent(Reader& r);

/// Round `m` of a run record, as a delta borrowing the record's planes.
[[nodiscard]] DeltaView delta_of_record(const RunRecord& record, int m);

/// The durable log of one instance. Every log_* call appends and fsyncs:
/// when it returns, the record survives a power cut.
class RunLog {
 public:
  [[nodiscard]] static RunLog create(Vfs& vfs, const std::string& dir,
                                     const JournalOptions& opt = {});
  [[nodiscard]] static RunLog open(Vfs& vfs, const std::string& dir,
                                   const JournalOptions& opt = {});

  void log_checkpoint(const Bytes& checkpoint_bytes);
  void log_delta(const DeltaView& delta);
  void log_intent(const IntentView& intent);

  /// Lets the journal drop segments that only hold records older than the
  /// newest `keep` full checkpoints. `keep` >= 1.
  void gc_keep_checkpoints(int keep);

  [[nodiscard]] const Journal& journal() const { return journal_; }
  [[nodiscard]] Journal& journal() { return journal_; }

 private:
  explicit RunLog(Journal&& journal);

  Journal journal_;
  std::vector<std::uint64_t> checkpoint_seqs_;
  Writer buf_;  ///< reused encode buffer of log_delta/log_intent
};

/// The outcome of recover_run: a live stepper positioned exactly where the
/// crashed instance was, plus what the recovery had to do to get there.
template <ExchangeProtocol X, class P>
struct RecoveredRun {
  Stepper<X, P> stepper;
  int replayed_rounds = 0;    ///< rounds re-executed past the checkpoint
  bool finished_intent = false;  ///< a trailing INTENT round was completed
};

/// Rebuilds an instance from the records a reopened RunLog journal
/// recovered: restore the newest FULL_CHECKPOINT, roll the adversary
/// strategy back with its blob and reinstall the hook (when `strategy` is
/// given), then re-run every subsequent DELTA round — verifying each
/// replayed round byte-for-byte against its logged planes — and finally
/// complete a trailing INTENT round, verifying the realized actions and
/// drop rows against the write-ahead record. Any divergence or structural
/// break throws DecodeError; a diverging instance is never returned.
///
/// IMPORTANT: when `finished_intent` is set, the caller owns re-logging the
/// completed round as a DELTA (delta_of_record on the recovered record)
/// before appending anything else — otherwise a second crash would find two
/// intents with no delta between them and refuse the log as malformed.
template <ExchangeProtocol X, class P>
[[nodiscard]] RecoveredRun<X, P> recover_run(
    const X& x, const P& act, const std::vector<JournalRecord>& records,
    AdversaryStrategy* strategy = nullptr, TraceSink<X>* sink = nullptr) {
  using Kind = DecodeError::Kind;

  std::size_t root = records.size();
  for (std::size_t k = records.size(); k-- > 0;)
    if (records[k].kind == kRunLogCheckpoint) {
      root = k;
      break;
    }
  if (root == records.size())
    throw DecodeError(Kind::missing_frame, "run log has no full checkpoint");

  std::string blob;
  Stepper<X, P> stepper =
      restore_stepper<X, P>(x, act, records[root].payload, sink, &blob);
  if (strategy) {
    strategy->restore_state(blob);
    stepper.set_adversary_hook(make_strategy_hook(*strategy, stepper.t()));
  }

  RecoveredRun<X, P> out{std::move(stepper), 0, false};
  std::optional<IntentPayload> pending;

  const auto check_round_planes = [&](const DeltaPayload& delta) {
    const RunRecord& rec = out.stepper.record();
    const std::size_t um = static_cast<std::size_t>(delta.round);
    if (rec.actions[um] != delta.actions || rec.sent[um] != delta.sent ||
        rec.delivered[um] != delta.delivered)
      throw DecodeError(Kind::malformed,
                        "replay diverges from the logged delta at round " +
                            std::to_string(delta.round + 1));
  };

  // A round record's planes are sized by its own population word; one that
  // disagrees with the restored instance would index past them below.
  const auto check_population = [&](std::size_t agents, const char* what) {
    if (agents != static_cast<std::size_t>(out.stepper.n()))
      throw DecodeError(Kind::malformed,
                        std::string("run log ") + what +
                            " population differs from the checkpoint's");
  };

  for (std::size_t k = root + 1; k < records.size(); ++k) {
    const JournalRecord& rec = records[k];
    Reader r(rec.payload);
    switch (rec.kind) {
      case kRunLogCheckpoint:
        throw DecodeError(Kind::malformed,
                          "checkpoint after the chosen recovery root");
      case kRunLogDelta: {
        const DeltaPayload delta = decode_delta(r);
        check_population(delta.actions.size(), "delta");
        if (delta.round != out.stepper.time())
          throw DecodeError(Kind::malformed,
                            "run log delta out of order at round " +
                                std::to_string(delta.round + 1));
        if (pending) {
          // Cross-check the write-ahead intent against what the round
          // actually did, plane by plane: delivered must equal sent minus
          // the intent's send-side and receive-side drop rows.
          if (pending->round != delta.round ||
              pending->actions != delta.actions)
            throw DecodeError(Kind::malformed,
                              "intent and delta disagree at round " +
                                  std::to_string(delta.round + 1));
          const int n = out.stepper.n();
          for (AgentId i = 0; i < n; ++i) {
            const std::size_t ui = static_cast<std::size_t>(i);
            AgentSet expect = delta.sent[ui].minus(pending->dropped_send[ui]);
            for (AgentId j = 0; j < n; ++j)
              if (pending->dropped_receive[static_cast<std::size_t>(j)]
                      .contains(i))
                expect.erase(j);
            if (expect != delta.delivered[ui])
              throw DecodeError(
                  Kind::malformed,
                  "intent drop rows do not explain the delta's delivered "
                  "plane at round " +
                      std::to_string(delta.round + 1));
          }
          pending.reset();
        }
        if (!out.stepper.step())
          throw DecodeError(Kind::malformed,
                            "run log delta beyond the instance horizon");
        check_round_planes(delta);
        out.replayed_rounds += 1;
        break;
      }
      case kRunLogIntent: {
        if (pending)
          throw DecodeError(Kind::malformed,
                            "two intents with no delta between them");
        IntentPayload intent = decode_intent(r);
        check_population(intent.actions.size(), "intent");
        if (intent.round != out.stepper.time())
          throw DecodeError(Kind::malformed,
                            "run log intent out of order at round " +
                                std::to_string(intent.round + 1));
        pending = std::move(intent);
        break;
      }
      default:
        throw DecodeError(Kind::malformed, "unknown run log record kind " +
                                               std::to_string(rec.kind));
    }
    if (rec.kind != kRunLogCheckpoint && !r.exhausted())
      throw DecodeError(Kind::trailing,
                        "run log payload has unconsumed bytes");
  }

  if (pending) {
    // The crash hit mid-round: the WAL intent is the round's durable
    // representation. Determinism re-derives the round; the intent's
    // actions and drop rows must match what the re-run realized.
    const int m = pending->round;
    if (!out.stepper.step())
      throw DecodeError(Kind::malformed,
                        "run log intent beyond the instance horizon");
    const RunRecord& rec = out.stepper.record();
    if (rec.actions[static_cast<std::size_t>(m)] != pending->actions)
      throw DecodeError(Kind::malformed,
                        "replayed actions diverge from the intent at round " +
                            std::to_string(m + 1));
    const FailurePattern& alpha = out.stepper.pattern();
    for (AgentId i = 0; i < out.stepper.n(); ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      if (alpha.dropped(m, i) != pending->dropped_send[ui] ||
          alpha.dropped_receive(m, i) != pending->dropped_receive[ui])
        throw DecodeError(
            Kind::malformed,
            "replayed drop rows diverge from the intent at round " +
                std::to_string(m + 1));
    }
    out.replayed_rounds += 1;
    out.finished_intent = true;
  }

  return out;
}

}  // namespace eba
