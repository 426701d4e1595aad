// Crash-safety suite: decision certificates, durable traces, and
// snapshot/restore with fault injection.
//
// The correctness oracle everywhere is the determinism differential: a
// crashed-and-restored run must finish with the RunRecord an uninterrupted
// run produces — across protocols, failure models and adaptive adversaries
// (whose realized pattern must survive the snapshot). The durable formats
// get the adversarial treatment: every truncation and bit flip of a
// certificate, trace or checkpoint must come back as a typed DecodeError
// or a failed verification, never an accept and never UB.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "audit/certificate.hpp"
#include "audit/trace_file.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "net/checkpoint.hpp"
#include "net/workload.hpp"
#include "sim/adaptive.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"

namespace eba {
namespace {

void expect_records_equal(const RunRecord& got, const RunRecord& want,
                          const std::string& what) {
  EXPECT_EQ(got.n, want.n) << what;
  EXPECT_EQ(got.t, want.t) << what;
  ASSERT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.inits, want.inits) << what;
  EXPECT_EQ(got.nonfaulty, want.nonfaulty) << what;
  EXPECT_EQ(got.actions, want.actions) << what;
  EXPECT_EQ(got.sent, want.sent) << what;
  EXPECT_EQ(got.delivered, want.delivered) << what;
}

FailurePattern seeded_pattern(int n, int t, FailureModel model,
                              std::uint64_t seed) {
  Rng rng(seed);
  return model == FailureModel::sending
             ? sample_adversary(n, t, t + 2, 0.35, rng)
             : sample_go_adversary(n, t, t + 2, 0.35, 0.25, rng);
}

std::vector<Value> seeded_prefs(int n, std::uint64_t seed) {
  Rng rng(seed);
  return sample_preferences(n, rng);
}

// -- Decision certificates ---------------------------------------------------

template <class X, class P>
void expect_certificate_roundtrip(const X& x, const P& p, FailureModel model,
                                  std::uint64_t seed,
                                  const std::string& what) {
  const int t = 2;
  const auto run = simulate(x, p, seeded_pattern(x.n(), t, model, seed),
                            seeded_prefs(x.n(), seed + 1), t);
  const DecisionCertificate cert = build_certificate(run.record, seed);
  const CertificateCheck check = verify_certificate(cert, run.record);
  EXPECT_TRUE(check.ok) << what;
  EXPECT_TRUE(check.errors.empty()) << what;
  EXPECT_EQ(cert.rounds, run.record.rounds) << what;
  ASSERT_EQ(cert.evidence.size(),
            static_cast<std::size_t>(run.record.rounds))
      << what;
  // A decided run's certificate must claim exactly the spec's decision.
  const SpecReport spec = check_eba(run.record);
  if (spec.ok() && cert.decided_value) {
    for (AgentId i : run.record.nonfaulty) {
      const auto d = run.record.decision(i);
      ASSERT_TRUE(d.has_value()) << what;
      EXPECT_EQ(d->value, *cert.decided_value) << what;
    }
  }

  // Codec roundtrip.
  Writer w;
  encode_certificate(w, cert);
  const Bytes bytes = w.take();
  Reader r(bytes);
  const DecisionCertificate back = decode_certificate(r);
  EXPECT_TRUE(r.exhausted()) << what;
  EXPECT_EQ(back, cert) << what;
}

TEST(CertificateTest, BuildVerifyAndCodecRoundtrip) {
  expect_certificate_roundtrip(MinExchange(6), PMin(6, 2),
                               FailureModel::sending, 21, "p_min");
  expect_certificate_roundtrip(BasicExchange(6), PBasic(6, 2),
                               FailureModel::sending, 22, "p_basic");
  expect_certificate_roundtrip(FipExchange(5), POpt(5, 2),
                               FailureModel::sending, 23, "p_opt");
  expect_certificate_roundtrip(FipExchange(5), POptGo(5, 2),
                               FailureModel::general, 24, "p_opt_go");
}

TEST(CertificateTest, DetectsEditedEvidence) {
  const int n = 5, t = 2;
  const auto run =
      simulate(FipExchange(n), POpt(n, t),
               seeded_pattern(n, t, FailureModel::sending, 31),
               seeded_prefs(n, 32), t);
  const DecisionCertificate cert = build_certificate(run.record, 7);

  // Editing a delivered plane breaks the evidence chain AND the pattern
  // digest (delivered \ sent changes the realized omissions).
  RunRecord tampered = run.record;
  ASSERT_GT(tampered.rounds, 0);
  auto& row = tampered.delivered[0][0];
  row = row.empty() ? tampered.sent[0][0] : AgentSet{};
  const CertificateCheck check = verify_certificate(cert, tampered);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.errors.empty());

  // Editing the claimed decision is caught by the summary + final digest.
  DecisionCertificate lying = cert;
  lying.decided_value = lying.decided_value == Value::one
                            ? std::optional<Value>(Value::zero)
                            : std::optional<Value>(Value::one);
  const CertificateCheck check2 = verify_certificate(lying, run.record);
  EXPECT_FALSE(check2.ok);
}

TEST(CertificateTest, DecoderRejectsStructurallyImpossible) {
  const int n = 4, t = 1;
  const auto run = simulate(MinExchange(n), PMin(n, t),
                            FailurePattern::failure_free(n),
                            std::vector<Value>(n, Value::one), t);
  Writer w;
  encode_certificate(w, build_certificate(run.record));
  const Bytes bytes = w.take();

  // Truncation at every byte boundary is a typed error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Bytes short_buf(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    Reader r(short_buf);
    EXPECT_THROW((void)decode_certificate(r), DecodeError) << "cut " << cut;
  }
}

// -- Durable traces ----------------------------------------------------------

TEST(TraceFileTest, RoundtripParsesIdentically) {
  const int n = 5, t = 2;
  const auto run = simulate(FipExchange(n), POptGo(n, t),
                            seeded_pattern(n, t, FailureModel::general, 41),
                            seeded_prefs(n, 42), t);
  const Bytes trace = write_trace(run.record, 123);
  const TraceFile parsed = read_trace(trace);
  EXPECT_EQ(parsed.version, kTraceFormatVersion);
  EXPECT_EQ(parsed.instance_id, 123u);
  EXPECT_EQ(parsed.record, run.record);
  EXPECT_EQ(parsed.certificate, build_certificate(run.record, 123));

  const ReplayReport report = replay_verify(trace);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_TRUE(report.parsed && report.cert_ok);
}

TEST(TraceFileTest, EveryTruncationAndBitFlipRejected) {
  const int n = 4, t = 1;
  const auto run = simulate(MinExchange(n), PMin(n, t),
                            seeded_pattern(n, t, FailureModel::sending, 51),
                            seeded_prefs(n, 52), t);
  const Bytes trace = write_trace(run.record);
  ASSERT_TRUE(replay_verify(trace).ok);

  for (std::size_t cut = 0; cut < trace.size(); ++cut) {
    Bytes t_buf(trace.begin(),
                trace.begin() + static_cast<std::ptrdiff_t>(cut));
    const ReplayReport report = replay_verify(t_buf);
    EXPECT_FALSE(report.ok) << "truncation at " << cut;
    EXPECT_FALSE(report.parsed) << "truncation at " << cut;
  }
  for (std::size_t at = 0; at < trace.size(); ++at) {
    for (int bit : {0, 7}) {
      Bytes t_buf = trace;
      t_buf[at] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(replay_verify(t_buf).ok)
          << "bit " << bit << " flip at byte " << at;
    }
  }
}

TEST(CheckpointTest, ShortMagicAndVersionSkewRejectedByKind) {
  using Kind = DecodeError::Kind;
  const int n = 4, t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(x, p, FailurePattern::failure_free(n),
                                     std::vector<Value>(n, Value::one), t);
  ASSERT_TRUE(stepper.step());
  const Bytes ck = checkpoint_stepper(stepper);
  const auto kind_of = [&](const Bytes& bytes) -> std::optional<Kind> {
    try {
      (void)restore_stepper<MinExchange, PMin>(x, p, bytes);
    } catch (const DecodeError& e) {
      return e.kind();
    }
    return std::nullopt;
  };
  EXPECT_EQ(kind_of(Bytes(ck.begin(), ck.begin() + 7)), Kind::truncated);
  Bytes magic = ck;
  magic[3] = 'X';
  EXPECT_EQ(kind_of(magic), Kind::bad_magic);
  Bytes skew = ck;
  skew[4] += 1;
  EXPECT_EQ(kind_of(skew), Kind::bad_version);
  EXPECT_EQ(kind_of(ck), std::nullopt);
}

TEST(TraceFileTest, VersionSkewMagicAndTrailingRejected) {
  const int n = 4, t = 1;
  const auto run = simulate(MinExchange(n), PMin(n, t),
                            FailurePattern::failure_free(n),
                            std::vector<Value>(n, Value::zero), t);
  const Bytes trace = write_trace(run.record);

  Bytes skew = trace;
  skew[4] = 0x7F;  // version 127
  try {
    (void)read_trace(skew);
    FAIL() << "version skew accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::bad_version);
  }

  Bytes magic = trace;
  magic[1] = 'X';
  try {
    (void)read_trace(magic);
    FAIL() << "magic corruption accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::bad_magic);
  }

  Bytes trailing = trace;
  trailing.push_back(0);
  EXPECT_THROW((void)read_trace(trailing), DecodeError);

  // A trace cut after a whole frame (certificate missing) is rejected as an
  // unterminated stream, which is what makes writer crashes detectable.
  std::size_t pos = 8;
  (void)read_frame(trace, pos);  // header frame
  Bytes unterminated(trace.begin(),
                     trace.begin() + static_cast<std::ptrdiff_t>(pos));
  try {
    (void)read_trace(unterminated);
    FAIL() << "unterminated trace accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::missing_frame);
  }
}

TEST(TraceFileTest, TruncatedHorizonRunVerifiesWithoutDecision) {
  // A max_rounds-cut run reaches no decision; its certificate must not claim
  // one, and replay_verify must accept the trace without the termination
  // properties (which a cut run cannot satisfy).
  const int n = 5, t = 2;
  StepperOptions opt;
  opt.max_rounds = 1;
  const auto run = simulate(MinExchange(n), PMin(n, t),
                            seeded_pattern(n, t, FailureModel::sending, 61),
                            std::vector<Value>(n, Value::one), t, opt);
  const Bytes trace = write_trace(run.record);
  const TraceFile parsed = read_trace(trace);
  EXPECT_FALSE(parsed.certificate.decided_value.has_value());
  EXPECT_EQ(parsed.certificate.decided_round, -1);
  const ReplayReport report = replay_verify(trace);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_FALSE(report.complete);
}

// -- Checkpoint/restore ------------------------------------------------------

/// Runs the instance to completion, checkpointing at EVERY round boundary,
/// then restores from each checkpoint and re-runs to completion: every
/// restored run must match the uninterrupted record, wire accounting and
/// final states exactly.
template <class X, class P>
void expect_restore_matches(const X& x, const P& p, const FailurePattern& alpha,
                            const std::vector<Value>& prefs, int t,
                            const std::string& what) {
  Stepper<X, P> stepper(x, p, alpha, prefs, t);
  std::vector<Bytes> checkpoints;
  checkpoints.push_back(checkpoint_stepper(stepper));
  while (stepper.step()) checkpoints.push_back(checkpoint_stepper(stepper));
  const RunRecord want = stepper.take_record();
  const auto want_states = stepper.take_states();

  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    Stepper<X, P> restored = restore_stepper<X, P>(x, p, checkpoints[k]);
    EXPECT_EQ(restored.time(), static_cast<int>(k)) << what;
    EXPECT_EQ(restored.start_time(), restored.time()) << what;
    while (restored.step()) {
    }
    expect_records_equal(restored.record(), want,
                         what + " restored from round " + std::to_string(k));
    EXPECT_EQ(restored.states(), want_states) << what << " round " << k;
  }
}

TEST(CheckpointTest, RestoreMatchesUninterruptedEveryProtocol) {
  const int t = 2;
  expect_restore_matches(MinExchange(5), PMin(5, t),
                         seeded_pattern(5, t, FailureModel::sending, 71),
                         seeded_prefs(5, 72), t, "p_min");
  expect_restore_matches(BasicExchange(5), PBasic(5, t),
                         seeded_pattern(5, t, FailureModel::sending, 73),
                         seeded_prefs(5, 74), t, "p_basic");
  expect_restore_matches(FipExchange(4), POpt(4, t),
                         seeded_pattern(4, t, FailureModel::sending, 75),
                         seeded_prefs(4, 76), t, "p_opt");
  expect_restore_matches(FipExchange(4), POptGo(4, t),
                         seeded_pattern(4, t, FailureModel::general, 77),
                         seeded_prefs(4, 78), t, "p_opt_go");
}

TEST(CheckpointTest, RestoredSinkObservesFromResumeTime) {
  const int n = 4, t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(x, p, FailurePattern::failure_free(n),
                                     std::vector<Value>(n, Value::one), t);
  ASSERT_TRUE(stepper.step());
  ASSERT_TRUE(stepper.step());
  const Bytes ck = checkpoint_stepper(stepper);

  MaterializingSink<MinExchange> sink;
  Stepper<MinExchange, PMin> restored =
      restore_stepper<MinExchange, PMin>(x, p, ck, &sink);
  ASSERT_EQ(sink.states().size(), 1u) << "resume-time states only";
  while (restored.step()) {
  }
  EXPECT_EQ(sink.states().size(),
            static_cast<std::size_t>(restored.time() - 2 + 1));
  EXPECT_EQ(sink.states().back(), restored.states());
}

TEST(CheckpointTest, CorruptCheckpointsRejected) {
  const int n = 4, t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  Stepper<MinExchange, PMin> stepper(
      x, p, seeded_pattern(n, t, FailureModel::sending, 81),
      seeded_prefs(n, 82), t);
  ASSERT_TRUE(stepper.step());
  const Bytes ck = checkpoint_stepper(stepper);

  {
    const auto pristine = restore_stepper<MinExchange, PMin>(x, p, ck);
    ASSERT_EQ(pristine.time(), 1) << "pristine checkpoint must restore";
  }
  for (std::size_t cut = 0; cut < ck.size(); ++cut) {
    Bytes short_buf(ck.begin(), ck.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)(restore_stepper<MinExchange, PMin>(x, p, short_buf)),
                 DecodeError)
        << "cut " << cut;
  }
  for (std::size_t at = 0; at < ck.size(); ++at) {
    Bytes flip = ck;
    flip[at] ^= 1;
    EXPECT_THROW((void)(restore_stepper<MinExchange, PMin>(x, p, flip)),
                 DecodeError)
        << "flip at " << at;
  }
  // A checkpoint for the wrong context is rejected, not misapplied.
  EXPECT_THROW(
      (void)(restore_stepper<MinExchange, PMin>(MinExchange(n + 1),
                                                PMin(n + 1, t), ck)),
      DecodeError);
}

TEST(CheckpointTest, AdaptiveRestoreReplaysTheStrategy) {
  // The realized pattern must survive the snapshot: a restored instance with
  // a rolled-back strategy re-produces the exact drops the uninterrupted
  // adaptive run realizes — including the RNG-driven strategy, whose engine
  // position rides in the adversary-state blob.
  const int n = 5, t = 2;
  const FipExchange x(n);
  const POptGo p(n, t);
  const auto prefs = seeded_prefs(n, 91);

  for (const auto& factory : shipped_strategies(n, t, FailureModel::general)) {
    for (std::uint64_t seed : {3ull, 4ull}) {
      const std::string what = factory.name + " seed " + std::to_string(seed);

      auto want_strat = factory.make(seed);
      const AdaptiveOutcome want = run_adaptive(x, p, *want_strat, prefs, t);

      // Interrupted twin: checkpoint (stepper + strategy) after two rounds.
      auto strat = factory.make(seed);
      FailurePattern base = strat->base_pattern();
      Stepper<FipExchange, POptGo> stepper(x, p, std::move(base), prefs, t);
      stepper.set_adversary_hook(make_strategy_hook(*strat, t));
      ASSERT_TRUE(stepper.step()) << what;
      ASSERT_TRUE(stepper.step()) << what;
      const Bytes ck = checkpoint_stepper(stepper, strat->checkpoint_state());

      std::string blob;
      Stepper<FipExchange, POptGo> restored =
          restore_stepper<FipExchange, POptGo>(x, p, ck, nullptr, &blob);
      auto fresh = factory.make(seed);  // same construction, rolled back
      fresh->restore_state(blob);
      restored.set_adversary_hook(make_strategy_hook(*fresh, t));
      while (restored.step()) {
      }

      expect_records_equal(restored.record(), want.summary.record, what);
      EXPECT_TRUE(restored.pattern() == want.realized)
          << what << ": realized pattern did not survive the snapshot";
    }
  }
}

// -- Workload crash injection ------------------------------------------------

TEST(BusPoolTest, AcquireAtResumeRoundFiltersTheRightRounds) {
  const int n = 3;
  FailurePattern alpha(n, AgentSet{0, 1});
  alpha.drop(2, 2, 0);  // round 2: 2 -> 0 dropped
  BusPool pool(1);
  const auto slot = pool.acquire(alpha, /*resume_round=*/2);
  EXPECT_EQ(pool.completed_rounds(slot), 2);
  std::vector<std::optional<Bytes>> outbox;
  for (AgentId i = 0; i < n; ++i) outbox.push_back(Bytes{1});
  const auto res = pool.exchange_round(slot, std::move(outbox));
  EXPECT_EQ(res.round, 2);
  EXPECT_FALSE(res.inbox[0][2].has_value()) << "round-2 drop must apply";
  EXPECT_TRUE(res.inbox[1][2].has_value());
  pool.release(slot);
}

TEST(WorkloadRecoveryTest, CrashesAndCadenceRequireAStore) {
  // Every crash recovers from the run log, so a crash schedule or a
  // checkpoint cadence without a store is a contract violation, and so is a
  // store that never cuts a checkpoint to recover from.
  const MinExchange x(4);
  const PMin p(4, 1);
  std::vector<InstanceSpec> specs(
      2, {FailurePattern::failure_free(4), std::vector<Value>(4, Value::one)});
  CrashSchedule boundary;
  boundary.rounds = {{1}, {}};
  const CrashSchedule mid = CrashSchedule::seeded_mid_round(2, 3, 9);
  MemVfs vfs;
  DurableStoreOptions store;
  store.vfs = &vfs;
  store.root = "wl";

  WorkloadOptions boundary_only;
  boundary_only.crashes = &boundary;
  WorkloadOptions mid_only;
  mid_only.crashes = &mid;
  WorkloadOptions cadence_only;
  cadence_only.snapshot_every = 1;
  WorkloadOptions store_only;
  store_only.store = &store;
  for (const auto& [opt, what] :
       {std::pair{boundary_only, "boundary crashes without a store"},
        std::pair{mid_only, "mid-round crashes without a store"},
        std::pair{cadence_only, "a cadence without a store"},
        std::pair{store_only, "a store without a cadence"}})
    EXPECT_THROW((void)run_workload(x, p, std::span(specs), 1, opt),
                 std::logic_error)
        << what;
}

// Journal bytes are untrusted: a DELTA or INTENT record sizes its planes by
// its own population word. Records over n = 2 agents after an n = 4
// checkpoint — an intent and a delta with equal actions, so the intent
// cross-check is reached, or either one alone — must be refused with a
// typed error before any plane is indexed by the instance's n.
TEST(WorkloadRecoveryTest, RoundRecordsOverAnotherPopulationRejected) {
  const int n = 4;
  const int t = 1;
  const MinExchange x(n);
  const PMin p(n, t);
  const std::vector<Action> actions(2, Action::noop());
  const std::vector<AgentSet> rows(2);
  const IntentPayload intent{0, actions, rows, rows};
  const DeltaPayload delta{0, actions, rows, rows};
  const std::vector<std::pair<bool, bool>> shapes = {
      {true, true}, {false, true}, {true, false}};
  for (const auto& [with_intent, with_delta] : shapes) {
    const std::string what = std::string(with_intent ? "intent " : "") +
                             (with_delta ? "delta" : "");
    MemVfs vfs;
    {
      RunLog log = RunLog::create(vfs, "rl");
      const Stepper<MinExchange, PMin> stepper(
          x, p, FailurePattern::failure_free(n),
          std::vector<Value>(static_cast<std::size_t>(n), Value::one), t);
      log.log_checkpoint(checkpoint_stepper(stepper));
      if (with_intent) log.log_intent(intent);
      if (with_delta) log.log_delta(delta);
    }
    const RunLog log = RunLog::open(vfs, "rl");
    try {
      (void)recover_run<MinExchange, PMin>(x, p, log.journal().records());
      ADD_FAILURE() << what << ": a record over another population accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), DecodeError::Kind::malformed) << what;
    }
  }
}

/// A store's full-checkpoint cadence and GC retention.
struct StoreCadence {
  int snapshot_every;
  int keep_checkpoints;
};

/// Every storm runs at each of these. Cadences above 1 make recovery replay
/// several logged deltas past its checkpoint; keep_checkpoints = 1 lets the
/// run log's GC drop every older recovery root.
constexpr StoreCadence kCadences[] = {{1, 1}, {1, 2}, {2, 1},
                                      {2, 2}, {3, 1}, {3, 2}};

/// Store-backed crash storm: `run(opt)` drives the workload with every
/// instance journaling its run log to a fresh MemVfs, and every crash in
/// `crashes` — at a round boundary or mid-round — is a real power cut
/// (unsynced bytes gone) followed by journal replay. At every cadence the
/// storm's records, final states and streamed traces must be byte-identical
/// to the uninterrupted `want` — the paper's §3 determinism made durable.
template <class X, class Run>
void expect_storm_matches(const WorkloadResult<X>& want,
                          const CrashSchedule& crashes, Run&& run,
                          const std::string& what, std::size_t min_crashes = 1,
                          std::uint64_t key = 0) {
  EXPECT_EQ(want.crashes_injected, 0u) << what;
  const std::size_t count = want.instances.size();
  for (const StoreCadence cadence : kCadences) {
    const std::string at = what + " every " +
                           std::to_string(cadence.snapshot_every) + " keep " +
                           std::to_string(cadence.keep_checkpoints);
    MemVfs vfs;
    DurableStoreOptions store;
    store.vfs = &vfs;
    store.root = "wl";
    store.journal.key = key;
    store.journal.page_size = 256;
    store.keep_checkpoints = cadence.keep_checkpoints;
    WorkloadOptions opt;
    opt.workers = 3;
    opt.snapshot_every = cadence.snapshot_every;
    opt.crashes = &crashes;
    opt.record_traces = true;
    opt.store = &store;
    const WorkloadResult<X> got = run(opt);
    EXPECT_GE(got.crashes_injected, min_crashes) << at;
    if (cadence.snapshot_every == 1) {
      EXPECT_GT(got.snapshots_taken, count) << at;
    }

    ASSERT_EQ(got.instances.size(), count) << at;
    ASSERT_EQ(got.traces.size(), count) << at;
    for (std::size_t k = 0; k < count; ++k) {
      expect_records_equal(got.instances[k].record, want.instances[k].record,
                           at + " instance " + std::to_string(k));
      EXPECT_EQ(got.instances[k].final_states, want.instances[k].final_states)
          << at << " instance " << k;
      // The streamed trace — re-opened across crashes — is byte-identical to
      // one written from the uninterrupted record, and verifies end-to-end.
      EXPECT_EQ(got.traces[k], write_trace(want.instances[k].record,
                                           static_cast<std::uint64_t>(k)))
          << at << " instance " << k;
      const ReplayReport report = replay_verify(got.traces[k]);
      EXPECT_TRUE(report.ok) << at << " instance " << k << ": "
                             << report.summary();
    }
    if (key != 0) {
      // The on-disk journal really is keyed: opening without the key fails.
      try {
        (void)RunLog::open(vfs, "wl/inst-0");
        ADD_FAILURE() << at << ": keyed journal opened without its key";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.kind(), DecodeError::Kind::key_mismatch) << at;
      }
    }
  }
}

/// expect_storm_matches over fixed failure patterns, against the same
/// workload run without crashes.
template <class X, class P>
void expect_static_storm_matches(const X& x, const P& p, int t,
                                 const std::vector<InstanceSpec>& specs,
                                 const CrashSchedule& crashes,
                                 const std::string& what,
                                 std::size_t min_crashes = 1,
                                 std::uint64_t key = 0) {
  WorkloadOptions plain;
  plain.workers = 3;
  expect_storm_matches(
      run_workload(x, p, std::span(specs), t, plain), crashes,
      [&](const WorkloadOptions& opt) {
        return run_workload(x, p, std::span(specs), t, opt);
      },
      what, min_crashes, key);
}

/// Two boundary crashes per instance at seeded rounds.
template <class X, class P>
void expect_boundary_storm_matches(const X& x, const P& p, int t, int count,
                                   std::uint64_t seed,
                                   const std::string& what) {
  Rng rng(seed);
  std::vector<InstanceSpec> specs;
  for (int k = 0; k < count; ++k)
    specs.push_back({sample_adversary(x.n(), t, t + 2, 0.4, rng),
                     sample_preferences(x.n(), rng)});
  expect_static_storm_matches(
      x, p, t, specs, CrashSchedule::seeded(specs.size(), t + 2, seed + 1, 2),
      what);
}

TEST(WorkloadRecoveryTest, BoundaryCrashStormMatchesUninterruptedPMin) {
  expect_boundary_storm_matches(MinExchange(5), PMin(5, 2), 2, 16, 401,
                                "p_min");
}

TEST(WorkloadRecoveryTest, BoundaryCrashStormMatchesUninterruptedPOpt) {
  expect_boundary_storm_matches(FipExchange(4), POpt(4, 2), 2, 8, 402,
                                "p_opt");
}

/// Both crash flavors at once: one boundary crash and two mid-round power
/// cuts per instance.
template <class X, class P>
void expect_mixed_storm_matches(const X& x, const P& p, FailureModel model,
                                int t, int count, std::uint64_t seed,
                                const std::string& what) {
  std::vector<InstanceSpec> specs;
  for (int k = 0; k < count; ++k)
    specs.push_back({seeded_pattern(x.n(), t, model, seed + 7 * k),
                     seeded_prefs(x.n(), seed + 7 * k + 1)});
  CrashSchedule crashes = CrashSchedule::seeded(specs.size(), t + 2, seed + 1);
  crashes.mid_rounds =
      CrashSchedule::seeded_mid_round(specs.size(), t + 2, seed + 2, 2)
          .mid_rounds;
  expect_static_storm_matches(x, p, t, specs, crashes, what,
                              /*min_crashes=*/specs.size() + 1);
}

TEST(DurableWorkloadTest, MixedCrashStormMatchesUninterruptedPMin) {
  expect_mixed_storm_matches(MinExchange(5), PMin(5, 2), FailureModel::sending,
                             2, 10, 601, "p_min");
}

TEST(DurableWorkloadTest, MixedCrashStormMatchesUninterruptedPBasic) {
  expect_mixed_storm_matches(BasicExchange(5), PBasic(5, 2),
                             FailureModel::sending, 2, 8, 602, "p_basic");
}

TEST(DurableWorkloadTest, MixedCrashStormMatchesUninterruptedPOpt) {
  expect_mixed_storm_matches(FipExchange(4), POpt(4, 2),
                             FailureModel::sending, 2, 8, 603, "p_opt");
}

TEST(DurableWorkloadTest, MixedCrashStormMatchesUninterruptedPOptGo) {
  expect_mixed_storm_matches(FipExchange(4), POptGo(4, 2),
                             FailureModel::general, 2, 8, 604, "p_opt_go");
}

TEST(DurableWorkloadTest, KeyedStoreStormStaysDeterministic) {
  // The whole durable path under a nonzero key: journals authenticate
  // every record, traces stay unkeyed (their bytes are pinned), results
  // unchanged.
  const int t = 2;
  std::vector<InstanceSpec> specs;
  for (int k = 0; k < 6; ++k)
    specs.push_back({seeded_pattern(5, t, FailureModel::sending, 701 + k),
                     seeded_prefs(5, 711 + k)});
  expect_static_storm_matches(
      MinExchange(5), PMin(5, t), t, specs,
      CrashSchedule::seeded_mid_round(specs.size(), t + 2, 721, 2), "keyed",
      /*min_crashes=*/1, /*key=*/0xC0FFEEull);
}

TEST(WorkloadRecoveryTest, AdaptiveCrashStormsMatchUninterrupted) {
  // The full stack at once: adaptive strategies choosing drops online, the
  // wire path mirroring them, journaled checkpoints carrying strategy state,
  // write-ahead intents carrying the realized drops, and seeded boundary and
  // mid-round crashes — against per-instance uninterrupted bare runs.
  const int n = 4, t = 2;
  const FipExchange x(n);
  const POptGo p(n, t);

  const int count = 8;
  std::vector<std::vector<Value>> all_prefs;
  Rng rng(501);
  const auto factories = shipped_strategies(n, t, FailureModel::general);
  for (int k = 0; k < count; ++k)
    all_prefs.push_back(sample_preferences(n, rng));
  // Strategies are stateful, so every run gets freshly seeded ones.
  const auto fresh_specs = [&] {
    std::vector<AdaptiveInstanceSpec> specs;
    for (int k = 0; k < count; ++k)
      specs.push_back(
          {factories[static_cast<std::size_t>(k) % factories.size()].make(
               static_cast<std::uint64_t>(k)),
           all_prefs[static_cast<std::size_t>(k)]});
    return specs;
  };
  const auto run = [&](const WorkloadOptions& opt) {
    auto specs = fresh_specs();
    return run_adaptive_workload(x, p, std::span(specs), t, opt);
  };

  WorkloadOptions plain;
  plain.workers = 3;
  const auto want = run(plain);
  for (int k = 0; k < count; ++k) {
    const std::size_t uk = static_cast<std::size_t>(k);
    const auto& factory = factories[uk % factories.size()];
    auto strat = factory.make(static_cast<std::uint64_t>(k));
    expect_records_equal(want.instances[uk].record,
                         run_adaptive(x, p, *strat, all_prefs[uk], t)
                             .summary.record,
                         factory.name + " instance " + std::to_string(k));
  }

  expect_storm_matches(want, CrashSchedule::seeded(count, t + 2, 502, 2), run,
                       "adaptive boundary");
  expect_storm_matches(want,
                       CrashSchedule::seeded_mid_round(count, t + 2, 802, 2),
                       run, "adaptive mid-round");
}

}  // namespace
}  // namespace eba
