// Snapshot/restore for live agreement instances ("EBCK" containers).
//
// `checkpoint_stepper` serializes a Stepper at a round boundary — run
// context, realized failure pattern, the record so far, every agent's
// exchange state, wire accounting, and an opaque adversary-strategy blob —
// into one CRC-guarded container. `restore_stepper` rebuilds an equivalent
// Stepper via the ResumePoint constructor; the restored instance continues
// from the checkpoint round and (by engine determinism) replays the exact
// record an uninterrupted run would have produced, which
// tests/test_recovery.cpp pins record-for-record across every protocol.
//
// Container layout (little-endian, like the EBTR trace format):
//
//   magic "EBCK" · u32 version (=1) · one frame (kind 1, CRC-guarded):
//     u32 n · u32 t · u32 max_rounds · u8 stop_when_all_decided ·
//     u32 time · u64 bits_sent · u64 messages_sent ·
//     pattern · record · n × exchange state ·
//     u32 adversary-state length · adversary-state bytes
//
// The pattern is the pattern AT the checkpoint — for adaptive runs it
// already contains every drop the strategy committed so far, so re-filtering
// the remaining rounds (stepper or bus slot) starts from the right planes.
// The adversary blob is AdversaryStrategy::checkpoint_state(), opaque here;
// the caller rolls the strategy back with restore_state() and reinstalls
// the hook before stepping (store/run_log.hpp's recover_run does this on
// crash recovery).
//
// Invariants enforced on restore (beyond per-codec validation): magic,
// version and frame CRC; record.rounds == time; the context fields match
// the exchange/protocol the caller passes in. Corrupt or truncated
// checkpoints throw DecodeError — never UB, never a half-restored instance.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "net/serialize.hpp"
#include "sim/stepper.hpp"

namespace eba {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;
inline constexpr char kCheckpointMagic[4] = {'E', 'B', 'C', 'K'};

namespace detail {
inline constexpr std::uint8_t kCheckpointFrame = 1;
}  // namespace detail

/// Serializes a stepper's full resume state. Must be called at a round
/// boundary; the stepper itself is not modified.
template <ExchangeProtocol X, class P>
[[nodiscard]] Bytes checkpoint_stepper(const Stepper<X, P>& stepper,
                                       const std::string& adversary_state = {}) {
  EBA_REQUIRE(!stepper.in_round(),
              "checkpoints are cut at round boundaries only");
  Writer w;
  w.u32(static_cast<std::uint32_t>(stepper.n()));
  w.u32(static_cast<std::uint32_t>(stepper.t()));
  w.u32(static_cast<std::uint32_t>(stepper.max_rounds()));
  w.u8(stepper.stop_when_all_decided() ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(stepper.time()));
  w.u64(stepper.bits_sent());
  w.u64(stepper.messages_sent());
  encode_pattern(w, stepper.pattern());
  encode_record(w, stepper.record());
  for (const auto& s : stepper.states()) encode_state(w, s);
  w.u32(static_cast<std::uint32_t>(adversary_state.size()));
  std::copy(adversary_state.begin(), adversary_state.end(),
            w.extend(adversary_state.size()));

  Bytes out;
  write_preamble(out, kCheckpointMagic, kCheckpointFormatVersion);
  write_frame(out, detail::kCheckpointFrame, w.bytes());
  return out;
}

/// Rebuilds a live stepper from checkpoint bytes. `x`/`act` must be the
/// same exchange/protocol the checkpointed instance ran (the context fields
/// are cross-checked). The adversary blob, if any, is handed back through
/// `adversary_state` for the caller to roll its strategy back with before
/// reinstalling the hook. Throws DecodeError on any corruption.
template <ExchangeProtocol X, class P>
[[nodiscard]] Stepper<X, P> restore_stepper(
    const X& x, const P& act, const Bytes& bytes,
    TraceSink<X>* sink = nullptr, std::string* adversary_state = nullptr) {
  using Kind = DecodeError::Kind;
  if (bytes.size() < 8)
    throw DecodeError(Kind::truncated, "checkpoint shorter than its preamble");
  for (std::size_t k = 0; k < 4; ++k)
    if (bytes[k] != static_cast<std::uint8_t>(kCheckpointMagic[k]))
      throw DecodeError(Kind::bad_magic, "not an EBCK checkpoint container");
  const auto version =
      static_cast<std::uint32_t>(detail::load_le(bytes.data() + 4, 4));
  if (version != kCheckpointFormatVersion)
    throw DecodeError(Kind::bad_version,
                      "checkpoint version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kCheckpointFormatVersion) + ")");
  std::size_t pos = 8;
  const Frame frame = read_frame(bytes, pos);
  if (frame.kind != detail::kCheckpointFrame)
    throw DecodeError(Kind::malformed, "unexpected checkpoint frame kind");
  if (pos != bytes.size())
    throw DecodeError(Kind::trailing, "bytes after the checkpoint frame");

  Reader r(frame.payload);
  const int n = static_cast<int>(r.u32());
  const int t = static_cast<int>(r.u32());
  const int max_rounds = static_cast<int>(r.u32());
  const std::uint8_t stop_tag = r.u8();
  if (stop_tag > 1)
    throw DecodeError(Kind::malformed, "bad stop-when-all-decided tag");
  const int time = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents) || t < 0 || t >= n || max_rounds < 1 ||
      time < 0 || time > max_rounds)
    throw DecodeError(Kind::malformed, "bad checkpoint context fields");
  if (n != x.n())
    throw DecodeError(Kind::malformed,
                      "checkpoint agent count does not match the exchange");

  ResumePoint<X> resume;
  resume.time = time;
  resume.bits_sent = r.u64();
  resume.messages_sent = r.u64();
  FailurePattern alpha = decode_pattern(r);
  if (alpha.n() != n)
    throw DecodeError(Kind::malformed,
                      "checkpoint pattern agent count mismatch");
  resume.record = decode_record(r);
  if (resume.record.n != n || resume.record.t != t ||
      resume.record.rounds != time)
    throw DecodeError(Kind::malformed,
                      "checkpoint record does not match its context");
  resume.states.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) {
    // Seed with a throwaway initial state (not every State type is
    // default-constructible); decode_state overwrites every semantic field.
    typename X::State s = x.initial_state(i, Value::zero);
    decode_state(r, s);
    resume.states.push_back(std::move(s));
  }
  const std::uint32_t blob_len = r.u32();
  const std::uint8_t* blob_bytes = r.take(blob_len);
  std::string blob(blob_bytes, blob_bytes + blob_len);
  if (!r.exhausted())
    throw DecodeError(Kind::trailing,
                      "checkpoint frame has unconsumed bytes");
  if (adversary_state) *adversary_state = std::move(blob);

  StepperOptions opt;
  opt.max_rounds = max_rounds;
  opt.stop_when_all_decided = stop_tag != 0;
  return Stepper<X, P>(x, act, std::move(alpha), std::move(resume), t, opt,
                       sink);
}

}  // namespace eba
