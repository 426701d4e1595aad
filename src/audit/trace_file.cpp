#include "audit/trace_file.hpp"

#include "audit/digest.hpp"

namespace eba {
namespace {

using Kind = DecodeError::Kind;

constexpr std::uint8_t kFrameHeader = 1;
constexpr std::uint8_t kFrameRound = 2;
constexpr std::uint8_t kFrameCertificate = 3;

}  // namespace

TraceWriter::TraceWriter(std::uint64_t instance_id, int n, int t,
                         AgentSet nonfaulty, const std::vector<Value>& inits,
                         std::uint64_t key)
    : n_(n) {
  EBA_REQUIRE(n >= 1 && n <= kMaxAgents, "trace agent count out of range");
  EBA_REQUIRE(static_cast<int>(inits.size()) == n, "trace inits size mismatch");
  write_preamble(out_, kTraceMagic,
                 key == 0 ? kTraceFormatVersion : kTraceFormatVersionKeyed);

  Writer w;
  w.u64(instance_id);
  w.u32(static_cast<std::uint32_t>(n));
  w.u32(static_cast<std::uint32_t>(t));
  w.word(nonfaulty.bits(), (n + 7) / 8);
  for (Value init : inits) w.u8(static_cast<std::uint8_t>(to_int(init)));
  if (key != 0) w.u64(KeyedDigest64::key_check_word(key));
  write_frame(out_, kFrameHeader, w.take());
}

void TraceWriter::add_round(const std::vector<Action>& actions,
                            const std::vector<AgentSet>& sent,
                            const std::vector<AgentSet>& delivered) {
  EBA_REQUIRE(static_cast<int>(actions.size()) == n_ &&
                  static_cast<int>(sent.size()) == n_ &&
                  static_cast<int>(delivered.size()) == n_,
              "round planes must cover every agent");
  const int row_bytes = (n_ + 7) / 8;
  Writer w;
  w.reserve(4 + static_cast<std::size_t>(n_ * (1 + 2 * row_bytes)));
  w.u32(static_cast<std::uint32_t>(rounds_ + 1));
  for (const Action& a : actions) w.u8(action_byte(a));
  for (const AgentSet& s : sent) w.word(s.bits(), row_bytes);
  for (const AgentSet& s : delivered) w.word(s.bits(), row_bytes);
  write_frame(out_, kFrameRound, w.take());
  rounds_ += 1;
}

void TraceWriter::add_record_rounds(const RunRecord& record, int from_round) {
  EBA_REQUIRE(record.n == n_, "record/trace agent count mismatch");
  EBA_REQUIRE(from_round == rounds_,
              "record rounds must continue the stream without a gap");
  for (int m = from_round; m < record.rounds; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    add_round(record.actions[um], record.sent[um], record.delivered[um]);
  }
}

Bytes TraceWriter::finish(const DecisionCertificate& cert) {
  EBA_REQUIRE(cert.rounds == rounds_,
              "certificate must cover exactly the written rounds");
  Writer w;
  encode_certificate(w, cert);
  write_frame(out_, kFrameCertificate, w.take());
  return std::move(out_);
}

Bytes write_trace(const RunRecord& record, std::uint64_t instance_id,
                  std::uint64_t key) {
  TraceWriter writer(instance_id, record.n, record.t, record.nonfaulty,
                     record.inits, key);
  writer.add_record_rounds(record);
  return writer.finish(build_certificate(record, instance_id, key));
}

TraceFile read_trace(const Bytes& bytes, std::uint64_t key) {
  const std::uint32_t version = read_preamble(
      bytes, kTraceMagic, {kTraceFormatVersion, kTraceFormatVersionKeyed});
  if (version == kTraceFormatVersion && key != 0)
    throw DecodeError(Kind::key_mismatch,
                      "a key was supplied but the trace is unkeyed");
  if (version == kTraceFormatVersionKeyed && key == 0)
    throw DecodeError(Kind::key_mismatch,
                      "the trace is keyed but no key was supplied");

  TraceFile trace;
  trace.version = version;
  std::size_t pos = 8;
  bool have_header = false;
  bool have_certificate = false;
  int row_bytes = 0;
  std::uint64_t full = 0;

  while (pos < bytes.size()) {
    if (have_certificate)
      throw DecodeError(Kind::trailing,
                        "frames after the certificate terminator");
    const Frame frame = read_frame(bytes, pos);
    Reader r(frame.payload);
    switch (frame.kind) {
      case kFrameHeader: {
        if (have_header)
          throw DecodeError(Kind::malformed, "duplicate header frame");
        trace.instance_id = r.u64();
        trace.record.n = static_cast<int>(r.u32());
        trace.record.t = static_cast<int>(r.u32());
        if (!(trace.record.n >= 1 && trace.record.n <= kMaxAgents) ||
            trace.record.t < 0 || trace.record.t >= trace.record.n)
          throw DecodeError(Kind::malformed, "bad trace header (n, t)");
        row_bytes = (trace.record.n + 7) / 8;
        full = AgentSet::all(trace.record.n).bits();
        const std::uint64_t nonfaulty = r.word(row_bytes);
        if ((nonfaulty & ~full) != 0)
          throw DecodeError(Kind::malformed,
                            "nonfaulty set outside the population");
        trace.record.nonfaulty = AgentSet(nonfaulty);
        for (int i = 0; i < trace.record.n; ++i) {
          const std::uint8_t b = r.u8();
          if (b > 1) throw DecodeError(Kind::malformed, "bad init byte");
          trace.record.inits.push_back(value_of(b));
        }
        if (version == kTraceFormatVersionKeyed &&
            r.u64() != KeyedDigest64::key_check_word(key))
          throw DecodeError(Kind::key_mismatch,
                            "trace was written under a different key");
        have_header = true;
        break;
      }
      case kFrameRound: {
        if (!have_header)
          throw DecodeError(Kind::missing_frame,
                            "round frame before the header");
        const int round = static_cast<int>(r.u32());
        if (round != trace.record.rounds + 1)
          throw DecodeError(Kind::malformed,
                            "round frames out of order at round " +
                                std::to_string(round));
        const int n = trace.record.n;
        std::vector<Action> actions;
        actions.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) actions.push_back(action_of(r.u8()));
        std::vector<AgentSet> sent;
        sent.reserve(static_cast<std::size_t>(n));
        for (AgentId i = 0; i < n; ++i) {
          const std::uint64_t row = r.word(row_bytes);
          if ((row & ~full) != 0 || (row >> i) & 1u)
            throw DecodeError(Kind::malformed,
                              "sent row outside the population");
          sent.push_back(AgentSet(row));
        }
        std::vector<AgentSet> delivered;
        delivered.reserve(static_cast<std::size_t>(n));
        for (AgentId i = 0; i < n; ++i) {
          const std::uint64_t row = r.word(row_bytes);
          if ((row & ~sent[static_cast<std::size_t>(i)].bits()) != 0)
            throw DecodeError(Kind::malformed,
                              "delivered row not a subset of sent");
          delivered.push_back(AgentSet(row));
        }
        trace.record.actions.push_back(std::move(actions));
        trace.record.sent.push_back(std::move(sent));
        trace.record.delivered.push_back(std::move(delivered));
        trace.record.rounds += 1;
        break;
      }
      case kFrameCertificate: {
        if (!have_header)
          throw DecodeError(Kind::missing_frame,
                            "certificate frame before the header");
        trace.certificate = decode_certificate(r);
        have_certificate = true;
        break;
      }
      default:
        throw DecodeError(Kind::malformed,
                          "unknown frame kind " + std::to_string(frame.kind));
    }
    if (!r.exhausted())
      throw DecodeError(Kind::trailing, "frame payload has unconsumed bytes");
  }
  if (!have_header)
    throw DecodeError(Kind::missing_frame, "trace has no header frame");
  if (!have_certificate)
    throw DecodeError(Kind::missing_frame,
                      "trace has no certificate terminator (writer crashed "
                      "mid-run or the file was cut)");
  return trace;
}

std::string ReplayReport::summary() const {
  if (!parsed) return "REJECTED: " + error;
  std::string s = ok ? "OK" : "FAILED";
  s += ": version " + std::to_string(version) + ", instance " +
       std::to_string(instance_id) + ", " + std::to_string(rounds) +
       " rounds, certificate " + (cert_ok ? "valid" : "INVALID");
  if (complete)
    s += ", spec " + std::string(spec.ok() ? "holds" : "VIOLATED");
  else
    s += ", run truncated (no decision claimed)";
  for (const std::string& e : cert_errors) s += "\n  - " + e;
  for (const std::string& v : spec.violations) s += "\n  - spec: " + v;
  return s;
}

ReplayReport replay_verify(const Bytes& bytes, std::uint64_t key) {
  ReplayReport report;
  TraceFile trace;
  try {
    trace = read_trace(bytes, key);
  } catch (const DecodeError& e) {
    report.error = e.what();
    return report;
  }
  report.parsed = true;
  report.version = trace.version;
  report.instance_id = trace.instance_id;
  report.rounds = trace.record.rounds;

  const CertificateCheck check =
      verify_certificate(trace.certificate, trace.record, key);
  report.cert_ok = check.ok;
  report.cert_errors = check.errors;
  report.complete = trace.certificate.decided_value.has_value();
  report.spec = check_eba(trace.record);
  report.ok = report.cert_ok && (!report.complete || report.spec.ok());
  return report;
}

}  // namespace eba
