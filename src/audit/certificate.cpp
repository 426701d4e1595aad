#include "audit/certificate.hpp"

#include <algorithm>

#include "audit/digest.hpp"

namespace eba {
namespace {

std::uint64_t header_digest_of(const RunRecord& record, std::uint64_t key) {
  KeyedDigest64 d(key);
  d.u32(static_cast<std::uint32_t>(record.n));
  d.u32(static_cast<std::uint32_t>(record.t));
  d.word(record.nonfaulty);
  for (Value v : record.inits) d.u8(static_cast<std::uint8_t>(to_int(v)));
  return d.value();
}

std::uint64_t pattern_digest_of(const RunRecord& record, std::uint64_t key) {
  KeyedDigest64 d(key);
  d.word(record.nonfaulty);
  for (int m = 0; m < record.rounds; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    for (AgentId i = 0; i < record.n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      d.word(record.sent[um][ui].minus(record.delivered[um][ui]));
    }
  }
  return d.value();
}

std::uint64_t round_digest_of(const RunRecord& record, int m,
                              std::uint64_t key) {
  const std::size_t um = static_cast<std::size_t>(m);
  KeyedDigest64 d(key);
  d.u32(static_cast<std::uint32_t>(m + 1));
  for (AgentId i = 0; i < record.n; ++i)
    d.u8(action_byte(record.actions[um][static_cast<std::size_t>(i)]));
  for (AgentId i = 0; i < record.n; ++i)
    d.word(record.sent[um][static_cast<std::size_t>(i)]);
  for (AgentId i = 0; i < record.n; ++i)
    d.word(record.delivered[um][static_cast<std::size_t>(i)]);
  return d.value();
}

std::uint64_t final_digest_of(const DecisionCertificate& cert,
                              std::uint64_t key) {
  KeyedDigest64 d(key);
  d.u64(cert.instance_id);
  d.u64(cert.pattern_digest);
  d.u64(cert.evidence.empty() ? cert.header_digest
                              : cert.evidence.back().chain);
  d.u8(cert.decided_value
           ? (*cert.decided_value == Value::zero ? 1 : 2)
           : 0);
  d.u32(static_cast<std::uint32_t>(cert.decided_round));
  return d.value();
}

}  // namespace

DecisionCertificate build_certificate(const RunRecord& record,
                                      std::uint64_t instance_id,
                                      std::uint64_t key) {
  EBA_REQUIRE(record.n >= 1, "certificate over an empty record");
  DecisionCertificate cert;
  cert.instance_id = instance_id;
  cert.n = record.n;
  cert.t = record.t;
  cert.rounds = record.rounds;
  cert.header_digest = header_digest_of(record, key);
  cert.pattern_digest = pattern_digest_of(record, key);

  std::uint64_t chain = cert.header_digest;
  cert.evidence.reserve(static_cast<std::size_t>(record.rounds));
  for (int m = 0; m < record.rounds; ++m) {
    RoundEvidence link;
    link.round = m + 1;
    link.evidence_digest = round_digest_of(record, m, key);
    chain = KeyedDigest64::chain(key, chain,
                                 static_cast<std::uint64_t>(link.round),
                                 link.evidence_digest);
    link.chain = chain;
    cert.evidence.push_back(link);
  }

  // Decision summary: set only when every nonfaulty agent decided and all
  // nonfaulty decisions agree — the certificate never claims a decision a
  // truncated or violating run did not reach.
  std::optional<Value> value;
  bool unanimous = true;
  bool all_decided = true;
  int last_round = -1;
  for (AgentId i : record.nonfaulty) {
    const std::optional<Decision> d = record.decision(i);
    if (!d) {
      all_decided = false;
      continue;
    }
    if (value && *value != d->value) unanimous = false;
    if (!value) value = d->value;
    if (d->round > last_round) last_round = d->round;
  }
  if (all_decided && unanimous && value) {
    cert.decided_value = value;
    cert.decided_round = last_round;
  }
  cert.final_digest = final_digest_of(cert, key);
  return cert;
}

CertificateCheck verify_certificate(const DecisionCertificate& cert,
                                    const RunRecord& record,
                                    std::uint64_t key) {
  CertificateCheck check;
  auto fail = [&check](std::string msg) {
    check.ok = false;
    check.errors.push_back(std::move(msg));
  };

  const DecisionCertificate want =
      build_certificate(record, cert.instance_id, key);
  if (cert.n != want.n || cert.t != want.t || cert.rounds != want.rounds)
    fail("certificate header (n, t, rounds) does not match the record");
  if (cert.header_digest != want.header_digest)
    fail("header digest mismatch: inits or nonfaulty set were altered");
  if (cert.pattern_digest != want.pattern_digest)
    fail("pattern digest mismatch: realized omissions were altered");
  const std::size_t links =
      std::min(cert.evidence.size(), want.evidence.size());
  if (cert.evidence.size() != want.evidence.size())
    fail("evidence chain length " + std::to_string(cert.evidence.size()) +
         " does not cover the record's " +
         std::to_string(want.evidence.size()) + " rounds");
  for (std::size_t k = 0; k < links; ++k) {
    if (cert.evidence[k] == want.evidence[k]) continue;
    fail("evidence chain diverges at round " +
         std::to_string(want.evidence[k].round));
    break;  // every later link differs by construction; one message suffices
  }
  if (cert.decided_value != want.decided_value ||
      cert.decided_round != want.decided_round)
    fail("decision summary does not match the replayed record");
  if (cert.final_digest != want.final_digest)
    fail("final digest mismatch");
  return check;
}

void encode_certificate(Writer& w, const DecisionCertificate& cert) {
  w.u64(cert.instance_id);
  w.u32(static_cast<std::uint32_t>(cert.n));
  w.u32(static_cast<std::uint32_t>(cert.t));
  w.u32(static_cast<std::uint32_t>(cert.rounds));
  w.u64(cert.header_digest);
  w.u64(cert.pattern_digest);
  w.u32(static_cast<std::uint32_t>(cert.evidence.size()));
  for (const RoundEvidence& link : cert.evidence) {
    w.u32(static_cast<std::uint32_t>(link.round));
    w.u64(link.evidence_digest);
    w.u64(link.chain);
  }
  w.u8(cert.decided_value
           ? (*cert.decided_value == Value::zero ? 1 : 2)
           : 0);
  w.u32(static_cast<std::uint32_t>(cert.decided_round));
  w.u64(cert.final_digest);
}

DecisionCertificate decode_certificate(Reader& r) {
  using Kind = DecodeError::Kind;
  DecisionCertificate cert;
  cert.instance_id = r.u64();
  cert.n = static_cast<int>(r.u32());
  cert.t = static_cast<int>(r.u32());
  cert.rounds = static_cast<int>(r.u32());
  if (!(cert.n >= 1 && cert.n <= kMaxAgents) || cert.t < 0 ||
      cert.t >= cert.n || cert.rounds < 0 || cert.rounds > 4096)
    throw DecodeError(Kind::malformed, "bad certificate header");
  cert.header_digest = r.u64();
  cert.pattern_digest = r.u64();
  const std::uint32_t links = r.u32();
  if (links != static_cast<std::uint32_t>(cert.rounds))
    throw DecodeError(Kind::malformed,
                      "certificate chain length disagrees with its rounds");
  cert.evidence.reserve(links);
  for (std::uint32_t k = 0; k < links; ++k) {
    RoundEvidence link;
    link.round = static_cast<int>(r.u32());
    if (link.round != static_cast<int>(k) + 1)
      throw DecodeError(Kind::malformed, "certificate chain rounds not 1..R");
    link.evidence_digest = r.u64();
    link.chain = r.u64();
    cert.evidence.push_back(link);
  }
  const std::uint8_t tag = r.u8();
  if (tag > 2) throw DecodeError(Kind::malformed, "bad decided-value tag");
  if (tag != 0) cert.decided_value = tag == 1 ? Value::zero : Value::one;
  cert.decided_round = static_cast<int>(r.u32());
  if (tag == 0 && cert.decided_round != -1)
    throw DecodeError(Kind::malformed,
                      "undecided certificate carries a decision round");
  if (tag != 0 && !(cert.decided_round >= 1 && cert.decided_round <= cert.rounds))
    throw DecodeError(Kind::malformed, "decision round outside the run");
  cert.final_digest = r.u64();
  return cert;
}

}  // namespace eba
