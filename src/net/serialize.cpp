#include "net/serialize.hpp"

#include <array>

namespace eba {

namespace {

using Kind = DecodeError::Kind;

[[noreturn]] void reject(Kind kind, const std::string& what) {
  throw DecodeError(kind, what);
}

/// Decoded optional<Value> tag: 0 = unset, 1 = zero, 2 = one.
std::uint8_t opt_value_tag(const std::optional<Value>& v) {
  if (!v) return 0;
  return *v == Value::zero ? 1 : 2;
}

std::optional<Value> opt_value_of(std::uint8_t tag, const char* field) {
  switch (tag) {
    case 0: return std::nullopt;
    case 1: return Value::zero;
    case 2: return Value::one;
    default: reject(Kind::malformed, std::string("bad ") + field + " tag");
  }
}

}  // namespace

void Writer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

std::uint8_t Reader::u8() {
  if (pos_ >= data_.size())
    reject(Kind::truncated, "payload ended at byte " + std::to_string(pos_));
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8)
    v |= static_cast<std::uint32_t>(u8()) << shift;
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(u8()) << shift;
  return v;
}

void Writer::word(std::uint64_t v, int nbytes) {
  for (int b = 0; b < nbytes; ++b)
    out_.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xffu));
}

std::uint64_t Reader::word(int nbytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < nbytes; ++b)
    v |= static_cast<std::uint64_t>(u8()) << (8 * b);
  return v;
}

// -- CRC32 and frames --------------------------------------------------------

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

void write_frame(Bytes& out, std::uint8_t kind, const Bytes& payload) {
  const std::size_t start = out.size();
  Writer w;
  w.u8(kind);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  const Bytes head = w.take();
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32(out.data() + start, out.size() - start);
  Writer tail;
  tail.u32(crc);
  const Bytes t = tail.take();
  out.insert(out.end(), t.begin(), t.end());
}

Frame read_frame(const Bytes& buf, std::size_t& pos) {
  if (buf.size() - pos < 5)
    reject(Kind::truncated, "frame header ends at byte " + std::to_string(pos));
  const std::size_t start = pos;
  const std::uint8_t kind = buf[pos];
  std::uint32_t len = 0;
  for (int b = 0; b < 4; ++b)
    len |= static_cast<std::uint32_t>(buf[pos + 1 + static_cast<std::size_t>(b)])
           << (8 * b);
  pos += 5;
  if (buf.size() - pos < static_cast<std::size_t>(len) + 4)
    reject(Kind::truncated,
           "frame payload of " + std::to_string(len) + " bytes ends at byte " +
               std::to_string(buf.size()));
  Frame f;
  f.kind = kind;
  f.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                   buf.begin() + static_cast<std::ptrdiff_t>(pos + len));
  pos += len;
  const std::uint32_t want = crc32(buf.data() + start, 5 + len);
  std::uint32_t got = 0;
  for (int b = 0; b < 4; ++b)
    got |= static_cast<std::uint32_t>(buf[pos + static_cast<std::size_t>(b)])
           << (8 * b);
  pos += 4;
  if (got != want)
    reject(Kind::crc_mismatch, "frame kind " + std::to_string(kind) +
                                   " at byte " + std::to_string(start));
  return f;
}

// -- Message codecs ----------------------------------------------------------

void encode_message(Writer& w, Value m) {
  w.u8(static_cast<std::uint8_t>(to_int(m)));
}
void decode_message(Reader& r, Value& m) {
  const std::uint8_t b = r.u8();
  if (b > 1) reject(Kind::malformed, "bad Value byte");
  m = value_of(b);
}

void encode_message(Writer& w, BasicMsg m) {
  w.u8(static_cast<std::uint8_t>(m));
}
void decode_message(Reader& r, BasicMsg& m) {
  const std::uint8_t b = r.u8();
  if (b > static_cast<std::uint8_t>(BasicMsg::init1))
    reject(Kind::malformed, "bad BasicMsg byte");
  m = static_cast<BasicMsg>(b);
}

void encode_message(Writer& w, RelayMsg m) {
  w.u8(static_cast<std::uint8_t>(m));
}
void decode_message(Reader& r, RelayMsg& m) {
  const std::uint8_t b = r.u8();
  if (b > static_cast<std::uint8_t>(RelayMsg::relay0))
    reject(Kind::malformed, "bad RelayMsg byte");
  m = static_cast<RelayMsg>(b);
}

void encode_message(Writer& w, const ReportMsg& m) {
  w.u8(opt_value_tag(m.fresh_decide));
  w.u8(opt_value_tag(m.decided_ever));
  w.u64(m.zeros.bits());
  w.u64(m.faults.bits());
}
void decode_message(Reader& r, ReportMsg& m) {
  m.fresh_decide = opt_value_of(r.u8(), "fresh_decide");
  m.decided_ever = opt_value_of(r.u8(), "decided_ever");
  m.zeros = AgentSet(r.u64());
  m.faults = AgentSet(r.u64());
  // A fresh decision is sticky by construction; a payload claiming a fresh
  // decide without the matching decided_ever never left a real µ.
  if (m.fresh_decide && m.decided_ever != m.fresh_decide)
    reject(Kind::malformed, "fresh_decide without matching decided_ever");
}

void encode_message(Writer& w, const AuthMsg& m) {
  encode_message(w, m.payload);
  w.u64(m.sig);
}
void decode_message(Reader& r, AuthMsg& m) {
  decode_message(r, m.payload);
  m.sig = r.u64();
}

std::size_t encoded_size(const CommGraph& g) {
  const auto row_bytes = static_cast<std::size_t>((g.n() + 7) / 8);
  return 8 + 2 * static_cast<std::size_t>(g.time()) *
                 static_cast<std::size_t>(g.n()) * row_bytes +
         2 * row_bytes;
}

// Packed graph payload: header (n, time), then for each receiver row in
// round-major order the known and value planes as ceil(n/8)-byte words, then
// the two preference plane words. This ships the in-memory representation
// directly — 2 bits per edge on the wire, matching bit_size()'s Prop 8.1
// accounting — instead of the old byte-per-label walk.
void encode_graph(Writer& w, const CommGraph& g) {
  const int row_bytes = (g.n() + 7) / 8;
  w.u32(static_cast<std::uint32_t>(g.n()));
  w.u32(static_cast<std::uint32_t>(g.time()));
  for (int m = 0; m < g.time(); ++m)
    for (AgentId to = 0; to < g.n(); ++to) {
      w.word(g.known_senders(m, to).bits(), row_bytes);
      w.word(g.present_senders(m, to).bits(), row_bytes);
    }
  w.word(g.known_prefs().bits(), row_bytes);
  w.word(g.one_prefs().bits(), row_bytes);
}

CommGraph decode_graph(Reader& r) {
  const int n = static_cast<int>(r.u32());
  const int time = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents && time >= 0 && time <= 4096))
    reject(Kind::malformed, "bad graph header (n=" + std::to_string(n) +
                                ", time=" + std::to_string(time) + ")");
  const int row_bytes = (n + 7) / 8;
  const std::uint64_t full = AgentSet::all(n).bits();
  CommGraph g = CommGraph::blank(n, time);
  for (int m = 0; m < time; ++m)
    for (AgentId to = 0; to < n; ++to) {
      const std::uint64_t known = r.word(row_bytes);
      const std::uint64_t value = r.word(row_bytes);
      if ((known & ~full) != 0 || (value & ~known) != 0)
        reject(Kind::malformed, "bad label row");
      g.set_row(m, to, AgentSet(known), AgentSet(value));
    }
  const std::uint64_t pk = r.word(row_bytes);
  const std::uint64_t pv = r.word(row_bytes);
  if ((pk & ~full) != 0 || (pv & ~pk) != 0)
    reject(Kind::malformed, "bad pref rows");
  for (AgentId j : AgentSet(pk))
    g.set_pref(j, (pv >> j) & 1u ? PrefLabel::one : PrefLabel::zero);
  return g;
}

void encode_message(Writer& w, const std::shared_ptr<const CommGraph>& m) {
  EBA_REQUIRE(m != nullptr, "null graph message");
  encode_graph(w, *m);
}
void decode_message(Reader& r, std::shared_ptr<const CommGraph>& m) {
  m = std::make_shared<const CommGraph>(decode_graph(r));
}

// -- Failure patterns and run records ----------------------------------------

void encode_pattern(Writer& w, const FailurePattern& alpha) {
  const int n = alpha.n();
  const int row_bytes = (n + 7) / 8;
  w.u32(static_cast<std::uint32_t>(n));
  w.word(alpha.nonfaulty().bits(), row_bytes);
  w.u32(static_cast<std::uint32_t>(alpha.recorded_rounds()));
  for (int m = 0; m < alpha.recorded_rounds(); ++m)
    for (AgentId from = 0; from < n; ++from)
      w.word(alpha.dropped(m, from).bits(), row_bytes);
  w.u32(static_cast<std::uint32_t>(alpha.recorded_receive_rounds()));
  for (int m = 0; m < alpha.recorded_receive_rounds(); ++m)
    for (AgentId to = 0; to < n; ++to)
      w.word(alpha.dropped_receive(m, to).bits(), row_bytes);
}

FailurePattern decode_pattern(Reader& r) {
  const int n = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents))
    reject(Kind::malformed, "bad pattern agent count " + std::to_string(n));
  const int row_bytes = (n + 7) / 8;
  const std::uint64_t full = AgentSet::all(n).bits();
  const std::uint64_t nonfaulty = r.word(row_bytes);
  if ((nonfaulty & ~full) != 0)
    reject(Kind::malformed, "nonfaulty set outside the population");
  FailurePattern alpha(n, AgentSet(nonfaulty));

  const int send_rounds = static_cast<int>(r.u32());
  if (send_rounds < 0 || send_rounds > 4096)
    reject(Kind::malformed, "bad send-plane round count");
  for (int m = 0; m < send_rounds; ++m)
    for (AgentId from = 0; from < n; ++from) {
      const std::uint64_t row = r.word(row_bytes);
      if (row == 0) continue;
      if ((row & ~full) != 0 || (row >> from) & 1u)
        reject(Kind::malformed, "send-drop row outside the population");
      if (alpha.nonfaulty().contains(from))
        reject(Kind::malformed, "send drops from a nonfaulty sender");
      for (AgentId to : AgentSet(row)) alpha.drop(m, from, to);
    }

  const int recv_rounds = static_cast<int>(r.u32());
  if (recv_rounds < 0 || recv_rounds > 4096)
    reject(Kind::malformed, "bad receive-plane round count");
  for (int m = 0; m < recv_rounds; ++m)
    for (AgentId to = 0; to < n; ++to) {
      const std::uint64_t row = r.word(row_bytes);
      if (row == 0) continue;
      if ((row & ~full) != 0 || (row >> to) & 1u)
        reject(Kind::malformed, "receive-drop row outside the population");
      if (alpha.nonfaulty().contains(to))
        reject(Kind::malformed, "receive drops at a nonfaulty receiver");
      for (AgentId from : AgentSet(row)) alpha.drop_receive(m, from, to);
    }
  return alpha;
}

namespace {

std::uint8_t action_byte(const Action& a) {
  if (!a.is_decide()) return 0;
  return a.value() == Value::zero ? 1 : 2;
}

Action action_of(std::uint8_t b) {
  switch (b) {
    case 0: return Action::noop();
    case 1: return Action::decide(Value::zero);
    case 2: return Action::decide(Value::one);
    default: reject(Kind::malformed, "bad action byte");
  }
}

}  // namespace

void encode_record(Writer& w, const RunRecord& record) {
  const int n = record.n;
  const int row_bytes = (n + 7) / 8;
  w.u32(static_cast<std::uint32_t>(n));
  w.u32(static_cast<std::uint32_t>(record.t));
  w.u32(static_cast<std::uint32_t>(record.rounds));
  w.word(record.nonfaulty.bits(), row_bytes);
  for (Value v : record.inits) w.u8(static_cast<std::uint8_t>(to_int(v)));
  for (int m = 0; m < record.rounds; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    for (AgentId i = 0; i < n; ++i)
      w.u8(action_byte(record.actions[um][static_cast<std::size_t>(i)]));
    for (AgentId i = 0; i < n; ++i)
      w.word(record.sent[um][static_cast<std::size_t>(i)].bits(), row_bytes);
    for (AgentId i = 0; i < n; ++i)
      w.word(record.delivered[um][static_cast<std::size_t>(i)].bits(),
             row_bytes);
  }
}

RunRecord decode_record(Reader& r) {
  RunRecord record;
  record.n = static_cast<int>(r.u32());
  record.t = static_cast<int>(r.u32());
  record.rounds = static_cast<int>(r.u32());
  if (!(record.n >= 1 && record.n <= kMaxAgents))
    reject(Kind::malformed, "bad record agent count");
  if (!(record.t >= 0 && record.t < record.n))
    reject(Kind::malformed, "bad record failure bound");
  if (!(record.rounds >= 0 && record.rounds <= 4096))
    reject(Kind::malformed, "bad record round count");
  const int n = record.n;
  const int row_bytes = (n + 7) / 8;
  const std::uint64_t full = AgentSet::all(n).bits();
  const std::uint64_t nonfaulty = r.word(row_bytes);
  if ((nonfaulty & ~full) != 0)
    reject(Kind::malformed, "record nonfaulty set outside the population");
  record.nonfaulty = AgentSet(nonfaulty);
  record.inits.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) {
    const std::uint8_t b = r.u8();
    if (b > 1) reject(Kind::malformed, "bad init byte");
    record.inits.push_back(value_of(b));
  }
  record.actions.reserve(static_cast<std::size_t>(record.rounds));
  record.sent.reserve(static_cast<std::size_t>(record.rounds));
  record.delivered.reserve(static_cast<std::size_t>(record.rounds));
  for (int m = 0; m < record.rounds; ++m) {
    std::vector<Action> actions;
    actions.reserve(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) actions.push_back(action_of(r.u8()));
    std::vector<AgentSet> sent;
    sent.reserve(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) {
      const std::uint64_t row = r.word(row_bytes);
      if ((row & ~full) != 0 || (row >> i) & 1u)
        reject(Kind::malformed, "sent row outside the population");
      sent.push_back(AgentSet(row));
    }
    std::vector<AgentSet> delivered;
    delivered.reserve(static_cast<std::size_t>(n));
    for (AgentId i = 0; i < n; ++i) {
      const std::uint64_t row = r.word(row_bytes);
      if ((row & ~sent[static_cast<std::size_t>(i)].bits()) != 0)
        reject(Kind::malformed, "delivered row not a subset of sent");
      delivered.push_back(AgentSet(row));
    }
    record.actions.push_back(std::move(actions));
    record.sent.push_back(std::move(sent));
    record.delivered.push_back(std::move(delivered));
  }
  return record;
}

// -- Exchange-state codecs ---------------------------------------------------

void encode_state(Writer& w, const MinState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
}

void decode_state(Reader& r, MinState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
}

void encode_state(Writer& w, const BasicState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
  w.u32(static_cast<std::uint32_t>(s.ones));
}

void decode_state(Reader& r, BasicState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
  s.ones = static_cast<int>(r.u32());
  if (s.ones < 0 || s.ones > kMaxAgents)
    reject(Kind::malformed, "bad ones count");
}

void encode_state(Writer& w, const FipState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(s.self));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  encode_graph(w, s.graph);
}

void decode_state(Reader& r, FipState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t self = r.u8();
  if (self >= kMaxAgents) reject(Kind::malformed, "bad state agent id");
  s.self = static_cast<AgentId>(self);
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.graph = decode_graph(r);
  // Derived caches restart empty; they are keyed on the graph and refill
  // lazily with identical contents (excluded from state equality).
  s.inferred = {};
  s.knowledge = {};
}

void encode_state(Writer& w, const RelayState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
  w.u8(s.knows0 ? 1 : 0);
}

void decode_state(Reader& r, RelayState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
  const std::uint8_t knows0 = r.u8();
  if (knows0 > 1) reject(Kind::malformed, "bad knows0 byte");
  s.knows0 = knows0 != 0;
}

namespace {

void encode_report_core(Writer& w, const ReportState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
  w.u64(s.zeros.bits());
  w.u64(s.faults.bits());
  w.u8(s.budget_common ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.ones));
}

void decode_report_core(Reader& r, ReportState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
  s.zeros = AgentSet(r.u64());
  s.faults = AgentSet(r.u64());
  const std::uint8_t budget = r.u8();
  if (budget > 1) reject(Kind::malformed, "bad budget_common byte");
  s.budget_common = budget != 0;
  const std::uint8_t ones = r.u8();
  if (ones > kMaxAgents) reject(Kind::malformed, "bad ones count");
  s.ones = ones;
}

}  // namespace

void encode_state(Writer& w, const ReportState& s) {
  encode_report_core(w, s);
}

void decode_state(Reader& r, ReportState& s) { decode_report_core(r, s); }

void encode_state(Writer& w, const AuthState& s) {
  // AuthState is ReportState's evidence plus the agent's own id.
  encode_report_core(w, ReportState{.time = s.time,
                                    .init = s.init,
                                    .decided = s.decided,
                                    .jd = s.jd,
                                    .zeros = s.zeros,
                                    .faults = s.faults,
                                    .budget_common = s.budget_common,
                                    .ones = s.ones});
  w.u8(static_cast<std::uint8_t>(s.self));
}

void decode_state(Reader& r, AuthState& s) {
  ReportState core;
  decode_report_core(r, core);
  s.time = core.time;
  s.init = core.init;
  s.decided = core.decided;
  s.jd = core.jd;
  s.zeros = core.zeros;
  s.faults = core.faults;
  s.budget_common = core.budget_common;
  s.ones = core.ones;
  const std::uint8_t self = r.u8();
  if (self >= kMaxAgents) reject(Kind::malformed, "bad state agent id");
  s.self = static_cast<AgentId>(self);
}

}  // namespace eba
