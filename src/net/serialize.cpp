#include "net/serialize.hpp"

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

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

/// Runs `f(width)` with the row width (1..8 bytes) as a compile-time
/// constant, so each row moves with fixed-size loads and stores.
template <class F>
void with_row_width(std::size_t row_bytes, F&& f) {
  [&]<std::size_t... W>(std::index_sequence<W...>) {
    (void)((row_bytes == W + 1 &&
            (f(std::integral_constant<std::size_t, W + 1>{}), true)) ||
           ...);
  }(std::make_index_sequence<8>{});
}

}  // namespace

void Reader::truncated(std::size_t wanted) const {
  reject(Kind::truncated, std::to_string(wanted) + " bytes wanted at byte " +
                              std::to_string(pos_) + " of a " +
                              std::to_string(data_.size()) + "-byte payload");
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

void write_preamble(Bytes& out, const char (&magic)[4], std::uint32_t version) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::copy(magic, magic + 4, out.begin() + static_cast<std::ptrdiff_t>(at));
  detail::store_le(out.data() + at + 4, version, 4);
}

void write_frame(Bytes& out, std::uint8_t kind, const Bytes& payload) {
  // Header, payload and CRC go straight into `out`, which grows
  // geometrically across the frames a container appends.
  const std::size_t start = out.size();
  const std::size_t len = payload.size();
  out.resize(start + 5 + len + 4);
  std::uint8_t* frame = out.data() + start;
  frame[0] = kind;
  detail::store_le(frame + 1, static_cast<std::uint32_t>(len), 4);
  std::copy(payload.begin(), payload.end(), frame + 5);
  detail::store_le(frame + 5 + len, crc32(frame, 5 + len), 4);
}

Frame read_frame(const Bytes& buf, std::size_t& pos) {
  if (buf.size() - pos < 5)
    reject(Kind::truncated, "frame header ends at byte " + std::to_string(pos));
  const std::size_t start = pos;
  const std::uint8_t kind = buf[pos];
  const auto len =
      static_cast<std::uint32_t>(detail::load_le(buf.data() + pos + 1, 4));
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
  const auto got =
      static_cast<std::uint32_t>(detail::load_le(buf.data() + pos, 4));
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
// accounting — and both directions move the row block in one piece.
void encode_graph(Writer& w, const CommGraph& g) {
  const auto row_bytes = static_cast<std::size_t>((g.n() + 7) / 8);
  const std::span<const std::uint64_t> rows = g.row_words();
  std::uint8_t* p = w.extend(encoded_size(g));
  detail::store_le(p, static_cast<std::uint32_t>(g.n()), 4);
  detail::store_le(p + 4, static_cast<std::uint32_t>(g.time()), 4);
  p += 8;
  with_row_width(row_bytes, [&](auto width) {
    for (const std::uint64_t word : rows) {
      detail::store_le(p, word, width);
      p += width;
    }
    detail::store_le(p, g.known_prefs().bits(), width);
    detail::store_le(p + width, g.one_prefs().bits(), width);
  });
}

void decode_graph(Reader& r, CommGraph& g) {
  const int n = static_cast<int>(r.u32());
  const int time = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents && time >= 0 && time <= 4096))
    reject(Kind::malformed, "bad graph header (n=" + std::to_string(n) +
                                ", time=" + std::to_string(time) + ")");
  const auto row_bytes = static_cast<std::size_t>((n + 7) / 8);
  const std::size_t rows =
      static_cast<std::size_t>(time) * static_cast<std::size_t>(n);
  // One bounds check covers the row block and the preference words, before
  // the graph's planes are sized from the header.
  const std::uint8_t* p = r.take(2 * (rows + 1) * row_bytes);
  const std::uint64_t full = AgentSet::all(n).bits();
  const std::uint8_t* prefs = p + 2 * rows * row_bytes;
  const std::uint64_t pk = detail::load_le(prefs, row_bytes);
  const std::uint64_t pv = detail::load_le(prefs + row_bytes, row_bytes);
  if ((pk & ~full) != 0 || (pv & ~pk) != 0)
    reject(Kind::malformed, "bad pref rows");
  g.reset_blank(n, 0);
  with_row_width(row_bytes, [&](auto width) {
    g.assign_rows(time, AgentSet(pk), AgentSet(pv),
                  [&](std::uint64_t& known, std::uint64_t& present) {
                    known = detail::load_le(p, width);
                    present = detail::load_le(p + width, width);
                    p += 2 * width;
                    if ((known & ~full) != 0 || (present & ~known) != 0)
                      reject(Kind::malformed, "bad label row");
                  });
  });
}

CommGraph decode_graph(Reader& r) {
  CommGraph g = CommGraph::blank(1, 0);
  decode_graph(r, g);
  return g;
}

void encode_message(Writer& w, const std::shared_ptr<const CommGraph>& m) {
  EBA_REQUIRE(m != nullptr, "null graph message");
  encode_graph(w, *m);
}
void decode_message(Reader& r, std::shared_ptr<const CommGraph>& m) {
  CommGraph* g = sole_owned(m);
  if (!g) {
    auto fresh = std::make_shared<CommGraph>(CommGraph::blank(1, 0));
    g = fresh.get();
    m = std::move(fresh);
  }
  decode_graph(r, *g);
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
  // The header fixes the body's size (nonfaulty row, inits, then per round
  // n actions, n sent and n delivered rows); check it before reserving.
  const auto un = static_cast<std::size_t>(n);
  const auto urow = static_cast<std::size_t>(row_bytes);
  if (r.remaining() < urow + un + static_cast<std::size_t>(record.rounds) *
                                       un * (1 + 2 * urow))
    reject(Kind::truncated, "record body shorter than its header declares");
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
  encode_graph(w, s.graph());
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
  decode_graph(r, s.writable_graph());
  // The inferred-action cache restarts empty; it refills lazily with
  // identical contents (excluded from state equality).
  s.inferred = {};
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
