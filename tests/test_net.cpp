// Messaging-layer tests: wire-format round trips, decoder fuzzing, and
// end-to-end equivalence of the cluster runtime (byte payloads through a
// bus slot with fault injection) with the abstract simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "net/checkpoint.hpp"
#include "net/cluster.hpp"
#include "net/serialize.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

// -- Allocation tracking -----------------------------------------------------
// Replacement global new/delete (malloc/free, as the default ones) that
// count requests and remember the largest, so a test can assert that a
// decoder sized nothing from a count its bytes do not back, and that a warm
// wire round allocates nothing.

namespace {
std::atomic<std::size_t> g_largest_alloc{0};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_alloc.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// GCC 12 reports free() as mismatched with the operator new it sees inlined
// at call sites (-Wmismatched-new-delete); both sides are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace eba {
namespace {

TEST(SerializeTest, ValueRoundTrip) {
  for (Value v : {Value::zero, Value::one})
    EXPECT_EQ(from_bytes<Value>(to_bytes(v)), v);
}

TEST(SerializeTest, BasicMsgRoundTrip) {
  for (BasicMsg m : {BasicMsg::decide0, BasicMsg::decide1, BasicMsg::init1})
    EXPECT_EQ(from_bytes<BasicMsg>(to_bytes(m)), m);
}

TEST(SerializeTest, RelayMsgRoundTrip) {
  for (RelayMsg m : {RelayMsg::decide0, RelayMsg::decide1, RelayMsg::relay0})
    EXPECT_EQ(from_bytes<RelayMsg>(to_bytes(m)), m);
  try {
    (void)from_bytes<RelayMsg>(Bytes{3});
    FAIL() << "out-of-alphabet relay byte accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::malformed);
  }
}

TEST(SerializeTest, GraphRoundTrip) {
  CommGraph g(4, 2, Value::one);
  g.advance_round(2, AgentSet{0, 3});
  g.advance_round(2, AgentSet{1});
  g.set_pref(0, PrefLabel::zero);
  Writer w;
  encode_graph(w, g);
  const Bytes payload = w.take();
  Reader r(payload);
  EXPECT_EQ(decode_graph(r), g);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializeTest, SharedGraphMessageRoundTrip) {
  const auto g = std::make_shared<const CommGraph>(CommGraph(3, 1, Value::zero));
  const auto back = from_bytes<std::shared_ptr<const CommGraph>>(to_bytes(g));
  EXPECT_EQ(*back, *g);
}

TEST(SerializeTest, TruncatedPayloadThrows) {
  Bytes b = to_bytes(std::make_shared<const CommGraph>(CommGraph(3, 0, Value::one)));
  b.pop_back();
  try {
    (void)from_bytes<std::shared_ptr<const CommGraph>>(b);
    FAIL() << "truncated graph payload accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::truncated);
  }
}

TEST(SerializeTest, TrailingBytesThrow) {
  Bytes b = to_bytes(Value::one);
  b.push_back(0);
  try {
    (void)from_bytes<Value>(b);
    FAIL() << "over-length payload accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::trailing);
  }
}

// -- Decoder fuzz: untrusted bytes land in DecodeError, never UB -------------

/// Decoding any mutation either succeeds (a mutated-but-wellformed buffer)
/// or throws DecodeError. An EBA_REQUIRE (std::logic_error) firing would
/// mean a decoder treated attacker bytes as a caller contract.
template <class Decode>
void fuzz_decoder(const Bytes& wellformed, Decode&& decode,
                  const std::string& what) {
  for (std::size_t cut = 0; cut < wellformed.size(); ++cut) {
    Bytes buf(wellformed.begin(),
              wellformed.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      decode(buf);
    } catch (const DecodeError&) {
    } catch (const std::exception& e) {
      FAIL() << what << ": truncation at " << cut
             << " escaped as non-DecodeError: " << e.what();
    }
  }
  for (std::size_t at = 0; at < wellformed.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes buf = wellformed;
      buf[at] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        decode(buf);
      } catch (const DecodeError&) {
      } catch (const std::exception& e) {
        FAIL() << what << ": bit " << bit << " flip at byte " << at
               << " escaped as non-DecodeError: " << e.what();
      }
    }
  }
  // Over-length and junk prefixes.
  Bytes longer = wellformed;
  longer.push_back(0xEE);
  try {
    decode(longer);
  } catch (const DecodeError&) {
  } catch (const std::exception& e) {
    FAIL() << what << ": over-length escaped as non-DecodeError: " << e.what();
  }
}

TEST(SerializeFuzzTest, GraphDecoderNeverEscapes) {
  CommGraph g(5, 3, Value::one);
  g.advance_round(3, AgentSet{0, 2, 4});
  g.advance_round(3, AgentSet{1, 2});
  g.set_pref(2, PrefLabel::zero);
  Writer w;
  encode_graph(w, g);
  fuzz_decoder(
      w.take(),
      [](const Bytes& b) {
        Reader r(b);
        (void)decode_graph(r);
        if (!r.exhausted())
          throw DecodeError(DecodeError::Kind::trailing, "trailing");
      },
      "graph");
}

TEST(SerializeFuzzTest, PatternAndRecordDecodersNeverEscape) {
  Rng rng(71);
  const FailurePattern alpha = sample_go_adversary(5, 2, 4, 0.4, 0.3, rng);
  Writer wp;
  encode_pattern(wp, alpha);
  const Bytes pattern_bytes = wp.take();
  {
    Reader r(pattern_bytes);
    EXPECT_TRUE(decode_pattern(r) == alpha) << "pattern round-trip";
  }
  fuzz_decoder(
      pattern_bytes,
      [](const Bytes& b) {
        Reader r(b);
        (void)decode_pattern(r);
      },
      "pattern");

  const auto run = simulate(MinExchange(5), PMin(5, 2), alpha,
                            sample_preferences(5, rng), 2);
  Writer wr;
  encode_record(wr, run.record);
  const Bytes record_bytes = wr.take();
  {
    Reader r(record_bytes);
    EXPECT_EQ(decode_record(r), run.record) << "record round-trip";
  }
  fuzz_decoder(
      record_bytes,
      [](const Bytes& b) {
        Reader r(b);
        (void)decode_record(r);
      },
      "record");
}

TEST(SerializeFuzzTest, StateDecodersNeverEscape) {
  const auto run = simulate(FipExchange(4), POpt(4, 2),
                            FailurePattern::failure_free(4),
                            std::vector<Value>(4, Value::one), 2);
  Writer w;
  encode_state(w, run.states.back()[1]);
  fuzz_decoder(
      w.take(),
      [&run](const Bytes& b) {
        Reader r(b);
        FipState s = run.states.back()[1];
        decode_state(r, s);
      },
      "fip-state");

  const RelayState relay{.time = 3,
                         .init = Value::one,
                         .decided = Value::zero,
                         .jd = Value::zero,
                         .knows0 = true};
  Writer wr;
  encode_state(wr, relay);
  const Bytes relay_bytes = wr.take();
  {
    Reader r(relay_bytes);
    RelayState back;
    decode_state(r, back);
    EXPECT_EQ(back, relay) << "relay-state round-trip";
    EXPECT_TRUE(r.exhausted());
  }
  fuzz_decoder(
      relay_bytes,
      [](const Bytes& b) {
        Reader r(b);
        RelayState s;
        decode_state(r, s);
      },
      "relay-state");
}

/// The zoo payloads E_report and E_auth put on the wire: every tag
/// combination a real µ emits, with nonempty sets in both planes.
std::vector<ReportMsg> sample_reports() {
  std::vector<ReportMsg> out;
  for (const std::optional<Value>& ever :
       {std::optional<Value>{}, std::optional<Value>(Value::zero),
        std::optional<Value>(Value::one)}) {
    out.push_back({.fresh_decide = {},
                   .decided_ever = ever,
                   .zeros = AgentSet{1, 63},
                   .faults = AgentSet{0, 5, 17}});
    if (ever)
      out.push_back({.fresh_decide = ever,
                     .decided_ever = ever,
                     .zeros = {},
                     .faults = AgentSet{2}});
  }
  return out;
}

TEST(SerializeFuzzTest, ReportAndAuthDecodersNeverEscape) {
  const auto expect_malformed = [](const auto& decode) {
    try {
      decode();
      FAIL() << "fresh_decide without matching decided_ever accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), DecodeError::Kind::malformed);
    }
  };
  for (const ReportMsg& m : sample_reports()) {
    const AuthMsg am{.payload = m, .sig = 0x0123456789abcdefull};
    EXPECT_EQ(from_bytes<ReportMsg>(to_bytes(m)), m);
    EXPECT_EQ(from_bytes<AuthMsg>(to_bytes(am)), am);
    fuzz_decoder(
        to_bytes(m), [](const Bytes& b) { (void)from_bytes<ReportMsg>(b); },
        "report");
    fuzz_decoder(
        to_bytes(am), [](const Bytes& b) { (void)from_bytes<AuthMsg>(b); },
        "auth");

    // A fresh decision the sticky field does not carry never left a real µ.
    if (!m.decided_ever) continue;
    ReportMsg bad = m;
    bad.fresh_decide =
        *m.decided_ever == Value::zero ? Value::one : Value::zero;
    expect_malformed([&] { (void)from_bytes<ReportMsg>(to_bytes(bad)); });
    expect_malformed([&] {
      (void)from_bytes<AuthMsg>(to_bytes(AuthMsg{.payload = bad, .sig = 0}));
    });
  }
  ReportMsg unset;
  unset.fresh_decide = Value::one;
  expect_malformed([&] { (void)from_bytes<ReportMsg>(to_bytes(unset)); });
}

// -- Exact-size encoding: to_bytes reserves encoded_size(m) once --------------

template <class Message>
void expect_exact_size(const Message& m, const std::string& what) {
  const Bytes b = to_bytes(m);
  EXPECT_EQ(encoded_size(m), b.size()) << what;
  EXPECT_EQ(b.capacity(), b.size()) << what << ": size hint reallocated";
}

TEST(SerializeTest, EncodedSizeIsExactForEveryCodec) {
  for (Value v : {Value::zero, Value::one}) expect_exact_size(v, "value");
  for (BasicMsg m : {BasicMsg::decide0, BasicMsg::decide1, BasicMsg::init1})
    expect_exact_size(m, "basic");
  for (RelayMsg m : {RelayMsg::decide0, RelayMsg::decide1, RelayMsg::relay0})
    expect_exact_size(m, "relay");
  for (const ReportMsg& m : sample_reports()) {
    expect_exact_size(m, "report");
    expect_exact_size(AuthMsg{.payload = m, .sig = ~0ull}, "auth");
  }
  EXPECT_EQ(encoded_size(ReportMsg{}), 18u);
  EXPECT_EQ(encoded_size(AuthMsg{}), 26u);

  for (int n : {1, 8, 9, 32, 64})
    for (int time = 0; time <= 3; ++time) {
      CommGraph g(n, 0, Value::one);
      for (int m = 0; m < time; ++m) g.advance_round(0, AgentSet::all(n));
      const auto msg = std::make_shared<const CommGraph>(g);
      std::string what = "graph n=";
      what += std::to_string(n);
      what += " time=";
      what += std::to_string(time);
      expect_exact_size(msg, what);
      const auto row = static_cast<std::size_t>((n + 7) / 8);
      EXPECT_EQ(encoded_size(msg),
                8 + 2 * static_cast<std::size_t>(time * n) * row + 2 * row)
          << what;
    }
}

TEST(SerializeFuzzTest, FrameLengthCannotOverread) {
  // A frame whose length field promises more than the buffer holds must be
  // a truncation error, not a read past the end.
  Bytes out;
  write_frame(out, 1, Bytes{1, 2, 3});
  Bytes huge = out;
  huge[1] = 0xFF;
  huge[2] = 0xFF;  // length ~64K, buffer ~12 bytes
  std::size_t pos = 0;
  try {
    (void)read_frame(huge, pos);
    FAIL() << "oversized frame length accepted";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeError::Kind::truncated);
  }
  // The pristine frame round-trips.
  pos = 0;
  const Frame f = read_frame(out, pos);
  EXPECT_EQ(f.kind, 1);
  EXPECT_EQ(f.payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(pos, out.size());
}

// -- Hostile lengths: a declared size is checked before it is allocated ------

TEST(SerializeFuzzTest, HostileLengthsThrowTruncatedBeforeAllocating) {
  const auto expect_truncated_small = [](const Bytes& b, auto decode,
                                         const char* what) {
    g_largest_alloc = 0;
    try {
      Reader r(b);
      decode(r);
      ADD_FAILURE() << what << ": hostile header accepted";
    } catch (const DecodeError& e) {
      EXPECT_EQ(e.kind(), DecodeError::Kind::truncated) << what;
    }
    EXPECT_LT(g_largest_alloc.load(), std::size_t{4096})
        << what << ": allocated from the declared size";
  };
  // A graph header claiming n = 64, time = 4096: 4 MiB of rows, 8 bytes.
  Writer g;
  g.u32(64);
  g.u32(4096);
  expect_truncated_small(
      g.take(), [](Reader& r) { (void)decode_graph(r); }, "graph");
  // A record claiming n = 64 and 4096 rounds: its nonfaulty row and inits,
  // then no round at all.
  Writer rec;
  rec.u32(64);
  rec.u32(8);
  rec.u32(4096);
  rec.u64(~0ull);
  for (int i = 0; i < 64; ++i) rec.u8(0);
  expect_truncated_small(
      rec.take(), [](Reader& r) { (void)decode_record(r); }, "record");
}

// -- Recycled encode buffers and pooled decode targets ----------------------

CommGraph golden_graph(int n, int time);

/// to_bytes into a dirty buffer, larger and smaller than the payload,
/// writes exactly the bytes a fresh buffer gets; from_bytes into each
/// pooled target (and into an empty one) decodes what a fresh from_bytes
/// does, in the target's own graph when it holds one.
template <class Message>
void expect_reuse_matches_fresh(const Message& m, const std::string& what,
                                std::vector<Message> targets = {}) {
  const Bytes fresh = to_bytes(m);
  EXPECT_EQ(to_bytes(m, Bytes(fresh.size() + 40, 0xA5)), fresh) << what;
  EXPECT_EQ(to_bytes(m, Bytes(fresh.size() / 2, 0x5A)), fresh) << what;
  const Message want = from_bytes<Message>(fresh);
  targets.emplace_back();
  for (Message& target : targets) {
    if constexpr (std::is_same_v<Message, std::shared_ptr<const CommGraph>>) {
      const CommGraph* pooled = target.get();
      from_bytes(fresh, target);
      EXPECT_EQ(*target, *want) << what;
      if (pooled && kSoleOwnedWrites) {
        EXPECT_EQ(target.get(), pooled) << what << ": not reused";
      }
    } else {
      from_bytes(fresh, target);
      EXPECT_EQ(target, want) << what;
    }
    EXPECT_EQ(to_bytes(target), fresh) << what;
  }
}

TEST(SerializeTest, EncodingIntoADirtyBufferMatchesAFreshOne) {
  for (Value v : {Value::zero, Value::one})
    expect_reuse_matches_fresh(v, "value");
  for (BasicMsg m : {BasicMsg::decide0, BasicMsg::decide1, BasicMsg::init1})
    expect_reuse_matches_fresh(m, "basic");
  for (RelayMsg m : {RelayMsg::decide0, RelayMsg::decide1, RelayMsg::relay0})
    expect_reuse_matches_fresh(m, "relay");
  for (const ReportMsg& m : sample_reports()) {
    expect_reuse_matches_fresh(m, "report");
    expect_reuse_matches_fresh(AuthMsg{.payload = m, .sig = ~0ull}, "auth");
  }
  for (int n : {1, 9, 32, 64}) {
    CommGraph g(n, 0, Value::one);
    g.advance_round(0, AgentSet::all(n));
    // Pooled targets: one left at another n and a larger time, and one
    // left by a payload rejected halfway through its rows.
    using Message = std::shared_ptr<const CommGraph>;
    const int other_n = n == 64 ? 9 : 64;
    Message wider = from_bytes<Message>(
        to_bytes(std::make_shared<const CommGraph>(golden_graph(other_n, 5))));
    Message rejected = from_bytes<Message>(to_bytes(wider));
    Bytes bad = to_bytes(wider);
    const std::size_t row_bytes = (other_n + 7) / 8;
    bad[8 + 2 * 3 * row_bytes] = 0;                 // row 3: known cleared,
    bad[8 + 2 * 3 * row_bytes + row_bytes] = 0xFF;  // present set
    EXPECT_THROW(from_bytes(bad, rejected), DecodeError);
    // Moved in, not listed: an initializer list would keep second owners.
    std::vector<Message> targets;
    targets.push_back(std::move(wider));
    targets.push_back(std::move(rejected));
    expect_reuse_matches_fresh(std::make_shared<const CommGraph>(g),
                               "graph n=" + std::to_string(n),
                               std::move(targets));
  }
}

// One E_fip wire round two rounds into a run: µ of every state encoded into
// its recycled buffer, every payload decoded into its sender's pooled target.
// Once warm the round allocates nothing: µ shares the state's graph and the
// decode refills the pooled graphs in place. A graph's rows grow
// CommGraph::kGrowthRounds rounds at a time: advance_round allocates once
// per that many rounds, where doubling two planes allocated twice a round
// early on.
TEST(SerializeTest, WarmFipWireRoundAllocatesNothing) {
  const int n = 8;
  const int t = 2;
  const auto un = static_cast<std::size_t>(n);
  const FipExchange x(n);
  const POpt p(n, t);
  Rng rng(26);
  Stepper<FipExchange, POpt> stepper(
      x, p, sample_adversary(n, t, t + 4, 0.3, rng), sample_preferences(n, rng),
      t);
  ASSERT_TRUE(stepper.step());
  ASSERT_TRUE(stepper.step());
  const std::vector<FipState>& states = stepper.states();
  std::vector<Bytes> buffers(un);
  std::vector<FipExchange::Message> pooled(un);
  const auto round = [&] {
    for (std::size_t i = 0; i < un; ++i)
      buffers[i] = to_bytes(*x.message(states[i], Action::noop(), 0),
                            std::move(buffers[i]));
    for (std::size_t i = 0; i < un; ++i) from_bytes(buffers[i], pooled[i]);
  };
  round();
  const std::size_t before = g_allocs.load();
  round();
  if (kSoleOwnedWrites) {
    EXPECT_EQ(g_allocs.load() - before, 0u) << "warm wire round allocated";
  }
  for (std::size_t i = 0; i < un; ++i)
    EXPECT_EQ(*pooled[i], states[i].graph());

  CommGraph g(n, 0, Value::one);
  for (int m = 0; m < 3 * CommGraph::kGrowthRounds; ++m) {
    const std::size_t grown = g_allocs.load();
    g.advance_round(0, AgentSet{3});
    EXPECT_EQ(g_allocs.load() - grown,
              m % CommGraph::kGrowthRounds == 0 ? 1u : 0u)
        << "advance_round from time " << m;
  }
  EXPECT_EQ(g.time(), 3 * CommGraph::kGrowthRounds);
}

// -- Golden wire bytes -------------------------------------------------------
//
// A round trip cannot see a format change made on both sides at once. These
// literals were written by the byte-at-a-time codec that the word-speed
// Writer/Reader replaced; every stored journal, EBCK checkpoint and EBTR
// trace depends on them staying readable.

Bytes from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t k = 0; k + 1 < hex.size(); k += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(k, 2)), nullptr, 16)));
  return out;
}

/// A graph of `time` rounds whose receiver rows all differ and spread over
/// every byte of a ceil(n/8)-byte row, with preference labels at both ends.
CommGraph golden_graph(int n, int time) {
  CommGraph g = CommGraph::blank(n, time);
  for (int m = 0; m < time; ++m)
    for (AgentId to = 0; to < n; ++to) {
      AgentSet known;
      AgentSet present;
      for (AgentId j = 0; j < n; ++j) {
        if ((j + to + m) % 3 == 0) continue;
        known.insert(j);
        if ((7 * j + to) % 5 < 2) present.insert(j);
      }
      g.set_row(m, to, known, present);
    }
  g.set_pref(0, PrefLabel::zero);
  g.set_pref(n - 1, PrefLabel::one);
  return g;
}

ReportMsg golden_report() {
  return {.fresh_decide = Value::one,
          .decided_ever = Value::one,
          .zeros = AgentSet{1, 8, 63},
          .faults = AgentSet{0, 5, 17, 40}};
}

AuthMsg golden_auth() {
  return {.payload = {.fresh_decide = {},
                      .decided_ever = Value::zero,
                      .zeros = AgentSet{2, 9},
                      .faults = AgentSet{3}},
          .sig = 0x0123456789abcdefull};
}

FailurePattern golden_pattern() {
  FailurePattern alpha(9, AgentSet::all(9).minus(AgentSet{2, 8}));
  alpha.drop(0, 2, 0);
  alpha.drop(0, 2, 7);
  alpha.drop(1, 8, 3);
  alpha.drop_receive(0, 4, 8);
  alpha.drop_receive(2, 1, 2);
  return alpha;
}

RunRecord golden_record() {
  RunRecord rec;
  rec.n = 9;
  rec.t = 2;
  rec.rounds = 2;
  rec.nonfaulty = AgentSet::all(9).minus(AgentSet{2, 8});
  for (AgentId i = 0; i < 9; ++i)
    rec.inits.push_back(i % 3 == 0 ? Value::zero : Value::one);
  for (int m = 0; m < 2; ++m) {
    std::vector<Action> actions(9, Action::noop());
    actions[static_cast<std::size_t>(m)] = Action::decide(Value::one);
    actions[8] = Action::decide(Value::zero);
    std::vector<AgentSet> sent, delivered;
    for (AgentId i = 0; i < 9; ++i) {
      sent.push_back(AgentSet::all(9).minus(AgentSet{i}));
      delivered.push_back(i == 2 ? AgentSet{1, 3} : sent.back());
    }
    rec.actions.push_back(std::move(actions));
    rec.sent.push_back(std::move(sent));
    rec.delivered.push_back(std::move(delivered));
  }
  return rec;
}

/// An E_fip/P_opt n=3 t=1 stepper one failure-free round in: its checkpoint
/// holds one frame carrying a pattern, a record and three graph states.
Stepper<FipExchange, POpt> golden_stepper(const FipExchange& x,
                                          const POpt& p) {
  Stepper<FipExchange, POpt> stepper(
      x, p, FailurePattern::failure_free(3),
      {Value::one, Value::zero, Value::one}, 1);
  stepper.step();
  return stepper;
}

constexpr std::string_view kGraph1 =
    "0100000002000000000001010101";
constexpr std::string_view kGraph9 =
    "0900000002000000b6012001db0081006d010400b6011200db004a006d012901"
    "b601a400db0090006d014000db0009006d012500b6019400db0052006d014801"
    "b6012001db0081006d010400b601120001010001";
constexpr std::string_view kGraph64 =
    "4000000001000000b66ddbb66ddbb66d202590124809a404dbb66ddbb66ddbb6"
    "8194404a202590126ddbb66ddbb66ddb045202298194404ab66ddbb66ddbb66d"
    "124809a404520229dbb66ddbb66ddbb64a202590124809a46ddbb66ddbb66ddb"
    "298194404a202590b66ddbb66ddbb66da404520229819440dbb66ddbb66ddbb6"
    "90124809a40452026ddbb66ddbb66ddb404a202590124809b66ddbb66ddbb66d"
    "02298194404a2025dbb66ddbb66ddbb609a40452022981946ddbb66ddbb66ddb"
    "2590124809a40452b66ddbb66ddbb66d94404a2025901248dbb66ddbb66ddbb6"
    "5202298194404a206ddbb66ddbb66ddb4809a40452022981b66ddbb66ddbb66d"
    "202590124809a404dbb66ddbb66ddbb68194404a202590126ddbb66ddbb66ddb"
    "045202298194404ab66ddbb66ddbb66d124809a404520229dbb66ddbb66ddbb6"
    "4a202590124809a46ddbb66ddbb66ddb298194404a202590b66ddbb66ddbb66d"
    "a404520229819440dbb66ddbb66ddbb690124809a40452026ddbb66ddbb66ddb"
    "404a202590124809b66ddbb66ddbb66d02298194404a2025dbb66ddbb66ddbb6"
    "09a40452022981946ddbb66ddbb66ddb2590124809a40452b66ddbb66ddbb66d"
    "94404a2025901248dbb66ddbb66ddbb65202298194404a206ddbb66ddbb66ddb"
    "4809a40452022981b66ddbb66ddbb66d202590124809a404dbb66ddbb66ddbb6"
    "8194404a202590126ddbb66ddbb66ddb045202298194404ab66ddbb66ddbb66d"
    "124809a404520229dbb66ddbb66ddbb64a202590124809a46ddbb66ddbb66ddb"
    "298194404a202590b66ddbb66ddbb66da404520229819440dbb66ddbb66ddbb6"
    "90124809a40452026ddbb66ddbb66ddb404a202590124809b66ddbb66ddbb66d"
    "02298194404a2025dbb66ddbb66ddbb609a40452022981946ddbb66ddbb66ddb"
    "2590124809a40452b66ddbb66ddbb66d94404a2025901248dbb66ddbb66ddbb6"
    "5202298194404a206ddbb66ddbb66ddb4809a40452022981b66ddbb66ddbb66d"
    "202590124809a404dbb66ddbb66ddbb68194404a202590126ddbb66ddbb66ddb"
    "045202298194404ab66ddbb66ddbb66d124809a404520229dbb66ddbb66ddbb6"
    "4a202590124809a46ddbb66ddbb66ddb298194404a202590b66ddbb66ddbb66d"
    "a404520229819440dbb66ddbb66ddbb690124809a40452026ddbb66ddbb66ddb"
    "404a202590124809b66ddbb66ddbb66d02298194404a2025dbb66ddbb66ddbb6"
    "09a40452022981946ddbb66ddbb66ddb2590124809a40452b66ddbb66ddbb66d"
    "94404a2025901248dbb66ddbb66ddbb65202298194404a206ddbb66ddbb66ddb"
    "4809a40452022981b66ddbb66ddbb66d202590124809a404dbb66ddbb66ddbb6"
    "8194404a202590126ddbb66ddbb66ddb045202298194404ab66ddbb66ddbb66d"
    "124809a40452022901000000000000800000000000000080";
constexpr std::string_view kReport =
    "020202010000000000802100020000010000";
constexpr std::string_view kAuth =
    "000104020000000000000800000000000000efcdab8967452301";
constexpr std::string_view kPattern =
    "09000000fb000200000000000000810000000000000000000000000000000000"
    "0000000000000000000000000800030000000000000000000000000000000000"
    "0000100000000000000000000000000000000000000000000000020000000000"
    "0000000000000000";
constexpr std::string_view kRecord =
    "090000000200000002000000fb00000101000101000101020000000000000001"
    "fe01fd01fb01f701ef01df01bf017f01ff00fe01fd010a00f701ef01df01bf01"
    "7f01ff00000200000000000001fe01fd01fb01f701ef01df01bf017f01ff00fe"
    "01fd010a00f701ef01df01bf017f01ff00";
constexpr std::string_view kCheckpoint =
    "4542434b01000000019000000003000000010000000500000001010000002400"
    "0000000000000600000000000000030000000700000000000000000300000001"
    "0000000100000007010001000100060503060503010000000001000300000001"
    "0000000707000000000705010000000100010300000001000000000007070000"
    "0705010000000201000300000001000000000000000707070500000000688f03"
    "43";

TEST(WireGoldenTest, GraphsWithOneTwoAndEightByteRows) {
  const std::pair<int, std::string_view> cases[] = {
      {1, kGraph1}, {9, kGraph9}, {64, kGraph64}};
  for (const auto& [n, hex] : cases) {
    const CommGraph g = golden_graph(n, n == 64 ? 1 : 2);
    const Bytes want = from_hex(hex);
    EXPECT_EQ(to_bytes(std::make_shared<const CommGraph>(g)), want)
        << "n=" << n;
    EXPECT_EQ(*from_bytes<std::shared_ptr<const CommGraph>>(want), g)
        << "n=" << n;
  }
}

TEST(WireGoldenTest, ReportAndAuthMessages) {
  EXPECT_EQ(to_bytes(golden_report()), from_hex(kReport));
  EXPECT_EQ(from_bytes<ReportMsg>(from_hex(kReport)), golden_report());
  EXPECT_EQ(to_bytes(golden_auth()), from_hex(kAuth));
  EXPECT_EQ(from_bytes<AuthMsg>(from_hex(kAuth)), golden_auth());
}

TEST(WireGoldenTest, PatternAndRecord) {
  Writer wp;
  encode_pattern(wp, golden_pattern());
  EXPECT_EQ(wp.take(), from_hex(kPattern));
  const Bytes pattern = from_hex(kPattern);
  Reader rp(pattern);
  EXPECT_TRUE(decode_pattern(rp) == golden_pattern());
  EXPECT_TRUE(rp.exhausted());

  Writer wr;
  encode_record(wr, golden_record());
  EXPECT_EQ(wr.take(), from_hex(kRecord));
  const Bytes record = from_hex(kRecord);
  Reader rr(record);
  EXPECT_EQ(decode_record(rr), golden_record());
  EXPECT_TRUE(rr.exhausted());
}

TEST(WireGoldenTest, CheckpointFrame) {
  const FipExchange x(3);
  const POpt p(3, 1);
  const Bytes want = from_hex(kCheckpoint);
  EXPECT_EQ(checkpoint_stepper(golden_stepper(x, p)), want);
  EXPECT_EQ(checkpoint_stepper(restore_stepper<FipExchange, POpt>(x, p, want)),
            want);
}

template <class X, class P>
void expect_cluster_matches_simulator(const X& x, const P& p,
                                      const FailurePattern& alpha,
                                      const std::vector<Value>& inits, int t) {
  const auto cluster = run_cluster(x, p, alpha, inits, t);
  StepperOptions opt;
  opt.max_rounds = t + 4;
  const auto sim = simulate(x, p, alpha, inits, t, opt);
  ASSERT_EQ(cluster.record.rounds, sim.record.rounds);
  EXPECT_EQ(cluster.record.actions, sim.record.actions);
  EXPECT_EQ(cluster.record.delivered, sim.record.delivered);
  EXPECT_EQ(cluster.record.sent, sim.record.sent);
  for (AgentId i = 0; i < x.n(); ++i)
    EXPECT_EQ(cluster.final_states[static_cast<std::size_t>(i)],
              sim.states.back()[static_cast<std::size_t>(i)]);
}

TEST(ClusterTest, MatchesSimulatorPMin) {
  const int n = 5;
  const int t = 2;
  Rng rng(31);
  for (int k = 0; k < 10; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_cluster_matches_simulator(MinExchange(n), PMin(n, t), alpha, prefs, t);
  }
}

TEST(ClusterTest, MatchesSimulatorPBasic) {
  const int n = 5;
  const int t = 2;
  Rng rng(32);
  for (int k = 0; k < 10; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_cluster_matches_simulator(BasicExchange(n), PBasic(n, t), alpha,
                                     prefs, t);
  }
}

TEST(ClusterTest, MatchesSimulatorPOptWithGraphPayloads) {
  const int n = 4;
  const int t = 2;
  Rng rng(33);
  for (int k = 0; k < 5; ++k) {
    const auto alpha = sample_adversary(n, t, t + 2, 0.4, rng);
    const auto prefs = sample_preferences(n, rng);
    expect_cluster_matches_simulator(FipExchange(n), POpt(n, t), alpha, prefs, t);
  }
}

TEST(ClusterTest, ExampleSeventyOneOverTheWire) {
  // The headline example end-to-end over byte payloads: 8 agents, t=4,
  // 4 silent faulty agents, all-ones preferences — the FIP cluster decides 1
  // in round 3.
  const int n = 8;
  const int t = 4;
  AgentSet silent;
  for (AgentId i = 0; i < t; ++i) silent.insert(i);
  const auto alpha = silent_agents_pattern(n, silent, t + 3);
  const std::vector<Value> prefs(static_cast<std::size_t>(n), Value::one);
  const auto result = run_cluster(FipExchange(n), POpt(n, t), alpha, prefs, t);
  for (AgentId i : alpha.nonfaulty()) {
    const auto d = result.record.decision(i);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->round, 3);
    EXPECT_EQ(d->value, Value::one);
  }
  EXPECT_TRUE(check_eba(result.record).ok());
}

}  // namespace
}  // namespace eba
