// Messaging-layer tests: wire-format round trips, decoder fuzzing, and
// end-to-end equivalence of the cluster runtime (byte payloads through a
// bus slot with fault injection) with the abstract simulator.
#include <gtest/gtest.h>

#include "action/p_basic.hpp"
#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "core/spec.hpp"
#include "failure/generators.hpp"
#include "net/cluster.hpp"
#include "net/serialize.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

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

template <class X, class P>
void expect_cluster_matches_simulator(const X& x, const P& p,
                                      const FailurePattern& alpha,
                                      const std::vector<Value>& inits, int t) {
  const auto cluster = run_cluster(x, p, alpha, inits, t);
  SimulateOptions opt;
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
