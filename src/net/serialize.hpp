// Byte-level wire format for protocol messages and durable artifacts.
//
// The abstract model treats messages as values; the threaded runtime sends
// real byte payloads. Each exchange's message alphabet gets an encoder and a
// decoder; CommGraph payloads carry their full label matrix. On top of the
// message codecs this layer provides the building blocks the durability
// subsystem (src/audit, net/checkpoint.hpp) shares: failure-pattern,
// run-record and exchange-state codecs, CRC32, and CRC-guarded frames.
//
// Every decode failure on untrusted bytes throws `DecodeError` — a typed
// error distinct from EBA_REQUIRE's std::logic_error, which stays reserved
// for caller bugs. Malformed, truncated, bit-flipped and over-length buffers
// must land in DecodeError, never UB (tests/test_net.cpp fuzzes this).
//
// `Writer`/`Reader` move whole little-endian words with one grow or bounds
// check each, and the graph codec moves its packed rows as one block. A
// decoder checks a declared size against the bytes left before allocating
// from it. `to_bytes(m, reuse)` encodes into a recycled buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "exchange/authenticated.hpp"
#include "exchange/basic.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "exchange/relay.hpp"
#include "exchange/report.hpp"
#include "failure/pattern.hpp"
#include "graph/comm_graph.hpp"

namespace eba {

using Bytes = std::vector<std::uint8_t>;

/// Typed failure for any decoder fed untrusted bytes. `kind()` classifies
/// the rejection so tools can print actionable diagnostics (and tests can
/// assert the right path fired) without string matching.
class DecodeError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    truncated,     ///< buffer ended before the value it promised
    trailing,      ///< value decoded but unconsumed bytes remain
    malformed,     ///< a field holds a value outside its domain
    bad_magic,     ///< container does not start with the expected magic
    bad_version,   ///< container version unknown to this build
    crc_mismatch,  ///< frame checksum does not match its payload
    missing_frame, ///< a required frame (header, certificate) is absent
    key_mismatch,  ///< keyed digest does not verify under the supplied key
  };

  DecodeError(Kind kind, const std::string& what)
      : std::runtime_error("decode error (" + std::string(kind_name(kind)) +
                           "): " + what),
        kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

  [[nodiscard]] static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::truncated: return "truncated";
      case Kind::trailing: return "trailing bytes";
      case Kind::malformed: return "malformed";
      case Kind::bad_magic: return "bad magic";
      case Kind::bad_version: return "unsupported version";
      case Kind::crc_mismatch: return "crc mismatch";
      case Kind::missing_frame: return "missing frame";
      case Kind::key_mismatch: return "key mismatch";
    }
    return "unknown";
  }

 private:
  Kind kind_;
};

namespace detail {

/// The low `nbytes` (1..8) bytes of `v` at `p`, little-endian; a constant
/// `nbytes` compiles to plain stores.
inline void store_le(std::uint8_t* p, std::uint64_t v, std::size_t nbytes) {
  for (std::size_t b = 0; b < nbytes; ++b)
    p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

/// The little-endian word of `nbytes` (1..8) bytes at `p`.
[[nodiscard]] inline std::uint64_t load_le(const std::uint8_t* p,
                                           std::size_t nbytes) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little)
    std::memcpy(&v, p, nbytes);
  else
    for (std::size_t b = 0; b < nbytes; ++b) v |= std::uint64_t{p[b]} << 8 * b;
  return v;
}

}  // namespace detail

class Writer {
 public:
  Writer() = default;
  /// Writes into `reuse`'s storage: cleared, its capacity kept.
  explicit Writer(Bytes reuse) : out_(std::move(reuse)) { out_.clear(); }

  /// Sizes the buffer for `bytes` more bytes up front; with an exact hint
  /// (encoded_size) a payload costs at most one allocation.
  void reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }
  /// Appends `k` bytes and returns where they start (valid until the next
  /// write).
  [[nodiscard]] std::uint8_t* extend(std::size_t k) {
    const std::size_t at = out_.size();
    out_.resize(at + k);
    return out_.data() + at;
  }
  void u8(std::uint8_t v) { *extend(1) = v; }
  void u32(std::uint32_t v) { word(v, 4); }
  void u64(std::uint64_t v) { word(v, 8); }
  /// Low `nbytes` bytes of `v`, little-endian. Used for the packed n-bit
  /// rows of communication graphs (nbytes = ceil(n / 8)).
  void word(std::uint64_t v, int nbytes) {
    const auto k = static_cast<std::size_t>(nbytes);
    detail::store_le(extend(k), v, k);
  }
  [[nodiscard]] Bytes take() { return std::move(out_); }
  /// The bytes written so far, in place: a writer reused across payloads
  /// (clear, encode, read bytes()) keeps its buffer.
  [[nodiscard]] const Bytes& bytes() const { return out_; }
  void clear() { out_.clear(); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}
  /// Consumes `k` bytes and returns where they start; throws
  /// DecodeError(truncated) when fewer than `k` remain.
  [[nodiscard]] const std::uint8_t* take(std::size_t k) {
    if (k > remaining()) truncated(k);
    pos_ += k;
    return data_.data() + (pos_ - k);
  }
  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(detail::load_le(take(4), 4));
  }
  [[nodiscard]] std::uint64_t u64() { return detail::load_le(take(8), 8); }
  [[nodiscard]] std::uint64_t word(int nbytes) {
    const auto k = static_cast<std::size_t>(nbytes);
    return detail::load_le(take(k), k);
  }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[noreturn]] void truncated(std::size_t wanted) const;

  const Bytes& data_;
  std::size_t pos_ = 0;
};

// -- CRC32 and frames --------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards every durable frame;
/// detects all single-bit flips and all burst errors up to 32 bits.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len);
[[nodiscard]] inline std::uint32_t crc32(const Bytes& b) {
  return crc32(b.data(), b.size());
}

/// One CRC-guarded frame inside a durable container: kind byte, u32 payload
/// length, payload bytes, u32 CRC over (kind, length, payload).
struct Frame {
  std::uint8_t kind = 0;
  Bytes payload;
};

/// Appends a durable container's preamble to `out`: its 4 magic bytes,
/// then its u32 format version.
void write_preamble(Bytes& out, const char (&magic)[4], std::uint32_t version);

/// Appends `payload` to `out` as a frame of the given kind.
void write_frame(Bytes& out, std::uint8_t kind, const Bytes& payload);

/// Reads the frame starting at `pos` (advanced past it on success). Throws
/// DecodeError on truncation or CRC mismatch.
[[nodiscard]] Frame read_frame(const Bytes& buf, std::size_t& pos);

// -- Message codecs ----------------------------------------------------------
//
// Each codec's encoded_size(m) is the exact byte count encode_message writes;
// to_bytes reserves it once. tests/test_net.cpp pins it for every codec.

// E_min messages (a bare Value).
[[nodiscard]] constexpr std::size_t encoded_size(Value) { return 1; }
void encode_message(Writer& w, Value m);
void decode_message(Reader& r, Value& m);

// E_basic messages.
[[nodiscard]] constexpr std::size_t encoded_size(BasicMsg) { return 1; }
void encode_message(Writer& w, BasicMsg m);
void decode_message(Reader& r, BasicMsg& m);

// E_fip messages (a full communication graph): 8 + 2·time·n·⌈n/8⌉ + 2·⌈n/8⌉
// bytes (see encode_graph).
[[nodiscard]] std::size_t encoded_size(const CommGraph& g);
[[nodiscard]] inline std::size_t encoded_size(
    const std::shared_ptr<const CommGraph>& m) {
  EBA_REQUIRE(m != nullptr, "null graph message");
  return encoded_size(*m);
}
void encode_message(Writer& w, const std::shared_ptr<const CommGraph>& m);
/// Decodes into `m`'s graph in place when `m` is its only owner
/// (sole_owned), else into a fresh graph that replaces it.
void decode_message(Reader& r, std::shared_ptr<const CommGraph>& m);

// E_relay messages (decide0 / decide1 / relay0).
[[nodiscard]] constexpr std::size_t encoded_size(RelayMsg) { return 1; }
void encode_message(Writer& w, RelayMsg m);
void decode_message(Reader& r, RelayMsg& m);

// E_report messages (fault/zero report): two tag bytes, two u64 sets.
[[nodiscard]] constexpr std::size_t encoded_size(const ReportMsg&) {
  return 18;
}
void encode_message(Writer& w, const ReportMsg& m);
void decode_message(Reader& r, ReportMsg& m);

// E_auth messages (signed report). The decoder checks the container shape
// only; signature verification belongs to δ, which maps a bad signature to
// an omission rather than a decode failure.
[[nodiscard]] constexpr std::size_t encoded_size(const AuthMsg& m) {
  return encoded_size(m.payload) + 8;
}
void encode_message(Writer& w, const AuthMsg& m);
void decode_message(Reader& r, AuthMsg& m);

void encode_graph(Writer& w, const CommGraph& g);
[[nodiscard]] CommGraph decode_graph(Reader& r);
/// In-place form: rebuilds `g` through reset_blank/assign_rows, keeping its
/// row storage. Header, truncation and preference errors leave `g`
/// untouched; a bad label row leaves it valid but unspecified.
void decode_graph(Reader& r, CommGraph& g);

// -- Failure patterns and run records ----------------------------------------

/// An action as one byte in every durable plane (records, run-log rounds,
/// trace frames, certificate digests): 0 noop, 1 decide 0, 2 decide 1.
[[nodiscard]] std::uint8_t action_byte(const Action& a);
/// The inverse; any other byte is DecodeError(malformed).
[[nodiscard]] Action action_of(std::uint8_t b);

/// Both planes of a failure pattern, chunked per-round word rows. The
/// decoder revalidates plane membership (send drops only from faulty
/// senders, receive drops only at faulty receivers, never self) so a
/// tampered buffer cannot materialize a pattern the constructors forbid.
void encode_pattern(Writer& w, const FailurePattern& alpha);
[[nodiscard]] FailurePattern decode_pattern(Reader& r);

/// The full protocol-agnostic run record: header, inits, and the per-round
/// action / sent / delivered planes (actions one byte each, plane rows as
/// packed words). delivered ⊆ sent is revalidated on decode.
void encode_record(Writer& w, const RunRecord& record);
[[nodiscard]] RunRecord decode_record(Reader& r);

// -- Exchange-state codecs (checkpointing) -----------------------------------
//
// Serialize the SEMANTIC part of each exchange state — the fields equality
// compares. FipState's lazily filled inferred-action cache is derived from
// the graph; a restored state starts with it empty and refills it on
// demand, observably identically.

void encode_state(Writer& w, const MinState& s);
void decode_state(Reader& r, MinState& s);
void encode_state(Writer& w, const BasicState& s);
void decode_state(Reader& r, BasicState& s);
void encode_state(Writer& w, const FipState& s);
void decode_state(Reader& r, FipState& s);
void encode_state(Writer& w, const RelayState& s);
void decode_state(Reader& r, RelayState& s);
void encode_state(Writer& w, const ReportState& s);
void decode_state(Reader& r, ReportState& s);
void encode_state(Writer& w, const AuthState& s);
void decode_state(Reader& r, AuthState& s);

/// Encodes `m` into `reuse`'s storage (cleared first), so a recycled
/// buffer of at least encoded_size(m) bytes costs no allocation; with the
/// default empty buffer the payload is one exact-size allocation.
template <class Message>
[[nodiscard]] Bytes to_bytes(const Message& m, Bytes reuse = {}) {
  Writer w(std::move(reuse));
  w.reserve(encoded_size(m));
  encode_message(w, m);
  return w.take();
}

/// Decodes `b` into `reuse`, the twin of to_bytes(m, reuse): a graph
/// message is rebuilt in `reuse`'s graph when no other message still
/// references it, so a pooled target costs no allocation. The checks are
/// from_bytes(b)'s; after a DecodeError `reuse` holds some valid message.
template <class Message>
Message& from_bytes(const Bytes& b, Message& reuse) {
  Reader r(b);
  decode_message(r, reuse);
  if (!r.exhausted())
    throw DecodeError(DecodeError::Kind::trailing,
                      "message payload has unconsumed bytes");
  return reuse;
}

template <class Message>
[[nodiscard]] Message from_bytes(const Bytes& b) {
  Message m{};
  from_bytes(b, m);
  return m;
}

}  // namespace eba
