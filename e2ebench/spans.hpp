// Span recorder and allocation attribution for bench_e2e's traced phase.
//
// A span is one call into a layer: its layer, start and end (steady_clock
// ns), the span that encloses it, and the agreement instance it served.
// Spans are kept in memory and written out (Chrome trace-event JSON) only
// when the run ends. A layer's self time is its span's duration minus the
// durations of its direct children; allocation counts are attributed the
// same way, from the per-thread counter that bench_e2e.cpp's replacement
// global operator new increments.
//
// Every span the traced driver opens is nested inside a `round` span (one
// scheduler step of one instance), so the self times of all spans sum to
// the total round time exactly; `aggregate` reports whether that held.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

/// Allocations made by the current thread (bumped by operator new).
inline thread_local std::uint64_t tls_allocs = 0;

enum class Layer : std::uint8_t {
  round,               ///< one scheduler step of one instance (the root)
  action_infer,        ///< P_opt view inference over every agent's cone
  action_decide,       ///< Stepper::begin_round: every agent's action
  exchange_mu,         ///< X::message (+ message_bits accounting)
  serialize_encode,    ///< to_bytes of every staged message
  bus_exchange,        ///< BusPool::exchange_round (adversary filter)
  serialize_decode,    ///< from_bytes of every delivered payload
  exchange_delta,      ///< Stepper::finish_round: δ over every inbox
  store_intent,        ///< RunLog::log_intent (write-ahead record)
  store_delta,         ///< RunLog::log_delta of the completed round
  checkpoint_encode,   ///< checkpoint_stepper (EBCK container)
  store_checkpoint,    ///< RunLog::log_checkpoint + retention GC
  audit_trace_append,  ///< TraceWriter::add_round
  store_recover,       ///< power cut, journal reopen, recover_run, re-admit
  audit_certificate,   ///< build_certificate + TraceWriter::finish
  count
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::count);

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "round",           "action.infer",       "action.decide",
    "exchange.mu",     "serialize.encode",   "bus.exchange",
    "serialize.decode", "exchange.delta",    "store.intent",
    "store.delta",     "checkpoint.encode",  "store.checkpoint",
    "audit.trace_append", "store.recover",   "audit.certificate"};

struct Span {
  Layer layer = Layer::round;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t instance = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
};

/// Single-threaded span store. A disabled recorder makes Scope a no-op (no
/// clock reads), which is how the untraced comparison pass runs.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    current_ = -1;
  }

  std::int32_t open(Layer layer, std::uint32_t instance) {
    // The recorder's own storage growth is not the layer's allocation.
    const std::uint64_t before = tls_allocs;
    spans_.push_back(Span{layer, current_, instance, 0, 0, 0, 0});
    tls_allocs = before;
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    current_ = id;
    Span& s = spans_.back();
    s.allocs_start = tls_allocs;
    s.start_ns = now_ns();
    return id;
  }

  void close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.allocs_end = tls_allocs;
    current_ = s.parent;
  }

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span: opened at construction, closed at scope exit.
class Scope {
 public:
  Scope(Recorder& rec, Layer layer, std::size_t instance)
      : rec_(rec),
        id_(rec.enabled()
                ? rec.open(layer, static_cast<std::uint32_t>(instance))
                : -1) {}
  ~Scope() {
    if (id_ >= 0) rec_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& rec_;
  std::int32_t id_;
};

/// Self time and self allocations per layer, summed over a span set.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::array<std::int64_t, kLayerCount> self_allocs{};
  std::int64_t round_ns = 0;      ///< Σ durations of root `round` spans
  std::int64_t round_allocs = 0;  ///< Σ allocations inside root rounds

  [[nodiscard]] std::int64_t self_ns_sum() const {
    std::int64_t sum = 0;
    for (std::int64_t v : self_ns) sum += v;
    return sum;
  }

  void add(const LayerTotals& o) {
    for (std::size_t k = 0; k < kLayerCount; ++k) {
      self_ns[k] += o.self_ns[k];
      self_allocs[k] += o.self_allocs[k];
    }
    round_ns += o.round_ns;
    round_allocs += o.round_allocs;
  }
};

[[nodiscard]] inline LayerTotals aggregate(const std::vector<Span>& spans) {
  LayerTotals out;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto allocs =
        static_cast<std::int64_t>(s.allocs_end - s.allocs_start);
    out.self_ns[static_cast<std::size_t>(s.layer)] += dur;
    out.self_allocs[static_cast<std::size_t>(s.layer)] += allocs;
    if (s.parent >= 0) {
      const Layer parent = spans[static_cast<std::size_t>(s.parent)].layer;
      out.self_ns[static_cast<std::size_t>(parent)] -= dur;
      out.self_allocs[static_cast<std::size_t>(parent)] -= allocs;
    } else if (s.layer == Layer::round) {
      out.round_ns += dur;
      out.round_allocs += allocs;
    }
  }
  return out;
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events, µs
/// timestamps relative to the first span). Returns false on an I/O error.
[[nodiscard]] inline bool write_chrome_trace(const std::vector<Span>& spans,
                                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"instance\": %u, \"allocs\": %llu}}%s\n",
                 kLayerNames[static_cast<std::size_t>(s.layer)],
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, k,
                 static_cast<int>(s.parent), static_cast<unsigned>(s.instance),
                 static_cast<unsigned long long>(s.allocs_end - s.allocs_start),
                 k + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
