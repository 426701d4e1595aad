// Calibration kernel for bench_e2e's timed phase.
//
// Run on `threads` threads immediately before every measured batch. Each
// thread fills its own fixed 1 MiB buffer from splitmix64, sorts it, and
// makes one dependent hash probe per word into it; then it makes
// kTableProbes dependent probes into its own 32 MiB table, filled once at
// construction. The first part tracks core and L2 speed, the second the
// shared last-level cache and memory that the larger workloads (popt_n32)
// depend on; with the sort alone, popt_n32's calibrated throughput spread
// 9–11% over ten-run sets, with both 5–6%. The kernel allocates nothing
// and does identical work on every call, so its wall time tracks how fast
// the host is running right now (frequency, co-tenant load, cache
// pressure).
// Timings are scaled by kCalibRefMs / calib_ms, which maps them to a host
// on which one kernel call takes kCalibRefMs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2e {

/// One kernel call (2 threads) on the host the bounds in BENCHMARK.json
/// were set on (4-vCPU Xeon VM): the median of 1450 calls spread over
/// 24 bench_e2e runs.
inline constexpr double kCalibRefMs = 31.68;

[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Calibrator {
 public:
  static constexpr std::size_t kWords =
      (std::size_t{1} << 20) / sizeof(std::uint64_t);
  static constexpr std::size_t kTableWords =
      (std::size_t{32} << 20) / sizeof(std::uint64_t);
  static constexpr std::size_t kTableProbes = 150000;

  explicit Calibrator(int threads)
      : buffers_(static_cast<std::size_t>(threads),
                 std::vector<std::uint64_t>(kWords)),
        tables_(static_cast<std::size_t>(threads),
                std::vector<std::uint64_t>(kTableWords)),
        sinks_(static_cast<std::size_t>(threads), 0) {
    for (std::vector<std::uint64_t>& table : tables_)
      for (std::size_t i = 0; i < table.size(); ++i) table[i] = splitmix64(i);
  }

  /// Runs the kernel once on every thread at the same time; returns the
  /// wall time of the slowest, in ms.
  double run_ms() {
    const auto start = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> helpers;
      for (std::size_t k = 1; k < buffers_.size(); ++k)
        helpers.emplace_back(
            [this, k] { sinks_[k] = kernel(buffers_[k], tables_[k]); });
      sinks_[0] = kernel(buffers_[0], tables_[0]);
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  /// Folded kernel results; printing it keeps the work observable.
  [[nodiscard]] std::uint64_t checksum() const {
    std::uint64_t sum = 0;
    for (std::uint64_t s : sinks_) sum += s;
    return sum;
  }

 private:
  static std::uint64_t kernel(std::vector<std::uint64_t>& buf,
                              const std::vector<std::uint64_t>& table) {
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = splitmix64(i);
    std::sort(buf.begin(), buf.end());
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < buf.size(); ++i)
      acc += buf[splitmix64(acc ^ i) & (kWords - 1)];
    for (std::size_t i = 0; i < kTableProbes; ++i)
      acc += table[splitmix64(acc ^ i) & (kTableWords - 1)];
    return acc;
  }

  std::vector<std::vector<std::uint64_t>> buffers_;
  std::vector<std::vector<std::uint64_t>> tables_;
  std::vector<std::uint64_t> sinks_;
};

}  // namespace e2e
