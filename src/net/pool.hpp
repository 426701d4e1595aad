// Shared fixed-size worker-pool primitives.
//
// Factored out of net/workload.hpp so every fan-out user — the
// many-instance workload driver and the KBP synthesizer's per-round test
// evaluation (kripke/synthesis.hpp) — shares one spawn/join/error-propagate
// implementation instead of each hand-rolling thread management:
//
//   * resolve_workers — turns a requested count (0 = hardware concurrency)
//     into an actual one, clamped to the number of work items;
//   * run_workers     — runs one worker body per thread, joins all, and
//     rethrows the first exception (single-worker calls run inline);
//   * parallel_for    — dynamic chunked loop over an index range, for
//     callers whose items are independent (no requeue semantics).
//
// Schedulers with richer queue behavior (the workload driver requeues
// instances after every round) keep their own queue and build on
// run_workers for the thread lifecycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace eba {

/// Resolves a requested worker count: 0 (or negative) = hardware
/// concurrency, and never more workers than work items (minimum 1).
[[nodiscard]] inline int resolve_workers(int requested, std::size_t items) {
  int workers = requested > 0
                    ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;
  if (items > 0 && static_cast<std::size_t>(workers) > items)
    workers = static_cast<int>(items);
  return workers;
}

/// Runs `body(worker_index)` on `workers` threads, joins them all, and
/// rethrows the first exception any worker threw. With one worker the body
/// runs inline on the calling thread (same semantics, no spawn cost).
///
/// A body that can leave shared state in a “peers would block forever”
/// condition must signal its peers before throwing (see run_workload).
template <class Body>
void run_workers(int workers, Body&& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::mutex mu;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
      threads.emplace_back([&body, &mu, &first_error, w] {
        try {
          body(w);
        } catch (...) {
          std::lock_guard lock(mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Applies `fn(begin, end)` over [0, count) in dynamically claimed chunks of
/// `grain` indices across `workers` threads (resolve_workers applied to the
/// chunk count, so a range that fits one chunk runs inline on the calling
/// thread). Deterministic provided fn writes only to per-index slots.
template <class Fn>
void parallel_for(int workers, std::size_t count, std::size_t grain,
                  Fn&& fn) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  workers = resolve_workers(workers, (count + grain - 1) / grain);
  if (workers == 1) {
    fn(std::size_t{0}, count);
    return;
  }
  std::atomic<std::size_t> next{0};
  run_workers(workers, [&next, &fn, count, grain](int /*worker*/) {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) return;
      fn(begin, std::min(begin + grain, count));
    }
  });
}

}  // namespace eba
