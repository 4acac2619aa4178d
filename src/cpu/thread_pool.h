// Host thread pool: a handle on the work-stealing executor.
//
// The paper's OpenMP fork/join and persistent-thread models differ only
// in what a front costs, and that difference lives in the cost model
// (CpuFrontOpts::streamed, hetero_strip_barrier_us). Real execution has
// one substrate: the StealingExecutor's demand-driven morsels. A pool
// either owns an executor (`ThreadPool(n)`: n - 1 workers plus the
// caller) or borrows one (`ThreadPool(&exec)`), and forwards every
// parallel region to it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "cpu/stealing_executor.h"
#include "util/check.h"

namespace lddp::cpu {

/// Usage:
///   ThreadPool pool(6);
///   pool.parallel_for(0, n, [&](std::size_t i) { ... });
///
/// Any number of threads may drive one pool at once; their regions
/// interleave on the executor's workers. Regions do not nest. Body
/// exceptions are rethrown on the driving thread.
class ThreadPool {
 public:
  /// Owns an executor of `num_threads - 1` workers (the calling thread is
  /// the last one). Throws CheckError when `num_threads` is 0.
  explicit ThreadPool(std::size_t num_threads);
  /// Borrows `exec`, which must outlive the pool.
  explicit ThreadPool(StealingExecutor* exec);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return exec_->size(); }
  StealingExecutor& executor() const { return *exec_; }

  /// Runs body(i) for every i in [begin, end); the executor may split the
  /// range down to single items, so each item should be coarse (a tile, a
  /// kernel block), not a cell.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body) {
    exec_->parallel_items(begin, end, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }

  /// Cell-granular variant: body(lo, hi) over disjoint sub-ranges, so hot
  /// loops avoid a std::function call per cell. `grain` is the morsel
  /// size in cells (0 = executor default), usually derived from the
  /// calibrated per-cell cost model (sim::Platform::front_grain).
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 0) {
    exec_->parallel_region(begin, end, grain, body);
  }

 private:
  std::unique_ptr<StealingExecutor> owned_;
  StealingExecutor* exec_;
};

/// Process-wide pool over cpu::shared_executor(), for solo solves that
/// want real parallelism (RunConfig::pool). Safe to share across
/// concurrent solves. Lazily constructed.
ThreadPool& shared_stealing_pool();

}  // namespace lddp::cpu
