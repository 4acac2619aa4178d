// Pure-CPU executions.
//
// * solve_cpu_serial — single-threaded row-major scan. A row-major sweep
//   (i ascending, j ascending) respects every LDDP-Plus dependency (all
//   four representative cells lie up or left), so this is the universal
//   correctness reference for all patterns.
// * solve_cpu_parallel — the paper's multicore baseline: wavefronts of the
//   problem's pattern, block-per-thread within each front (Section IV-A),
//   over a store (full table or rolling window).
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"

namespace lddp {

/// Serial reference. Records a single serial-priced op on the platform's
/// CPU timeline if `platform` is given; execution always happens. Rows
/// sweep with the W-carry scalar loop; W-free problems with the batch
/// hook vectorize each row's interior (a W dependency is sequential
/// within the row, so those problems stay scalar here).
template <LddpProblem P>
Grid<typename P::Value> solve_cpu_serial(const P& p, sim::Platform* platform,
                                         SolveStats* stats,
                                         bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  Grid<V> table(n, m);
  V* const data = table.data();
  for (std::size_t i = 0; i < n; ++i) {
    const V* prev = i > 0 ? data + (i - 1) * m : nullptr;
    detail::run_row(p, deps, bound, i, 0, m, m, prev, data + i * m, batch);
  }
  detail::finish_serial_scan(p, platform, stats, batch, wall.seconds());
  if (stats) stats->peak_table_bytes = n * m * sizeof(V);
  return table;
}

/// Multicore wavefront execution over the store's layout — the paper's
/// OpenMP-style baseline: one fork/join parallel region per front.
/// `amp` prices each front's walk order in the model (cache-hostile
/// diagonal fronts, the strided column parts of row-major shells). The
/// store (core/strategies/frontier_engine.h) decides where cells live —
/// the whole table or a rolling window — and the schedule is the same
/// either way.
template <LddpProblem P, typename Store>
auto solve_cpu_parallel(const P& p, Store& store, sim::Platform& platform,
                        SolveStats* stats,
                        const detail::FrontAmplification& amp = {},
                        bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const auto& layout = store.layout();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };
  sim::Platform::CpuFrontOpts opts;
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    const std::size_t fs = layout.front_size(f);
    opts.mem_amplification = amp(f, 0, fs);
    // OpenMP-style "if" clause: fronts too small to amortize the fork/join
    // run on the issuing thread.
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, fs, opts.mem_amplification);
    platform.cpu_front(
        fs, work,
        [&](std::size_t lo, std::size_t hi) {
          detail::run_front_range(p, deps, bound, layout, f, lo, hi, addr,
                                  batch);
        },
        opts);
    store.after_front(f);
  }
  auto table = store.finish();
  if (stats) {
    stats->mode_used = Mode::kCpuParallel;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = p.rows() * p.cols();
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
