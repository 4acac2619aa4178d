// Shared machinery of all execution strategies: per-cell neighbour
// gathering, walk pricing, kernel descriptions, and stats assembly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/contributing_set.h"
#include "core/front_span.h"
#include "core/pattern.h"
#include "core/problem.h"
#include "core/run_config.h"
#include "cpu/calibrate.h"
#include "sim/coalescing.h"
#include "sim/platform.h"
#include "tables/front_major.h"
#include "tables/grid.h"
#include "tables/layout.h"
#include "util/stopwatch.h"

namespace lddp::detail {

/// Cache-amplification of a diagonal-order CPU walk over the row-major
/// host table (anti-diagonal and knight-move fronts): consecutive cells of
/// a front live about one row apart, so cache lines are not reused within
/// the front; partial L2 reuse across adjacent fronts keeps the factor
/// well below the one-line-per-cell worst case.
inline constexpr double kDiagonalCpuAmplification = 4.0;

/// Memory amplification of a strided column walk on the GPU (one warp
/// transaction per lane instead of one per warp).
template <typename V>
double invl_gpu_column_amplification(const sim::GpuSpec& gpu,
                                     std::size_t cols) {
  return sim::coalescing_amplification(sizeof(V), cols, gpu.warp_size,
                                       static_cast<std::size_t>(
                                           gpu.transaction_bytes));
}

/// Memory amplification of a strided column walk on the CPU (one 64 B
/// cache line per element).
template <typename V>
double invl_cpu_column_amplification() {
  return std::max(1.0, 64.0 / static_cast<double>(sizeof(V)));
}

/// Weighted amplification for a segment of `col_cells` strided and
/// `row_cells` contiguous accesses.
inline double mixed_amplification(std::size_t col_cells,
                                  std::size_t row_cells, double col_amp) {
  const std::size_t total = col_cells + row_cells;
  if (total == 0) return 1.0;
  return (static_cast<double>(col_cells) * col_amp +
          static_cast<double>(row_cells)) /
         static_cast<double>(total);
}

/// Modelled memory amplification of a walk over front positions [lo, hi)
/// — what the walk order costs on the table storage the model assumes.
/// A constant for every pattern but Inverted-L, whose shells the paper's
/// framework stores row-major (Section V-B): the column part of shell k
/// (positions [0, rows - 1 - k), ShellLayout order) is strided at
/// `column` per cell, the row part contiguous. The storage a store really
/// uses does not enter the price.
class FrontAmplification {
 public:
  /// 1.0 everywhere: a wavefront-contiguous walk.
  FrontAmplification() = default;
  explicit FrontAmplification(double constant) : constant_(constant) {}
  /// Row-major shells of a `rows`-row table.
  static FrontAmplification strided_shells(std::size_t rows, double column) {
    FrontAmplification a;
    a.shell_rows_ = rows;
    a.column_ = column;
    return a;
  }

  double operator()(std::size_t f, std::size_t lo, std::size_t hi) const {
    if (shell_rows_ == 0) return constant_;
    const std::size_t col_end = std::min(hi, shell_rows_ - 1 - f);
    const std::size_t col_cells = col_end > lo ? col_end - lo : 0;
    return mixed_amplification(col_cells, hi - lo - col_cells, column_);
  }

 private:
  double constant_ = 1.0;
  std::size_t shell_rows_ = 0;  // > 0: strided shells
  double column_ = 1.0;
};

/// Computes one cell, reading neighbours through `read(i, j)`. `deps` and
/// `bound` are hoisted out of the per-cell loop by the caller (they are
/// loop-invariant, but the compiler cannot always prove that through the
/// problem object).
template <LddpProblem P, typename ReadFn>
inline typename P::Value compute_cell(const P& p, ContributingSet deps,
                                      typename P::Value bound, std::size_t i,
                                      std::size_t j, std::size_t cols,
                                      ReadFn&& read) {
  Neighbors<typename P::Value> nb{bound, bound, bound, bound};
  if (deps.has_w() && j > 0) nb.w = read(i, j - 1);
  if (i > 0) {
    if (deps.has_nw() && j > 0) nb.nw = read(i - 1, j - 1);
    if (deps.has_n()) nb.n = read(i - 1, j);
    if (deps.has_ne() && j + 1 < cols) nb.ne = read(i - 1, j + 1);
  }
  return p.compute(i, j, nb);
}

/// Assembles columns [j_begin, j_end) of a row-major grid from storage in
/// the layout's own dense flat() order (see unpack_front_major for the
/// cache blocking).
template <typename V, typename Layout>
void unpack_table(const V* src, const Layout& layout, Grid<V>& table,
                  std::size_t j_begin, std::size_t j_end) {
  unpack_front_major(src, FrontMajorIndex<Layout>(layout), table, j_begin,
                     j_end);
}

/// Work profile for the CPU pricing of this solve: when the run takes the
/// batch-front path, the calibrated vector-throughput term is applied so
/// model-driven decisions (parallel-vs-serial gating, t_switch/t_share
/// defaults, tuner sweeps) see the real CPU speed.
template <LddpProblem P>
cpu::WorkProfile cpu_work_for(const P& p, bool use_batch) {
  cpu::WorkProfile w = work_profile_of(p);
  if (use_batch) w.vector_speedup = cpu::calibrated_vector_speedup();
  return w;
}

/// Kernel description for a problem's f on a wavefront-contiguous layout
/// (mem_amplification 1.0 — that is the point of the layout).
template <LddpProblem P>
sim::KernelInfo kernel_info_for(const P& p, const char* name) {
  sim::KernelInfo info;
  info.name = name;
  info.work = work_profile_of(p);
  info.mem_amplification = 1.0;
  return info;
}

/// Fills mode-independent stats fields after a run.
inline void finish_stats(SolveStats& stats, sim::Platform& platform,
                         double real_seconds) {
  stats.sim_seconds = platform.elapsed();
  stats.real_seconds = real_seconds;
  stats.cpu_busy_seconds = platform.cpu_busy();
  stats.gpu_busy_seconds = platform.gpu().compute_busy();
  stats.copy_busy_seconds = platform.gpu().copy_busy();
  const sim::MemoryStats& mem = platform.gpu().stats();
  stats.h2d_bytes = mem.h2d_bytes;
  stats.d2h_bytes = mem.d2h_bytes;
  stats.h2d_copies = mem.h2d_copies;
  stats.d2h_copies = mem.d2h_copies;
}

/// Pricing and stats of a serial row scan, shared by every path that runs
/// one (solve_cpu_serial, the serial frontier scan, batch lane jobs): one
/// serial-priced CPU op over all cells — vector-priced when W-free rows
/// take the batch hook — on `platform` if given, and the scan's stats.
/// The caller sets peak_table_bytes.
template <LddpProblem P>
void finish_serial_scan(const P& p, sim::Platform* platform,
                        SolveStats* stats, bool batch, double real_seconds) {
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  if (platform) {
    const bool use_batch = batch && has_batch_front_v<P> && !deps.has_w();
    platform->cpu_charge(n * m, cpu_work_for(p, use_batch),
                         /*parallel=*/false);
  }
  if (stats == nullptr) return;
  stats->mode_used = Mode::kCpuSerial;
  stats->pattern = classify(deps);
  stats->transfer = TransferNeed::kNone;
  stats->fronts = n;  // scan rows
  stats->cells = n * m;
  if (platform) finish_stats(*stats, *platform, real_seconds);
  else stats->real_seconds = real_seconds;
}

}  // namespace lddp::detail
