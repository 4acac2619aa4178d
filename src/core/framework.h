// Public entry point of the LDDP-Plus framework (Section V-C).
//
// A user supplies a problem — the function f, its contributing set, the
// boundary/initialization values — and calls solve(). The framework
// classifies the contributing set into a pattern (Table I), reduces
// Vertical / mirrored-Inverted-L to their canonical siblings by symmetry,
// picks the wavefront-contiguous layout and the execution strategy for the
// requested mode, and returns the filled table plus timing statistics.
//
//   LevenshteinProblem p(a, b);
//   auto [table, stats] = lddp::solve(p);   // heterogeneous by default
//   int distance = table.at(p.rows() - 1, p.cols() - 1);
#pragma once

#include "core/adapters.h"
#include "core/pattern.h"
#include "core/problem.h"
#include "core/run_config.h"
#include "core/strategies/cpu_strategy.h"
#include "core/strategies/cpu_tiled.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/gpu_strategy.h"
#include "core/strategies/gpu_tiled.h"
#include "core/strategies/hetero_antidiagonal.h"
#include "core/strategies/hetero_horizontal.h"
#include "core/strategies/hetero_invertedl.h"
#include "core/strategies/hetero_knightmove.h"
#include "core/strategies/hetero_tiled.h"
#include "sim/platform.h"

namespace lddp {

/// The filled DP table (row-major) and the run's measurements.
template <LddpProblem P>
struct SolveResult {
  Grid<typename P::Value> table;
  SolveStats stats;
};

/// Result of solve_frontier: the table is a FrontierTable — checkpoint
/// rows plus on-demand rematerialization on the frontier tier, a plain
/// grid facade on the full tier. Cell reads go through table.at(i, j)
/// (by value) in user orientation either way.
template <LddpProblem P>
struct FrontierSolveResult {
  FrontierTable<typename P::Value> table;
  SolveStats stats;
};

namespace detail {

/// Auto mode: small tables run on the multicore CPU (kernel-launch and
/// transfer overheads dominate them — the Section VI observation); large
/// tables use the heterogeneous split.
inline Mode resolve_auto(Mode mode, std::size_t cells) {
  if (mode != Mode::kAuto) return mode;
  constexpr std::size_t kHeteroThresholdCells = 512 * 512;
  return cells < kHeteroThresholdCells ? Mode::kCpuParallel
                                       : Mode::kHeterogeneous;
}

/// RunConfig::tile resolution: 0 keeps the legacy untiled strategies, a
/// positive value is used as-is, -1 asks the heuristics for a model-based
/// default for this problem/platform.
template <LddpProblem P>
std::size_t resolve_tile(const P& p, const RunConfig& cfg) {
  if (cfg.tile == 0) return 0;
  if (cfg.tile > 0) return static_cast<std::size_t>(cfg.tile);
  const sim::KernelInfo info = kernel_info_for(p, "auto.tile");
  return default_tile(cfg.platform, info, p.rows(), p.cols(),
                      sizeof(typename P::Value), p.deps(),
                      cfg.fused_launches);
}

template <LddpProblem P>
SolveResult<P> solve_canonical(const P& p, Pattern pattern,
                               const RunConfig& cfg) {
  sim::Platform platform(cfg.platform, cfg.pool, cfg.buffer_pool);
  // Lifecycle enforcement rides the Timeline: every strategy's recorded op
  // (CPU front, kernel, copy) passes through Timeline::record, so a single
  // install point gives cancellation/deadline checks at front granularity
  // across all execution layers without touching any strategy.
  platform.timeline().set_request_control(cfg.control);
  const Mode mode = resolve_auto(cfg.mode, p.rows() * p.cols());
  const bool fused = cfg.fused_launches;
  const bool batch = cfg.batch_kernels;
  SolveResult<P> result;
  switch (mode) {
    case Mode::kCpuSerial:
      result.table = solve_cpu_serial(p, &platform, &result.stats, batch);
      break;

    case Mode::kCpuTiled:
      result.table = solve_cpu_tiled(p, platform, cfg.cpu_tile,
                                     &result.stats, batch);
      break;

    case Mode::kCpuParallel:
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_cpu_parallel(
              p, AntiDiagonalLayout(p.rows(), p.cols()), platform,
              &result.stats, detail::kDiagonalCpuAmplification, batch);
          break;
        case Pattern::kHorizontal:
          result.table = solve_cpu_parallel(
              p, RowMajorLayout(p.rows(), p.cols()), platform,
              &result.stats, /*mem_amplification=*/1.0, batch);
          break;
        case Pattern::kKnightMove:
          result.table = solve_cpu_parallel(
              p, KnightMoveLayout(p.rows(), p.cols()), platform,
              &result.stats, detail::kDiagonalCpuAmplification, batch);
          break;
        case Pattern::kInvertedL:
          result.table = solve_cpu_invertedl(p, platform, &result.stats,
                                             batch);
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kGpu:
      if (const std::size_t tile = resolve_tile(p, cfg); tile > 0) {
        result.table =
            solve_gpu_tiled(p, platform, tile, &result.stats, fused, batch);
        break;
      }
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table =
              solve_gpu(p, AntiDiagonalLayout(p.rows(), p.cols()), platform,
                        &result.stats, fused, batch);
          break;
        case Pattern::kHorizontal:
          result.table = solve_gpu(p, RowMajorLayout(p.rows(), p.cols()),
                                   platform, &result.stats, fused, batch);
          break;
        case Pattern::kKnightMove:
          result.table = solve_gpu(p, KnightMoveLayout(p.rows(), p.cols()),
                                   platform, &result.stats, fused, batch);
          break;
        case Pattern::kInvertedL:
          result.table = solve_gpu_invertedl(p, platform, &result.stats,
                                             fused, batch);
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kHeterogeneous:
      if (const std::size_t tile = resolve_tile(p, cfg); tile > 0) {
        result.table = solve_hetero_tiled(p, platform, cfg.hetero, tile,
                                          &result.stats, fused, batch);
        break;
      }
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table =
              solve_hetero_antidiagonal(p, platform, cfg.hetero,
                                        &result.stats, fused, batch);
          break;
        case Pattern::kHorizontal:
          result.table =
              solve_hetero_horizontal(p, platform, cfg.hetero, &result.stats,
                                      fused, batch);
          break;
        case Pattern::kKnightMove:
          result.table =
              solve_hetero_knightmove(p, platform, cfg.hetero, &result.stats,
                                      fused, batch);
          break;
        case Pattern::kInvertedL:
          result.table =
              solve_hetero_invertedl(p, platform, cfg.hetero, &result.stats,
                                     fused, batch);
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kAuto:
      LDDP_CHECK_MSG(false, "unreachable: auto mode was resolved above");
  }
  // Table-storage high-water of a full-table solve: the host grid, plus
  // the front-major table it is unpacked from — the device table of the
  // GPU modes, the host staging table of diagonal-order CPU wavefronts.
  const bool staged =
      mode == Mode::kGpu || mode == Mode::kHeterogeneous ||
      (mode == Mode::kCpuParallel && (pattern == Pattern::kAntiDiagonal ||
                                      pattern == Pattern::kKnightMove));
  result.stats.peak_table_bytes =
      p.rows() * p.cols() * sizeof(typename P::Value) * (staged ? 2 : 1);
  if (!cfg.trace_path.empty())
    platform.timeline().export_chrome_trace(cfg.trace_path);
  // Detach the per-attempt control before copying the timeline out: the
  // recorded schedule outlives this attempt (batch replay, retries).
  platform.timeline().set_request_control(nullptr);
  if (cfg.record_timeline != nullptr)
    *cfg.record_timeline = platform.timeline();
  return result;
}

/// Frontier-tier counterpart of solve_canonical: every mode x pattern
/// runs a frontier engine when the layout admits a bounded front window,
/// and falls back to the full-table strategy behind the FrontierTable
/// facade otherwise (Inverted-L with forward-looking dependencies, and
/// the heterogeneous Inverted-L split). kCpuTiled runs the parallel
/// frontier engine (there is no tiled frontier engine) and
/// RunConfig::tile is ignored — the window replaces tiling's locality
/// role. The returned table has no remat callback or transform yet; the
/// solve_frontier wrappers attach both.
template <LddpProblem P>
FrontierSolveResult<P> solve_frontier_canonical(const P& p, Pattern pattern,
                                                const RunConfig& cfg) {
  using V = typename P::Value;
  sim::Platform platform(cfg.platform, cfg.pool, cfg.buffer_pool);
  platform.timeline().set_request_control(cfg.control);
  Mode mode = resolve_auto(cfg.mode, p.rows() * p.cols());
  if (mode == Mode::kCpuTiled) mode = Mode::kCpuParallel;
  const std::size_t K =
      resolve_checkpoint_interval(cfg.checkpoint_interval, p.rows());
  const bool fused = cfg.fused_launches;
  const bool batch = cfg.batch_kernels;
  const ContributingSet deps = p.deps();
  const std::size_t n = p.rows(), m = p.cols();
  FrontierSolveResult<P> result;
  SolveStats& stats = result.stats;
  // Full-table fallback, wrapped in the facade so consumers are uniform.
  auto take_full = [&](Grid<V> g, bool device_copy) {
    stats.peak_table_bytes =
        n * m * sizeof(V) * (device_copy ? 2 : 1);
    result.table = FrontierTable<V>::full(std::move(g));
  };
  switch (mode) {
    case Mode::kCpuSerial:
      result.table = solve_frontier_serial(p, &platform, &stats, batch, K);
      break;

    case Mode::kCpuParallel:
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_frontier_parallel(
              p, AntiDiagonalLayout(n, m), platform, &stats,
              detail::kDiagonalCpuAmplification, batch, K);
          break;
        case Pattern::kHorizontal:
          result.table = solve_frontier_parallel(
              p, RowMajorLayout(n, m), platform, &stats,
              /*mem_amplification=*/1.0, batch, K);
          break;
        case Pattern::kKnightMove:
          result.table = solve_frontier_parallel(
              p, KnightMoveLayout(n, m), platform, &stats,
              detail::kDiagonalCpuAmplification, batch, K);
          break;
        case Pattern::kInvertedL: {
          const ShellLayout shell(n, m);
          if (frontier_window_fronts(shell, deps) > 0) {
            result.table = solve_frontier_parallel(
                p, shell, platform, &stats,
                detail::kDiagonalCpuAmplification, batch, K);
          } else {
            take_full(solve_cpu_invertedl(p, platform, &stats, batch),
                      false);
          }
          break;
        }
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kGpu:
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_frontier_gpu(p, AntiDiagonalLayout(n, m),
                                            platform, &stats, fused, batch,
                                            K);
          break;
        case Pattern::kHorizontal:
          result.table = solve_frontier_gpu(p, RowMajorLayout(n, m),
                                            platform, &stats, fused, batch,
                                            K);
          break;
        case Pattern::kKnightMove:
          result.table = solve_frontier_gpu(p, KnightMoveLayout(n, m),
                                            platform, &stats, fused, batch,
                                            K);
          break;
        case Pattern::kInvertedL: {
          const ShellLayout shell(n, m);
          if (frontier_window_fronts(shell, deps) > 0) {
            result.table = solve_frontier_gpu(p, shell, platform, &stats,
                                              fused, batch, K);
          } else {
            take_full(solve_gpu_invertedl(p, platform, &stats, fused,
                                          batch),
                      true);
          }
          break;
        }
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kHeterogeneous:
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_frontier_hetero(
              p, AntiDiagonalLayout(n, m), Pattern::kAntiDiagonal, platform,
              cfg.hetero, &stats, detail::kDiagonalCpuAmplification, fused,
              batch, K);
          break;
        case Pattern::kHorizontal:
          result.table = solve_frontier_hetero(
              p, RowMajorLayout(n, m), Pattern::kHorizontal, platform,
              cfg.hetero, &stats, /*mem_amplification=*/1.0, fused, batch,
              K);
          break;
        case Pattern::kKnightMove:
          result.table = solve_frontier_hetero(
              p, KnightMoveLayout(n, m), Pattern::kKnightMove, platform,
              cfg.hetero, &stats, detail::kDiagonalCpuAmplification, fused,
              batch, K);
          break;
        case Pattern::kInvertedL:
          // The L-shaped shell split has no strip decomposition over a
          // window; run the full-table heterogeneous strategy.
          take_full(solve_hetero_invertedl(p, platform, cfg.hetero, &stats,
                                           fused, batch),
                    true);
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kCpuTiled:
    case Mode::kAuto:
      LDDP_CHECK_MSG(false, "unreachable: mode was resolved above");
  }
  if (!cfg.trace_path.empty())
    platform.timeline().export_chrome_trace(cfg.trace_path);
  platform.timeline().set_request_control(nullptr);
  if (cfg.record_timeline != nullptr)
    *cfg.record_timeline = platform.timeline();
  return result;
}

/// Shared body of the solve_frontier overloads. `holder` is a copyable
/// callable yielding the (caller-owned) problem; it is baked into the
/// table's rematerialization callback, so whatever it references must
/// outlive the returned table.
template <LddpProblem P, typename Holder>
FrontierSolveResult<P> solve_frontier_impl(const P& p, Holder holder,
                                           const RunConfig& cfg) {
  using V = typename P::Value;
  using Transform = typename FrontierTable<V>::Transform;
  LDDP_CHECK_MSG(p.rows() > 0 && p.cols() > 0,
                 "problem table must be non-empty");
  if (cfg.storage == Storage::kFull) {
    auto inner = solve(p, cfg);
    FrontierSolveResult<P> out;
    out.stats = inner.stats;
    out.table = FrontierTable<V>::full(std::move(inner.table));
    return out;
  }
  const Pattern pattern = classify(p.deps());
  FrontierSolveResult<P> out;
  if (pattern == Pattern::kVertical) {
    // Horizontal on the transposed table; the undo is a coordinate view
    // on the facade (a frontier table cannot be transposed eagerly).
    TransposedProblem<P> t(p);
    auto inner = solve_frontier_canonical(t, Pattern::kHorizontal, cfg);
    out.table = std::move(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kVertical;
    if (out.table.frontier())
      attach_row_remat(
          out.table,
          [holder]() { return TransposedProblem<P>(holder()); },
          cfg.batch_kernels);
    out.table.set_transform(Transform::kTransposed);
    return out;
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    MirroredProblem<P> mp(p);
    auto inner = solve_frontier_canonical(mp, Pattern::kInvertedL, cfg);
    out.table = std::move(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kMirroredInvertedL;
    if (out.table.frontier())
      attach_row_remat(out.table,
                       [holder]() { return MirroredProblem<P>(holder()); },
                       cfg.batch_kernels);
    out.table.set_transform(Transform::kMirrored);
    return out;
  }
  auto inner = solve_frontier_canonical(p, pattern, cfg);
  out.table = std::move(inner.table);
  out.stats = inner.stats;
  if (out.table.frontier())
    attach_row_remat(out.table, holder, cfg.batch_kernels);
  return out;
}

}  // namespace detail

/// Solves the problem with the configured platform and mode. Thread-safe
/// for distinct problem/config objects; one call uses one simulated
/// platform instance.
template <LddpProblem P>
SolveResult<P> solve(const P& p, const RunConfig& cfg = RunConfig{}) {
  LDDP_CHECK_MSG(p.rows() > 0 && p.cols() > 0,
                 "problem table must be non-empty");
  const Pattern pattern = classify(p.deps());

  if (pattern == Pattern::kVertical) {
    // Horizontal on the transposed table (Section III symmetry).
    TransposedProblem<P> t(p);
    auto inner = detail::solve_canonical(t, Pattern::kHorizontal, cfg);
    SolveResult<P> out;
    out.table = transpose_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kVertical;
    return out;
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    // Inverted-L on the mirrored table.
    MirroredProblem<P> mp(p);
    auto inner = detail::solve_canonical(mp, Pattern::kInvertedL, cfg);
    SolveResult<P> out;
    out.table = mirror_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kMirroredInvertedL;
    return out;
  }
  return detail::solve_canonical(p, pattern, cfg);
}

/// Solves the problem on the storage tier selected by cfg.storage:
/// kFrontier (and kAuto) keeps only checkpoint rows plus the live front
/// window during the sweep — O(rows/K * cols) retained instead of
/// O(rows * cols) — and serves interior reads through checkpointed
/// rematerialization; kFull wraps the ordinary solve() in the same
/// facade. Final values and every traceback are bit-identical across
/// tiers. The problem must outlive the returned table (its
/// rematerialization callback re-runs p's recurrence); use the
/// shared_ptr overload to have the table share ownership instead.
template <LddpProblem P>
FrontierSolveResult<P> solve_frontier(const P& p,
                                      const RunConfig& cfg = RunConfig{}) {
  return detail::solve_frontier_impl(
      p, [pp = &p]() -> const P& { return *pp; }, cfg);
}

/// Ownership-sharing overload: the returned table keeps the problem
/// alive for as long as it may rematerialize (the batch engine uses this
/// so tables can outlive their jobs).
template <LddpProblem P>
FrontierSolveResult<P> solve_frontier(std::shared_ptr<const P> sp,
                                      const RunConfig& cfg = RunConfig{}) {
  LDDP_CHECK(sp != nullptr);
  const P& ref = *sp;
  auto out = detail::solve_frontier_impl(
      ref, [sp]() -> const P& { return *sp; }, cfg);
  out.table.keep_alive(std::move(sp));
  return out;
}

}  // namespace lddp
