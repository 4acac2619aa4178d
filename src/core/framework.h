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

#include <type_traits>

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

/// Result of a canonical solve on storage tier kTier.
template <Storage kTier, LddpProblem P>
using TierResult = std::conditional_t<kTier == Storage::kFull, SolveResult<P>,
                                      FrontierSolveResult<P>>;

/// Wavefront layout of a canonical pattern.
template <Pattern kPattern>
auto pattern_layout(std::size_t n, std::size_t m) {
  if constexpr (kPattern == Pattern::kAntiDiagonal)
    return AntiDiagonalLayout(n, m);
  else if constexpr (kPattern == Pattern::kHorizontal)
    return RowMajorLayout(n, m);
  else if constexpr (kPattern == Pattern::kKnightMove)
    return KnightMoveLayout(n, m);
  else
    return ShellLayout(n, m);
}

/// The mode dispatch of canonical pattern kPattern on both storage tiers.
/// Every parallel strategy runs over a store of the tier (core/strategies/
/// frontier_engine.h): a FullStore on Storage::kFull, a WindowStore on
/// Storage::kFrontier, with the same schedule either way. What stays
/// per tier:
///   * kCpuSerial runs solve_cpu_serial, or the row-streaming
///     solve_frontier_serial;
///   * the tiled layer (kCpuTiled, RunConfig::tile) is full-tier only: the
///     frontier tier runs kCpuTiled as kCpuParallel and ignores tile;
///   * Inverted-L runs the full-table strategies (the paper's strided
///     row-major storage); the frontier tier instead runs the CPU and GPU
///     strategies over a coalesced ShellLayout window when the
///     dependencies admit one. The heterogeneous shell split has no
///     window form.
/// A full-table grid on the frontier tier is wrapped in the FrontierTable
/// facade. The frontier table has no remat callback or transform yet; the
/// solve_frontier wrappers attach both. The pattern is a template
/// argument so that the symmetric reductions (a transposed or mirrored
/// problem, always Horizontal or Inverted-L) instantiate only their own
/// pattern's strategies.
template <Storage kTier, Pattern kPattern, LddpProblem P>
TierResult<kTier, P> solve_canonical(const P& p, const RunConfig& cfg) {
  static_assert(kPattern == Pattern::kAntiDiagonal ||
                    kPattern == Pattern::kHorizontal ||
                    kPattern == Pattern::kKnightMove ||
                    kPattern == Pattern::kInvertedL,
                "solve_canonical takes a canonical pattern");
  using V = typename P::Value;
  constexpr bool kWindow = kTier == Storage::kFrontier;
  // Modelled CPU memory amplification of the pattern's walk order.
  constexpr double kCpuAmplification = kPattern == Pattern::kHorizontal
                                           ? 1.0
                                           : detail::kDiagonalCpuAmplification;
  sim::Platform platform(cfg.platform, cfg.pool, cfg.buffer_pool);
  // Lifecycle enforcement rides the Timeline: every strategy's recorded op
  // (CPU front, kernel, copy) passes through Timeline::record, so a single
  // install point gives cancellation/deadline checks at front granularity
  // across all execution layers without touching any strategy.
  platform.timeline().set_request_control(cfg.control);
  Mode mode = resolve_auto(cfg.mode, p.rows() * p.cols());
  if (kWindow && mode == Mode::kCpuTiled) mode = Mode::kCpuParallel;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const std::size_t K =
      kWindow ? resolve_checkpoint_interval(cfg.checkpoint_interval, n) : 0;
  const bool fused = cfg.fused_launches;
  const bool batch = cfg.batch_kernels;
  sim::Device* const gpu = &platform.gpu();
  TierResult<kTier, P> result;
  SolveStats* const stats = &result.stats;

  // Runs `strategy(store)` over a store of this tier on the pattern's
  // layout, held in `device` memory (null: host).
  auto run = [&](sim::Device* device, auto&& strategy) {
    const auto layout = pattern_layout<kPattern>(n, m);
    using Layout = std::remove_cvref_t<decltype(layout)>;
    if constexpr (kWindow) {
      WindowStore<V, Layout> store(layout, deps, K, device);
      result.table = strategy(store);
      stats->checkpoint_interval = K;
      stats->checkpoint_rows = result.table.checkpoint_row_count();
    } else {
      FullStore<V, Layout> store(layout, device);
      result.table = strategy(store);
    }
  };
  // A full-table strategy's grid as this tier's table.
  auto take_full = [&](Grid<V> g) {
    if constexpr (kWindow) result.table = FrontierTable<V>::full(std::move(g));
    else result.table = std::move(g);
  };
  // Tile side of the GPU / heterogeneous tiled layer; 0 on the frontier
  // tier.
  auto tile = [&]() -> std::size_t {
    return kWindow ? 0 : resolve_tile(p, cfg);
  };
  // Runs a CPU-only or GPU-only strategy over a store; false for
  // Inverted-L unless this tier can run it as a window of shells.
  auto single_unit = [&](sim::Device* device, auto&& strategy) {
    if constexpr (kPattern == Pattern::kInvertedL && !kWindow) {
      return false;
    } else {
      if constexpr (kPattern == Pattern::kInvertedL) {
        if (frontier_window_fronts(ShellLayout(n, m), deps) == 0)
          return false;
      }
      run(device, strategy);
      return true;
    }
  };

  switch (mode) {
    case Mode::kCpuSerial:
      if constexpr (kWindow)
        result.table = solve_frontier_serial(p, &platform, stats, batch, K);
      else
        result.table = solve_cpu_serial(p, &platform, stats, batch);
      break;

    case Mode::kCpuTiled:
      take_full(solve_cpu_tiled(p, platform, cfg.cpu_tile, stats, batch));
      break;

    case Mode::kCpuParallel:
      if (!single_unit(nullptr, [&](auto& store) {
            return solve_cpu_parallel(p, store, platform, stats,
                                      kCpuAmplification, batch);
          }))
        take_full(solve_cpu_invertedl(p, platform, stats, batch));
      break;

    case Mode::kGpu:
      if (const std::size_t t = tile(); t > 0) {
        take_full(solve_gpu_tiled(p, platform, t, stats, fused, batch));
      } else if (!single_unit(gpu, [&](auto& store) {
                   return solve_gpu(p, store, platform, stats, fused, batch);
                 })) {
        take_full(solve_gpu_invertedl(p, platform, stats, fused, batch));
      }
      break;

    case Mode::kHeterogeneous:
      if (const std::size_t t = tile(); t > 0) {
        take_full(solve_hetero_tiled(p, platform, cfg.hetero, t, stats, fused,
                                     batch));
      } else if constexpr (kPattern == Pattern::kAntiDiagonal) {
        run(gpu, [&](auto& store) {
          return solve_hetero_antidiagonal(p, store, platform, cfg.hetero,
                                           stats, fused, batch);
        });
      } else if constexpr (kPattern == Pattern::kHorizontal) {
        // Both strips of a row land in one host-visible table: on the
        // full tier that is the result grid itself, with no device twin.
        run(kWindow ? gpu : nullptr, [&](auto& store) {
          return solve_hetero_horizontal(p, store, platform, cfg.hetero,
                                         stats, fused, batch);
        });
      } else if constexpr (kPattern == Pattern::kKnightMove) {
        run(gpu, [&](auto& store) {
          return solve_hetero_knightmove(p, store, platform, cfg.hetero,
                                         stats, fused, batch);
        });
      } else {
        take_full(solve_hetero_invertedl(p, platform, cfg.hetero, stats,
                                         fused, batch));
      }
      break;

    case Mode::kAuto:
      LDDP_CHECK_MSG(false, "unreachable: auto mode was resolved above");
  }
  if (!cfg.trace_path.empty())
    platform.timeline().export_chrome_trace(cfg.trace_path);
  // Detach the per-attempt control before copying the timeline out: the
  // recorded schedule outlives this attempt (batch replay, retries).
  platform.timeline().set_request_control(nullptr);
  if (cfg.record_timeline != nullptr)
    *cfg.record_timeline = platform.timeline();
  return result;
}

/// solve_canonical on a pattern known only at run time.
template <Storage kTier, LddpProblem P>
TierResult<kTier, P> solve_canonical(const P& p, Pattern pattern,
                                     const RunConfig& cfg) {
  switch (pattern) {
    case Pattern::kAntiDiagonal:
      return solve_canonical<kTier, Pattern::kAntiDiagonal>(p, cfg);
    case Pattern::kHorizontal:
      return solve_canonical<kTier, Pattern::kHorizontal>(p, cfg);
    case Pattern::kKnightMove:
      return solve_canonical<kTier, Pattern::kKnightMove>(p, cfg);
    case Pattern::kInvertedL:
      return solve_canonical<kTier, Pattern::kInvertedL>(p, cfg);
    default:
      LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
  }
  return {};
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
    auto inner =
        solve_canonical<Storage::kFrontier, Pattern::kHorizontal>(t, cfg);
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
    auto inner =
        solve_canonical<Storage::kFrontier, Pattern::kInvertedL>(mp, cfg);
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
  auto inner = solve_canonical<Storage::kFrontier>(p, pattern, cfg);
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
    auto inner =
        detail::solve_canonical<Storage::kFull, Pattern::kHorizontal>(t, cfg);
    SolveResult<P> out;
    out.table = transpose_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kVertical;
    return out;
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    // Inverted-L on the mirrored table.
    MirroredProblem<P> mp(p);
    auto inner =
        detail::solve_canonical<Storage::kFull, Pattern::kInvertedL>(mp, cfg);
    SolveResult<P> out;
    out.table = mirror_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kMirroredInvertedL;
    return out;
  }
  return detail::solve_canonical<Storage::kFull>(p, pattern, cfg);
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
