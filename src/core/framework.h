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

/// Whether a parallel strategy's store of pattern kPattern on tier kTier
/// lives in simulated device memory under `mode` (a resolved parallel
/// mode). The CPU keeps it on the host, and so does the heterogeneous
/// Horizontal strategy on the full tier: both strips of a row land in one
/// host-visible table, the result grid itself, with no device twin.
template <Storage kTier, Pattern kPattern>
constexpr bool store_on_device(Mode mode) {
  if (mode == Mode::kCpuParallel) return false;
  return !(kTier == Storage::kFull && kPattern == Pattern::kHorizontal &&
           mode == Mode::kHeterogeneous);
}

/// Whether the tiled layer's row-major FullStore lives in simulated device
/// memory under `mode`: only for the GPU. The CPU and the heterogeneous
/// tile split fill the result grid in place.
constexpr bool tiled_store_on_device(Mode mode) { return mode == Mode::kGpu; }

/// The stats.peak_table_bytes that solve_canonical<kTier, kPattern>(p, cfg)
/// reports, without running it: the store's static formula for the mode's
/// store (the tiled layer's row-major one on a tiled request), and the
/// whole grid for the serial scan.
template <Storage kTier, Pattern kPattern, LddpProblem P>
std::size_t canonical_peak_table_bytes(const P& p, const RunConfig& cfg) {
  using V = typename P::Value;
  constexpr bool kWindow = kTier == Storage::kFrontier;
  const std::size_t n = p.rows(), m = p.cols();
  Mode mode = resolve_auto(cfg.mode, n * m);
  if (kWindow && mode == Mode::kCpuTiled) mode = Mode::kCpuParallel;
  const std::size_t K =
      kWindow ? resolve_checkpoint_interval(cfg.checkpoint_interval, n) : 0;
  if (mode == Mode::kCpuSerial) {
    const RowMajorLayout rows(n, m);
    if constexpr (kWindow)
      return WindowStore<V, RowMajorLayout>::peak_bytes(rows, p.deps(), K);
    else
      return FullStore<V, RowMajorLayout>::peak_bytes(rows, false);
  }
  if constexpr (!kWindow) {
    if (mode == Mode::kCpuTiled ||
        (mode != Mode::kCpuParallel && resolve_tile(p, cfg) > 0))
      return FullStore<V, RowMajorLayout>::peak_bytes(
          RowMajorLayout(n, m), tiled_store_on_device(mode));
  }
  const auto layout = pattern_layout<kPattern>(n, m);
  using Layout = std::remove_cvref_t<decltype(layout)>;
  if constexpr (kWindow)
    return WindowStore<V, Layout>::peak_bytes(layout, p.deps(), K);
  else
    return FullStore<V, Layout>::peak_bytes(
        layout, store_on_device<kTier, kPattern>(mode));
}

/// The mode dispatch of canonical pattern kPattern on both storage tiers.
/// Every parallel strategy runs over a store of the tier (core/strategies/
/// frontier_engine.h): a FullStore on Storage::kFull, a WindowStore on
/// Storage::kFrontier, with the same schedule and the same pricing either
/// way — Inverted-L included, whose shells are priced on the paper's
/// strided row-major storage (FrontAmplification::strided_shells) on
/// both tiers. What stays per tier:
///   * kCpuSerial runs solve_cpu_serial, or the row-streaming
///     solve_frontier_serial;
///   * the tiled layer (kCpuTiled, RunConfig::tile) is full-tier only, over
///     a row-major FullStore: the frontier tier runs kCpuTiled as
///     kCpuParallel and ignores tile.
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
  sim::Device* const store_device =
      store_on_device<kTier, kPattern>(mode) ? gpu : nullptr;
  TierResult<kTier, P> result;
  SolveStats* const stats = &result.stats;
  // Modelled memory amplification of the pattern's walk order on each
  // unit: row fronts are contiguous, diagonal fronts cache-hostile on the
  // CPU, and Inverted-L shells strided in their column parts.
  FrontAmplification cpu_amp, gpu_amp;
  if constexpr (kPattern == Pattern::kInvertedL) {
    cpu_amp = FrontAmplification::strided_shells(
        n, invl_cpu_column_amplification<V>());
    gpu_amp = FrontAmplification::strided_shells(
        n, invl_gpu_column_amplification<V>(gpu->spec(), m));
  } else if constexpr (kPattern != Pattern::kHorizontal) {
    cpu_amp = FrontAmplification(kDiagonalCpuAmplification);
  }

  // Runs `strategy(store)` over a store of this tier on the pattern's
  // layout, held where store_on_device puts it.
  auto run = [&](auto&& strategy) {
    const auto layout = pattern_layout<kPattern>(n, m);
    using Layout = std::remove_cvref_t<decltype(layout)>;
    if constexpr (kWindow) {
      WindowStore<V, Layout> store(layout, deps, K, store_device);
      result.table = strategy(store);
      stats->checkpoint_interval = K;
      stats->checkpoint_rows = result.table.checkpoint_row_count();
    } else {
      FullStore<V, Layout> store(layout, store_device);
      result.table = strategy(store);
    }
  };

  // Runs a tiled `strategy(store)` over a full row-major store, held
  // where tiled_store_on_device puts it.
  auto run_tiled = [&](auto&& strategy) {
    const RowMajorLayout rows(n, m);
    FullStore<V, RowMajorLayout> store(
        rows, tiled_store_on_device(mode) ? gpu : nullptr);
    result.table = strategy(store);
  };

  switch (mode) {
    case Mode::kCpuSerial:
      if constexpr (kWindow)
        result.table = solve_frontier_serial(p, &platform, stats, batch, K);
      else
        result.table = solve_cpu_serial(p, &platform, stats, batch);
      break;

    case Mode::kCpuTiled:
      if constexpr (!kWindow)
        run_tiled([&](auto& store) {
          return solve_cpu_tiled(p, store, platform, cfg.cpu_tile, stats,
                                 batch);
        });
      break;

    case Mode::kCpuParallel:
      run([&](auto& store) {
        return solve_cpu_parallel(p, store, platform, stats, cpu_amp, batch);
      });
      break;

    case Mode::kGpu:
      if constexpr (!kWindow) {
        if (const std::size_t t = resolve_tile(p, cfg); t > 0) {
          run_tiled([&](auto& store) {
            return solve_gpu_tiled(p, store, platform, t, stats, fused,
                                   batch);
          });
          break;
        }
      }
      run([&](auto& store) {
        return solve_gpu(p, store, platform, stats, gpu_amp, fused, batch);
      });
      break;

    case Mode::kHeterogeneous:
      if constexpr (!kWindow) {
        if (const std::size_t t = resolve_tile(p, cfg); t > 0) {
          run_tiled([&](auto& store) {
            return solve_hetero_tiled(p, store, platform, cfg.hetero, t,
                                      stats, fused, batch);
          });
          break;
        }
      }
      if constexpr (kPattern == Pattern::kAntiDiagonal) {
        run([&](auto& store) {
          return solve_hetero_antidiagonal(p, store, platform, cfg.hetero,
                                           stats, fused, batch);
        });
      } else if constexpr (kPattern == Pattern::kHorizontal) {
        run([&](auto& store) {
          return solve_hetero_horizontal(p, store, platform, cfg.hetero,
                                         stats, fused, batch);
        });
      } else if constexpr (kPattern == Pattern::kKnightMove) {
        run([&](auto& store) {
          return solve_hetero_knightmove(p, store, platform, cfg.hetero,
                                         stats, fused, batch);
        });
      } else {
        run([&](auto& store) {
          return solve_hetero_invertedl(p, store, platform, cfg.hetero, stats,
                                        fused, batch);
        });
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

/// The stats.peak_table_bytes that solve(p, cfg) (kFull) or
/// solve_frontier(p, cfg) (kFrontier) reports, without running it.
template <Storage kTier, LddpProblem P>
std::size_t peak_table_bytes(const P& p, const RunConfig& cfg) {
  if (kTier == Storage::kFrontier && cfg.storage == Storage::kFull)
    return peak_table_bytes<Storage::kFull>(p, cfg);
  switch (classify(p.deps())) {
    case Pattern::kAntiDiagonal:
      return canonical_peak_table_bytes<kTier, Pattern::kAntiDiagonal>(p,
                                                                       cfg);
    case Pattern::kHorizontal:
      return canonical_peak_table_bytes<kTier, Pattern::kHorizontal>(p, cfg);
    case Pattern::kKnightMove:
      return canonical_peak_table_bytes<kTier, Pattern::kKnightMove>(p, cfg);
    case Pattern::kInvertedL:
      return canonical_peak_table_bytes<kTier, Pattern::kInvertedL>(p, cfg);
    case Pattern::kVertical:
      return canonical_peak_table_bytes<kTier, Pattern::kHorizontal>(
          TransposedProblem<P>(p), cfg);
    case Pattern::kMirroredInvertedL:
      return canonical_peak_table_bytes<kTier, Pattern::kInvertedL>(
          MirroredProblem<P>(p), cfg);
    default:
      return p.rows() * p.cols() * sizeof(typename P::Value);
  }
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
