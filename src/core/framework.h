// Public entry point of the LDDP-Plus framework (Section V-C).
//
// A user supplies a problem — the function f, its contributing set, the
// boundary/initialization values — and calls solve(). The framework
// classifies the contributing set into a pattern (Table I), reduces
// Vertical / mirrored-Inverted-L to their canonical siblings by symmetry,
// picks the wavefront-contiguous layout and the execution strategy for the
// requested mode, and returns the filled table plus timing statistics. The
// table is read where the sweep wrote it — a front-major table stays
// front-major, a transposed or mirrored one is a view — and to_grid()
// copies it into a dense row-major Grid for callers that need one.
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

/// The filled DP table and the run's measurements, on either storage
/// tier: the whole table on the full tier (row-major or front-major, as
/// the sweep filled it), checkpoint rows plus on-demand rematerialization
/// on the frontier tier. Cell reads go through table.at(i, j) (by value)
/// in user orientation either way.
template <LddpProblem P>
struct SolveResult {
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

/// The stats.peak_table_bytes of a frontier-tier solve_canonical<
/// kPattern>(p, cfg), without running it: the window store's static
/// formula over the layout the mode sweeps (rows for the serial scan).
template <Pattern kPattern, LddpProblem P>
std::size_t frontier_peak_table_bytes(const P& p, const RunConfig& cfg) {
  using V = typename P::Value;
  const std::size_t n = p.rows(), m = p.cols();
  const std::size_t K =
      resolve_checkpoint_interval(cfg.checkpoint_interval, n);
  if (resolve_auto(cfg.mode, n * m) == Mode::kCpuSerial)
    return WindowStore<V, RowMajorLayout>::peak_bytes(RowMajorLayout(n, m),
                                                      p.deps(), K);
  const auto layout = pattern_layout<kPattern>(n, m);
  using Layout = std::remove_cvref_t<decltype(layout)>;
  return WindowStore<V, Layout>::peak_bytes(layout, p.deps(), K);
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
/// Either way the strategy's store finishes into the result table; on the
/// frontier tier it has no remat callback yet, and on neither a transform:
/// detail::solve_tier attaches both. The pattern is a template
/// argument so that the symmetric reductions (a transposed or mirrored
/// problem, always Horizontal or Inverted-L) instantiate only their own
/// pattern's strategies.
template <Storage kTier, Pattern kPattern, LddpProblem P>
SolveResult<P> solve_canonical(const P& p, const RunConfig& cfg) {
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
  SolveResult<P> result;
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
  // layout. A window lives in simulated device memory whenever a device
  // computes into it.
  auto run = [&](auto&& strategy) {
    const auto layout = pattern_layout<kPattern>(n, m);
    using Layout = std::remove_cvref_t<decltype(layout)>;
    if constexpr (kWindow) {
      WindowStore<V, Layout> store(layout, deps, K,
                                   mode == Mode::kCpuParallel ? nullptr : gpu);
      result.table = strategy(store);
      stats->checkpoint_interval = K;
      stats->checkpoint_rows = result.table.checkpoint_row_count();
    } else {
      FullStore<V, Layout> store(layout);
      result.table = strategy(store);
    }
  };

  // Runs a tiled `strategy(store)` over a full row-major store.
  auto run_tiled = [&](auto&& strategy) {
    const RowMajorLayout rows(n, m);
    FullStore<V, RowMajorLayout> store(rows);
    result.table = strategy(store);
  };

  switch (mode) {
    case Mode::kCpuSerial:
      if constexpr (kWindow)
        result.table = solve_frontier_serial(p, &platform, stats, batch, K);
      else
        result.table = FrontierTable<V>::full(
            solve_cpu_serial(p, &platform, stats, batch));
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
SolveResult<P> solve_canonical(const P& p, Pattern pattern,
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
/// solve_frontier(p, cfg) (kFrontier) reports, without running it: one
/// table's cells on the full tier, whatever the mode (no store keeps a
/// second copy).
template <Storage kTier, LddpProblem P>
std::size_t peak_table_bytes(const P& p, const RunConfig& cfg) {
  if (kTier == Storage::kFull || cfg.storage == Storage::kFull)
    return p.rows() * p.cols() * sizeof(typename P::Value);
  switch (classify(p.deps())) {
    case Pattern::kAntiDiagonal:
      return frontier_peak_table_bytes<Pattern::kAntiDiagonal>(p, cfg);
    case Pattern::kHorizontal:
      return frontier_peak_table_bytes<Pattern::kHorizontal>(p, cfg);
    case Pattern::kKnightMove:
      return frontier_peak_table_bytes<Pattern::kKnightMove>(p, cfg);
    case Pattern::kInvertedL:
      return frontier_peak_table_bytes<Pattern::kInvertedL>(p, cfg);
    case Pattern::kVertical:
      return frontier_peak_table_bytes<Pattern::kHorizontal>(
          TransposedProblem<P>(p), cfg);
    case Pattern::kMirroredInvertedL:
      return frontier_peak_table_bytes<Pattern::kInvertedL>(
          MirroredProblem<P>(p), cfg);
  }
  return p.rows() * p.cols() * sizeof(typename P::Value);
}

/// Shared body of solve() (kFull) and solve_frontier() (kFrontier):
/// classifies the contributing set, runs the canonical pattern (through a
/// symmetry adapter for Vertical and mirrored Inverted-L, undone by the
/// table's Transform view), and on the frontier tier attaches the remat
/// callback. `holder` is a copyable callable yielding the (caller-owned)
/// problem; it is baked into that callback, so whatever it references
/// must outlive the returned table.
template <Storage kTier, LddpProblem P, typename Holder>
SolveResult<P> solve_tier(const P& p, Holder holder, const RunConfig& cfg) {
  using Transform = typename FrontierTable<typename P::Value>::Transform;
  LDDP_CHECK_MSG(p.rows() > 0 && p.cols() > 0,
                 "problem table must be non-empty");
  const Pattern pattern = classify(p.deps());
  // The canonical solve `inner` of the problem `make()` yields, in the
  // caller's orientation.
  auto adopt = [&](auto inner, auto make, Transform transform) {
    SolveResult<P> out{std::move(inner.table), inner.stats};
    out.stats.pattern = pattern;
    if constexpr (kTier == Storage::kFrontier)
      if (out.table.frontier())
        attach_row_remat(out.table, std::move(make), cfg.batch_kernels);
    out.table.set_transform(transform);
    return out;
  };
  if (pattern == Pattern::kVertical) {
    // Horizontal on the transposed table (Section III symmetry).
    return adopt(solve_canonical<kTier, Pattern::kHorizontal>(
                     TransposedProblem<P>(p), cfg),
                 [holder]() { return TransposedProblem<P>(holder()); },
                 Transform::kTransposed);
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    // Inverted-L on the mirrored table.
    return adopt(solve_canonical<kTier, Pattern::kInvertedL>(
                     MirroredProblem<P>(p), cfg),
                 [holder]() { return MirroredProblem<P>(holder()); },
                 Transform::kMirrored);
  }
  return adopt(solve_canonical<kTier>(p, pattern, cfg), holder,
               Transform::kIdentity);
}

}  // namespace detail

/// Solves the problem with the configured platform and mode on the full
/// storage tier. Thread-safe for distinct problem/config objects; one call
/// uses one simulated platform instance. The returned table owns its
/// storage and does not reference the problem.
template <LddpProblem P>
SolveResult<P> solve(const P& p, const RunConfig& cfg = RunConfig{}) {
  return detail::solve_tier<Storage::kFull>(
      p, [pp = &p]() -> const P& { return *pp; }, cfg);
}

/// Solves the problem on the storage tier selected by cfg.storage:
/// kFrontier (and kAuto) keeps only checkpoint rows plus the live front
/// window during the sweep — O(rows/K * cols) retained instead of
/// O(rows * cols) — and serves interior reads through checkpointed
/// rematerialization; kFull is solve(). Final values and every traceback
/// are bit-identical across tiers. The problem must outlive the returned
/// table (its rematerialization callback re-runs p's recurrence); use the
/// shared_ptr overload to have the table share ownership instead.
template <LddpProblem P>
SolveResult<P> solve_frontier(const P& p,
                              const RunConfig& cfg = RunConfig{}) {
  if (cfg.storage == Storage::kFull) return solve(p, cfg);
  return detail::solve_tier<Storage::kFrontier>(
      p, [pp = &p]() -> const P& { return *pp; }, cfg);
}

/// Ownership-sharing overload: the returned table keeps the problem
/// alive for as long as it may rematerialize (the batch engine uses this
/// so tables can outlive their jobs).
template <LddpProblem P>
SolveResult<P> solve_frontier(std::shared_ptr<const P> sp,
                              const RunConfig& cfg = RunConfig{}) {
  LDDP_CHECK(sp != nullptr);
  if (cfg.storage == Storage::kFull) return solve(*sp, cfg);
  const P& ref = *sp;
  auto out = detail::solve_tier<Storage::kFrontier>(
      ref, [sp]() -> const P& { return *sp; }, cfg);
  out.table.keep_alive(std::move(sp));
  return out;
}

}  // namespace lddp
