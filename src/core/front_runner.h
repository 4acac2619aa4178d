// Batch-front runner: splits a front (or any sub-range of one) into affine
// interior runs, packs each run's neighbour values into dense spans, and
// hands them to the problem's `compute_front` hook — falling back to the
// per-cell scalar path for edges, short runs, and shapes the problem does
// not implement. Used by every execution layer (CPU strips, parallel_for
// chunks, tile interiors, simulated-GPU kernels); results are always
// bit-identical to the scalar path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/front_span.h"
#include "core/strategies/common.h"
#include "tables/layout.h"
#include "util/aligned.h"
#include "util/check.h"

namespace lddp::detail {

/// Runs shorter than this go scalar: the span setup (interior trim, stride
/// probes, possible gather) costs more than it saves on a handful of lanes.
inline constexpr std::size_t kMinBatchRun = 8;

/// One affine segment of a front's enumeration: front positions
/// [pos, pos + len) are cells (i0 + k*di, j0 + k*dj) for k in [0, len).
struct FrontRun {
  std::size_t pos = 0;
  std::size_t len = 0;
  std::size_t i0 = 0, j0 = 0;
  std::ptrdiff_t di = 0, dj = 0;
};

// --- Per-layout enumeration geometry -----------------------------------
// Every layout's within-front order is piecewise affine with at most two
// segments (the inverted-L shell: column part, then row part).

inline std::size_t front_runs(const RowMajorLayout& L, std::size_t f,
                              FrontRun* r) {
  r[0] = {0, L.cols(), f, 0, 0, 1};
  return 1;
}

inline std::size_t front_runs(const ColumnMajorLayout& L, std::size_t f,
                              FrontRun* r) {
  r[0] = {0, L.rows(), 0, f, 1, 0};
  return 1;
}

inline std::size_t front_runs(const AntiDiagonalLayout& L, std::size_t d,
                              FrontRun* r) {
  const std::size_t i0 = L.i_min(d);
  r[0] = {0, L.front_size(d), i0, d - i0, 1, -1};
  return 1;
}

inline std::size_t front_runs(const KnightMoveLayout& L, std::size_t t,
                              FrontRun* r) {
  const std::size_t fs = L.front_size(t);
  if (fs == 0) return 0;
  const std::size_t i0 = L.i_max(t);  // enumerated by j ascending = i desc
  r[0] = {0, fs, i0, t - 2 * i0, -1, 2};
  return 1;
}

inline std::size_t front_runs(const ShellLayout& L, std::size_t k,
                              FrontRun* r) {
  std::size_t nr = 0;
  const std::size_t col_n = L.column_part_size(k);
  if (col_n > 0) r[nr++] = {0, col_n, L.rows() - 1, k, -1, 0};
  r[nr++] = {col_n, L.cols() - k, k, k, 0, 1};
  return nr;
}

inline std::size_t front_runs(const MirrorShellLayout& L, std::size_t k,
                              FrontRun* r) {
  std::size_t nr = 0;
  const std::size_t col_n = L.column_part_size(k);
  const std::size_t jm = L.cols() - 1 - k;
  if (col_n > 0) r[nr++] = {0, col_n, L.rows() - 1, jm, -1, 0};
  r[nr++] = {col_n, L.cols() - k, k, jm, 0, -1};
  return nr;
}

// --- Batch eligibility per layout --------------------------------------
// A run may only batch when every dependency of an interior cell lives in
// an *earlier* front of this layout, so the packed neighbour values are
// final before the front executes. The framework's pattern dispatch always
// satisfies this, but the strategies are templates a caller can
// instantiate with any layout; the guard keeps odd combinations correct
// (they simply stay scalar, which handles same-front deps by executing
// positions in order).

inline bool layout_batchable(const RowMajorLayout&, ContributingSet deps) {
  return !deps.has_w();  // W is the same row = the same front
}
inline bool layout_batchable(const ColumnMajorLayout&, ContributingSet deps) {
  return !deps.has_n() && !deps.has_ne();  // same column = same front
}
inline bool layout_batchable(const AntiDiagonalLayout&, ContributingSet deps) {
  return !deps.has_ne();  // (i-1, j+1) sits on the same anti-diagonal
}
inline bool layout_batchable(const KnightMoveLayout&, ContributingSet) {
  return true;  // all four representative cells precede front t
}
inline bool layout_batchable(const ShellLayout&, ContributingSet deps) {
  // W on the row part and N on the column part stay inside shell k.
  return !deps.has_w() && !deps.has_n() && !deps.has_ne();
}
inline bool layout_batchable(const MirrorShellLayout&, ContributingSet deps) {
  // Mirrored: NE is the only dependency guaranteed to leave the shell.
  return !deps.has_w() && !deps.has_nw() && !deps.has_n();
}

// --- Frontier window geometry ------------------------------------------
// Number of consecutive fronts a rolling frontier window must retain so
// that when front f executes, every dependency of every cell of f is
// still resident: max front distance of any representative cell, plus
// one for the front being written. 0 means the layout has no bounded
// backward window under these deps (a dependency can land on a *later*
// front) and the frontier tier must fall back to full storage — never
// the case for the canonical pattern->layout pairs the framework
// dispatches, which all look strictly backward.

inline std::size_t frontier_window_fronts(const RowMajorLayout&,
                                          ContributingSet deps) {
  // W is same-front; NW/N/NE live on front f-1.
  return deps.has_nw() || deps.has_n() || deps.has_ne() ? 2 : 1;
}
inline std::size_t frontier_window_fronts(const ColumnMajorLayout&,
                                          ContributingSet deps) {
  // NE lives on column j+1 = front f+1: a *forward* reference.
  return deps.has_ne() ? 0 : (deps.has_w() || deps.has_nw() ? 2 : 1);
}
inline std::size_t frontier_window_fronts(const AntiDiagonalLayout&,
                                          ContributingSet deps) {
  // W/N/NE at distance 1, NW at distance 2.
  return deps.has_nw() ? 3 : 2;
}
inline std::size_t frontier_window_fronts(const KnightMoveLayout&,
                                          ContributingSet deps) {
  // t = 2i + j: W and NE at distance 1, N at 2, NW at 3.
  return deps.has_nw() ? 4 : deps.has_n() ? 3 : 2;
}
inline std::size_t frontier_window_fronts(const ShellLayout&,
                                          ContributingSet deps) {
  // W and NW look at shell k-1 or stay same-shell in enumeration order;
  // NE on the column part reads shell k+1 (forward), and N on the column
  // part reads a same-shell cell the descending enumeration has not
  // produced yet — both already unsupported by the full-table shell
  // strategies, which only ever see the canonical {NW} set.
  return deps.has_ne() || deps.has_n() ? 0 : 2;
}
inline std::size_t frontier_window_fronts(const MirrorShellLayout&,
                                          ContributingSet deps) {
  // Mirrored image of the above: only the canonical {NE} set (plus the
  // harmless lone case) looks strictly backward in enumeration order.
  return deps.has_w() || deps.has_nw() || deps.has_n() ? 0 : 2;
}

// --- Interior trimming --------------------------------------------------

inline std::int64_t ceil_div_pos(std::int64_t x, std::int64_t y) {  // y > 0
  return x >= 0 ? (x + y - 1) / y : -((-x) / y);
}
inline std::int64_t floor_div_pos(std::int64_t x, std::int64_t y) {  // y > 0
  return x >= 0 ? x / y : -((-x + y - 1) / y);
}

/// Intersects [a, b) with { k : s + k*d >= lo_req }.
inline void clamp_lane_ge(std::int64_t s, std::int64_t d, std::int64_t lo_req,
                          std::int64_t& a, std::int64_t& b) {
  if (d == 0) {
    if (s < lo_req) b = a;
  } else if (d > 0) {
    a = std::max(a, ceil_div_pos(lo_req - s, d));
  } else {
    b = std::min(b, floor_div_pos(s - lo_req, -d) + 1);
  }
}

/// Intersects [a, b) with { k : s + k*d <= up_req }.
inline void clamp_lane_le(std::int64_t s, std::int64_t d, std::int64_t up_req,
                          std::int64_t& a, std::int64_t& b) {
  if (d == 0) {
    if (s > up_req) b = a;
  } else if (d > 0) {
    b = std::min(b, floor_div_pos(up_req - s, d) + 1);
  } else {
    a = std::max(a, ceil_div_pos(s - up_req, -d));
  }
}

/// Lane sub-range [a, b) of a run whose cells are interior: i >= 1,
/// j >= 1, and j + 1 < cols when the contributing set includes NE. The
/// constraints are monotone in the lane index, so the result is one
/// contiguous range.
inline void interior_lanes(const FrontRun& r, ContributingSet deps,
                           std::size_t cols, std::size_t& a_out,
                           std::size_t& b_out) {
  std::int64_t a = 0, b = static_cast<std::int64_t>(r.len);
  clamp_lane_ge(static_cast<std::int64_t>(r.i0), r.di, 1, a, b);
  clamp_lane_ge(static_cast<std::int64_t>(r.j0), r.dj, 1, a, b);
  if (deps.has_ne())
    clamp_lane_le(static_cast<std::int64_t>(r.j0), r.dj,
                  static_cast<std::int64_t>(cols) - 2, a, b);
  if (b < a) b = a;
  a_out = static_cast<std::size_t>(std::clamp<std::int64_t>(a, 0, r.len));
  b_out = static_cast<std::size_t>(std::clamp<std::int64_t>(b, 0, r.len));
}

// --- Span assembly ------------------------------------------------------

/// Per-thread gather/scatter scratch (workers of the pool batch
/// concurrently over disjoint chunks of one front). 64-byte aligned so
/// the problems' SIMD kernels — and the 32-byte AVX2 lane tier — can use
/// aligned vector loads/stores on spans packed through the scratch path
/// (span base = buffer base, so offset-0 vectors are always aligned).
template <typename V>
inline V* batch_scratch(std::size_t slot, std::size_t len) {
  thread_local AlignedBuf<V> bufs[5];
  return bufs[slot].ensure(len);
}

/// A neighbour (or output) stream along a span: lane k lives at
/// base[k * stride].
template <typename V>
struct StridedSpan {
  V* base = nullptr;
  std::ptrdiff_t stride = 0;
};

/// Executes cells [lo, hi) (positions within front f) over storage
/// addressed by `addr(i, j) -> V*`. Each affine run of the front splits
/// into edge cells, which run the scalar per-cell reference loop, and an
/// interior whose neighbours all exist. When `batch` is set, the problem
/// has the hook and the layout admits batching, the interior goes through
/// compute_front with packed spans: direct pointers where the storage is
/// stride-one (every front-major table), a gather into per-thread scratch
/// otherwise. Every other interior — no hook, a shape the hook rejects,
/// dependencies inside the front — runs `compute` per cell while walking
/// the neighbour pointers by their strides, in position order, so a
/// dependency inside the front reads the value this loop just wrote.
/// `addr` must be affine in (i, j) over each run and its neighbours (true
/// for the row-major host table and for every front-major table); strides
/// are derived by probing and the run end is checked in debug builds.
template <LddpProblem P, typename Layout, typename AddrFn>
void run_front_range(const P& p, ContributingSet deps,
                     typename P::Value bound, const Layout& layout,
                     std::size_t f, std::size_t lo, std::size_t hi,
                     AddrFn addr, bool batch) {
  using V = typename P::Value;
  const std::size_t cols = layout.cols();
  auto read = [&addr](std::size_t i, std::size_t j) { return *addr(i, j); };
  auto scalar = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      const CellIndex cell = layout.cell(f, c);
      *addr(cell.i, cell.j) =
          compute_cell(p, deps, bound, cell.i, cell.j, cols, read);
    }
  };
  bool hook = false;
  if constexpr (BatchFrontProblem<P>)
    hook = batch && layout_batchable(layout, deps);
  FrontRun runs[2];
  const std::size_t nr = front_runs(layout, f, runs);
  std::size_t done = lo;
  for (std::size_t r = 0; r < nr && done < hi; ++r) {
    const FrontRun& run = runs[r];
    const std::size_t r_end = run.pos + run.len;
    if (r_end <= done) continue;
    const std::size_t stop = std::min(r_end, hi);
    std::size_t ia, ib;
    interior_lanes(run, deps, cols, ia, ib);
    // Clip the interior lanes to the requested [lo, hi) positions.
    const std::size_t ka = std::max(run.pos + ia, done) - run.pos;
    const std::size_t kb = std::min(run.pos + ib, stop) > run.pos + ka
                               ? std::min(run.pos + ib, stop) - run.pos
                               : ka;
    if (kb - ka < kMinBatchRun) {
      scalar(done, stop);
      done = stop;
      continue;
    }
    scalar(done, run.pos + ka);  // leading edge cells
    const auto i0 = static_cast<std::ptrdiff_t>(run.i0) +
                    static_cast<std::ptrdiff_t>(ka) * run.di;
    const auto j0 = static_cast<std::ptrdiff_t>(run.j0) +
                    static_cast<std::ptrdiff_t>(ka) * run.dj;
    const std::size_t len = kb - ka;
    // Lane k's cell shifted by (oi, oj), as a pointer into the storage.
    auto lane = [&](std::ptrdiff_t k, std::ptrdiff_t oi, std::ptrdiff_t oj) {
      return addr(static_cast<std::size_t>(i0 + k * run.di + oi),
                  static_cast<std::size_t>(j0 + k * run.dj + oj));
    };
    auto stream = [&](std::ptrdiff_t oi, std::ptrdiff_t oj) {
      V* const base = lane(0, oi, oj);
      return StridedSpan<V>{base, lane(1, oi, oj) - base};
    };
    const StridedSpan<V> out = stream(0, 0);
    LDDP_DCHECK(lane(static_cast<std::ptrdiff_t>(len - 1), 0, 0) ==
                out.base + static_cast<std::ptrdiff_t>(len - 1) * out.stride);
    StridedSpan<V> w, nw, n, ne;
    if (deps.has_w()) w = stream(0, -1);
    if (deps.has_nw()) nw = stream(-1, -1);
    if (deps.has_n()) n = stream(-1, 0);
    if (deps.has_ne()) ne = stream(-1, 1);
    bool computed = false;
    if constexpr (BatchFrontProblem<P>) {
      if (hook) {
        // Direct pointer when unit-stride, gather into scratch otherwise.
        auto pack = [len](const StridedSpan<V>& src,
                          std::size_t slot) -> const V* {
          if (src.base == nullptr || src.stride == 1) return src.base;
          V* const buf = batch_scratch<V>(slot, len);
          for (std::size_t k = 0; k < len; ++k)
            buf[k] = src.base[static_cast<std::ptrdiff_t>(k) * src.stride];
          return buf;
        };
        FrontSpan<V> s;
        s.i0 = static_cast<std::size_t>(i0);
        s.j0 = static_cast<std::size_t>(j0);
        s.di = run.di;
        s.dj = run.dj;
        s.len = len;
        s.w = pack(w, 0);
        s.nw = pack(nw, 1);
        s.n = pack(n, 2);
        s.ne = pack(ne, 3);
        s.out = out.stride == 1 ? out.base : batch_scratch<V>(4, len);
        computed = p.compute_front(s);
        if (computed && s.out != out.base)
          for (std::size_t k = 0; k < len; ++k)
            out.base[static_cast<std::ptrdiff_t>(k) * out.stride] = s.out[k];
      }
    }
    if (!computed) {
      Neighbors<V> nb{bound, bound, bound, bound};
      for (std::size_t k = 0; k < len; ++k) {
        const auto kk = static_cast<std::ptrdiff_t>(k);
        if (w.base != nullptr) nb.w = w.base[kk * w.stride];
        if (nw.base != nullptr) nb.nw = nw.base[kk * nw.stride];
        if (n.base != nullptr) nb.n = n.base[kk * n.stride];
        if (ne.base != nullptr) nb.ne = ne.base[kk * ne.stride];
        out.base[kk * out.stride] =
            p.compute(static_cast<std::size_t>(i0 + kk * run.di),
                      static_cast<std::size_t>(j0 + kk * run.dj), nb);
      }
    }
    done = run.pos + kb;
    scalar(done, stop);  // trailing edge cells
    done = stop;
  }
  scalar(done, hi);
}

// --- Row sweeps (serial scan, tile interiors, horizontal strips) --------

/// Scalar row sweep (i fixed, j in [j0, j1)) over row-major storage with
/// the strip-loop micro-optimizations: the previous row's pointer serves
/// NW/N/NE directly and the just-computed cell is carried forward as the
/// next cell's W neighbour instead of being re-read through the table.
/// `prev_row` is null on the top row. Bit-identical to the generic
/// compute_cell loop.
template <LddpProblem P>
void run_row_scalar(const P& p, ContributingSet deps,
                    typename P::Value bound, std::size_t i, std::size_t j0,
                    std::size_t j1, std::size_t cols,
                    const typename P::Value* prev_row,
                    typename P::Value* row) {
  using V = typename P::Value;
  const bool use_w = deps.has_w(), use_nw = deps.has_nw(),
             use_n = deps.has_n(), use_ne = deps.has_ne();
  V wcarry = use_w && j0 > 0 ? row[j0 - 1] : bound;
  for (std::size_t j = j0; j < j1; ++j) {
    Neighbors<V> nb{bound, bound, bound, bound};
    if (use_w && j > 0) nb.w = wcarry;
    if (prev_row != nullptr) {
      if (use_nw && j > 0) nb.nw = prev_row[j - 1];
      if (use_n) nb.n = prev_row[j];
      if (use_ne && j + 1 < cols) nb.ne = prev_row[j + 1];
    }
    const V v = p.compute(i, j, nb);
    row[j] = v;
    wcarry = v;
  }
}

/// Row sweep with the batch hook where it applies: interior cells of a
/// W-free problem go through compute_front with direct row pointers (no
/// gather — rows are unit-stride in row-major storage), edges and
/// W-dependent problems (sequential within the row) use run_row_scalar.
template <LddpProblem P>
void run_row(const P& p, ContributingSet deps, typename P::Value bound,
             std::size_t i, std::size_t j0, std::size_t j1, std::size_t cols,
             const typename P::Value* prev_row, typename P::Value* row,
             bool batch) {
  using V = typename P::Value;
  if constexpr (BatchFrontProblem<P>) {
    if (batch && !deps.has_w() && prev_row != nullptr && i >= 1) {
      const std::size_t a = std::max<std::size_t>(j0, 1);
      const std::size_t b =
          deps.has_ne() ? std::min(j1, cols > 0 ? cols - 1 : 0) : j1;
      if (b > a && b - a >= kMinBatchRun) {
        FrontSpan<V> s;
        s.i0 = i;
        s.j0 = a;
        s.di = 0;
        s.dj = 1;
        s.len = b - a;
        if (deps.has_nw()) s.nw = prev_row + a - 1;
        if (deps.has_n()) s.n = prev_row + a;
        if (deps.has_ne()) s.ne = prev_row + a + 1;
        s.out = row + a;
        if (p.compute_front(s)) {
          run_row_scalar(p, deps, bound, i, j0, a, cols, prev_row, row);
          run_row_scalar(p, deps, bound, i, b, j1, cols, prev_row, row);
          return;
        }
      }
    }
  }
  run_row_scalar(p, deps, bound, i, j0, j1, cols, prev_row, row);
}

/// True when this problem/layout pair takes the batch path under the given
/// RunConfig::batch_kernels setting.
template <LddpProblem P, typename Layout>
bool use_batch_front(const P&, const Layout& layout, ContributingSet deps,
                     bool batch) {
  if constexpr (BatchFrontProblem<P>) {
    return batch && layout_batchable(layout, deps);
  } else {
    (void)layout;
    (void)deps;
    return false;
  }
}

/// True when row sweeps (serial scan, tile interiors) take the batch path:
/// a W dependency is sequential within the row, so only W-free problems
/// with the hook vectorize rows.
template <LddpProblem P>
bool use_batch_rows(const P&, ContributingSet deps, bool batch) {
  if constexpr (BatchFrontProblem<P>) {
    return batch && !deps.has_w();
  } else {
    (void)deps;
    return false;
  }
}

}  // namespace lddp::detail
