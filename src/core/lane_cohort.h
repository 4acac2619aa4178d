// Lane-cohort driver: executes a cohort of same-class solves in SIMD
// lockstep, one lane per solve.
//
// The batch engine groups co-admitted requests whose SolveClassKey
// matches (same problem kind, contributing set, resolved mode and
// power-of-two shape bucket) and hands them here as one unit. The driver
// interleaves the cohort's rows lane-major (tables/lane_grid.h, two
// rolling rows) and sweeps the shared region — rows [1, min_rows),
// interior columns — with the lane-generic row kernels of
// core/lane_kernels.h, so every front load/store is one unit-stride
// vector across solves, even at front length 1. A row-major sweep
// respects every LDDP-Plus contributing set (all four representative
// cells lie up or left), so lockstep rows are valid for all patterns.
//
// Each lane's own rows live in a store of its storage tier over its
// RowMajorLayout (core/strategies/frontier_engine.h): on the full tier a
// FullStore, which fills the result Grid in place; on the frontier tier a
// one- or two-row WindowStore whose after_front(i) keeps the checkpoint
// rows and the last row. The driver is written once over the store, so
// both tiers run the same lockstep body and the same per-solve row sweep
// (sweep_rows).
//
// Ragged cohorts (sides differing within one bucket): each row finishes
// with a per-lane column remainder — required before the next row when
// the set includes NE, whose edge cell reads the remainder's first
// column — and lanes taller than min_rows retire from lockstep and
// finish with the per-solve row sweep. Padding lanes (cohort size not a
// vector multiple) replicate lane 0 and are discarded. Cohorts of
// problems without LaneTraits, or too small/narrow to pay for
// interleaving, take the per-solve sweep for every lane.
//
// Every cell is produced either by the scalar reference recurrence
// (edges, remainders, retired lanes) or by a lane kernel whose exact
// int32 ops mirror it — results are bit-identical to solo solves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/front_runner.h"
#include "core/lane_kernels.h"
#include "core/problem.h"
#include "core/run_config.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "tables/grid.h"
#include "tables/lane_grid.h"

namespace lddp::detail {

/// What lane execution did for one cohort (reported via BatchReport).
struct LaneExecStats {
  std::size_t lanes = 0;           ///< real solves in the cohort
  std::size_t width = 0;           ///< interleave width (0 = no lockstep)
  std::size_t lockstep_cells = 0;  ///< cells computed in vector lockstep
  std::size_t total_cells = 0;     ///< cells across the whole cohort
  std::vector<std::size_t> peak_bytes;  ///< per lane: its store's peak
};

/// A lane's storage on tier kTier, over the lane's RowMajorLayout: the
/// result Grid filled in place (FullStore), or a one- or two-row
/// WindowStore that keeps every K-th row and the last row.
template <Storage kTier, typename V>
using LaneStore = std::conditional_t<kTier == Storage::kFull,
                                     FullStore<V, RowMajorLayout>,
                                     WindowStore<V, RowMajorLayout>>;

/// The lockstep sweep of a cohort whose every lane is at least
/// min_rows x min_cols, over one row-major store per lane; fills `st`'s
/// width and lockstep_cells. Row i of lane s lives at stores[s].addr(i,
/// 0); after_front(i) runs once that row is final (after the per-lane
/// column remainder).
template <LddpProblem P, typename Stores>
void lane_lockstep(const std::vector<const P*>& probs, Stores& stores,
                   std::size_t min_rows, std::size_t min_cols,
                   bool batch_kernels, LaneExecStats& st,
                   const std::function<void(std::size_t)>& poll) {
  using V = typename P::Value;
  using Traits = lanes::LaneTraits<P>;
  const std::size_t S = probs.size();
  const ContributingSet deps = probs[0]->deps();
  const V bound = probs[0]->boundary();
  // The last shared column of an NE problem reads prev-row column
  // min_cols — outside the interleaved block — so it stays scalar.
  const std::size_t jK = deps.has_ne() ? min_cols - 1 : min_cols;
  const std::size_t width = (S + 3) / 4 * 4;

  // Padding lanes alias lane 0: in-bounds inputs, discarded outputs.
  std::vector<const P*> lp(width, probs[0]);
  std::copy(probs.begin(), probs.end(), lp.begin());

  LaneGrid<V> lrows(2, min_cols, width);  // rolling: row(i & 1)
  auto state = Traits::make(lp.data(), width, min_rows, min_cols);
  const lanes::ScatterFn scatter = lanes::lane_scatter(width);
  std::vector<V*> grows(S);  // per-lane row bases, set per row

  // Scalar cell (i, j) of lane s, read from and written to its store.
  const auto scalar_cell = [&](std::size_t s, std::size_t i, std::size_t j) {
    const P& p = *probs[s];
    const auto read = [&store = stores[s]](std::size_t ii, std::size_t jj) {
      return *store.addr(ii, jj);
    };
    const V v = compute_cell(p, deps, bound, i, j, p.cols(), read);
    *stores[s].addr(i, j) = v;
    return v;
  };

  // Row 0 per lane (base cases live in compute), then interleave the
  // shared columns as the first lockstep predecessor row.
  for (std::size_t s = 0; s < S; ++s) {
    const P& p = *probs[s];
    run_row(p, deps, bound, 0, 0, p.cols(), p.cols(), nullptr,
            stores[s].addr(0, 0), batch_kernels);
    stores[s].after_front(0);
  }
  V* const row0 = lrows.row(0);
  for (std::size_t s = 0; s < width; ++s) {
    const V* const src = stores[s < S ? s : 0].addr(0, 0);
    for (std::size_t j = 0; j < min_cols; ++j) row0[j * width + s] = src[j];
  }

  for (std::size_t i = 1; i < min_rows; ++i) {
    if (poll) poll(i);
    const V* const prev = lrows.row((i - 1) & 1);
    V* const row = lrows.row(i & 1);

    // Column 0 (edge: no W/NW) per lane, mirrored into the lane row.
    for (std::size_t s = 0; s < S; ++s) row[s] = scalar_cell(s, i, 0);
    for (std::size_t s = S; s < width; ++s) row[s] = row[0];

    // Shared interior in lockstep, in column blocks: the kernel fills a
    // block of the lane row, and the transpose scatter
    // (lanes::lane_scatter) de-interleaves it into the per-lane rows
    // while it is still L1-resident (at width 8 a full 4K-column row is
    // ~32 KB per stream — prev, row, staged inputs, outputs — which
    // thrashes L1 if the kernel and the scatter each stream the whole
    // row). The W carry re-seeds from row[(j0-1)·width] at each block
    // boundary, so blocking does not change any computed value.
    Traits::fill_row(state, lp.data(), width, i);
    for (std::size_t s = 0; s < S; ++s) grows[s] = stores[s].addr(i, 0);
    constexpr std::size_t kColBlock = 256;
    for (std::size_t jb = 1; jb < jK; jb += kColBlock) {
      const std::size_t je = std::min(jK, jb + kColBlock);
      lanes::RowCtx<V> ctx;
      ctx.width = width;
      ctx.i = i;
      ctx.j0 = jb;
      ctx.j1 = je;
      ctx.prev = prev;
      ctx.row = row;
      Traits::run(state, ctx);
      // The transpose scatter is int32-only (the dispatched kernel
      // families); wider value types (e.g. the int64 synthetic MaxNw)
      // de-interleave with the plain loop.
      if constexpr (std::is_same_v<V, std::int32_t>) {
        scatter(row, width, jb, je, grows.data(), S);
      } else {
        for (std::size_t s = 0; s < S; ++s)
          for (std::size_t j = jb; j < je; ++j)
            grows[s][j] = row[j * width + s];
      }
    }

    // NE edge column: reads prev-row column min_cols from the lane's own
    // store (final — last row's remainder wrote it).
    if (jK < min_cols) {
      const std::size_t j = min_cols - 1;
      for (std::size_t s = 0; s < S; ++s)
        row[j * width + s] = scalar_cell(s, i, j);
      for (std::size_t s = S; s < width; ++s)
        row[j * width + s] = row[j * width];
    }

    // Per-lane column remainder — before the next row, whose NE edge
    // reads this remainder's first column — and then row i is final.
    for (std::size_t s = 0; s < S; ++s) {
      const P& p = *probs[s];
      const std::size_t pc = p.cols();
      if (pc > min_cols)
        run_row(p, deps, bound, i, min_cols, pc, pc, stores[s].addr(i - 1, 0),
                grows[s], batch_kernels);
      stores[s].after_front(i);
    }
  }

  st.width = width;
  st.lockstep_cells = S * (min_rows - 1) * (jK - 1);
}

/// Solves `probs` as one lane cohort on storage tier kTier, one row-major
/// store per lane (`ks`: the frontier tier's checkpoint intervals, one per
/// lane; unused on the full tier). Returns one table per problem, in
/// order, bit-identical to per-solve serial scans; `stats_out` also gets
/// each lane store's peak_bytes().
///
/// `poll`, when set, is the cohort's lifecycle hook: called with the row
/// index at the start of every lockstep row (and with the lane index
/// before each whole-lane sweep on the non-lockstep path). A throwing
/// poll — an injected lane-kernel fault, an observed cancellation —
/// aborts the cohort cleanly; the batch engine then degrades to per-lane
/// solo execution, which runs poll-free as the guaranteed reference rung.
template <Storage kTier, LddpProblem P>
std::vector<FrontierTable<typename P::Value>> run_lane_cohort(
    const std::vector<const P*>& probs, const std::vector<std::size_t>& ks,
    bool batch_kernels, LaneExecStats* stats_out,
    const std::function<void(std::size_t)>& poll = {}) {
  using V = typename P::Value;
  const std::size_t S = probs.size();
  LDDP_CHECK(S > 0 && (kTier == Storage::kFull || ks.size() == S));

  // Deques never relocate their elements: every store keeps a pointer to
  // its lane's layout.
  std::deque<RowMajorLayout> layouts;
  std::deque<LaneStore<kTier, V>> stores;
  std::size_t min_rows = std::numeric_limits<std::size_t>::max();
  std::size_t min_cols = min_rows;
  LaneExecStats st;
  st.lanes = S;
  for (std::size_t s = 0; s < S; ++s) {
    const P& p = *probs[s];
    const RowMajorLayout& layout = layouts.emplace_back(p.rows(), p.cols());
    if constexpr (kTier == Storage::kFull) stores.emplace_back(layout);
    else stores.emplace_back(layout, p.deps(), ks[s]);
    min_rows = std::min(min_rows, p.rows());
    min_cols = std::min(min_cols, p.cols());
    st.total_cells += p.rows() * p.cols();
  }

  bool lockstep = false;
  if constexpr (lanes::LaneTraits<P>::enabled) {
    lockstep = batch_kernels && S >= 2 && min_rows >= 2 && min_cols >= 4;
    if (lockstep)
      lane_lockstep(probs, stores, min_rows, min_cols, batch_kernels, st,
                    poll);
  }
  // Without lockstep every lane sweeps whole; with it, lanes taller than
  // min_rows retire from lockstep and finish solo.
  for (std::size_t s = 0; s < S; ++s) {
    if (!lockstep && poll) poll(s);
    sweep_rows(*probs[s], stores[s], lockstep ? min_rows : 0,
               batch_kernels);
  }

  std::vector<FrontierTable<V>> tables;
  tables.reserve(S);
  for (auto& store : stores) {
    st.peak_bytes.push_back(store.peak_bytes());
    tables.push_back(store.finish());
  }
  if (stats_out) *stats_out = std::move(st);
  return tables;
}

/// Full-tier lane cohort: one whole table per problem.
template <LddpProblem P>
std::vector<FrontierTable<typename P::Value>> solve_lane_cohort(
    const std::vector<const P*>& probs, bool batch_kernels,
    LaneExecStats* stats_out,
    const std::function<void(std::size_t)>& poll = {}) {
  return run_lane_cohort<Storage::kFull>(probs, {}, batch_kernels, stats_out,
                                         poll);
}

/// Frontier-tier lane cohort: each lane keeps only its checkpoint rows
/// (every ks[s] rows) plus the last row. Returns bare checkpointed tables
/// — the caller attaches the remat callback (and problem ownership)
/// afterwards. Because no lane keeps a full table, there is no
/// kLaneMaxCells-style cell cap here.
template <LddpProblem P>
std::vector<FrontierTable<typename P::Value>> solve_lane_cohort_frontier(
    const std::vector<const P*>& probs, const std::vector<std::size_t>& ks,
    bool batch_kernels, LaneExecStats* stats_out,
    const std::function<void(std::size_t)>& poll = {}) {
  return run_lane_cohort<Storage::kFrontier>(probs, ks, batch_kernels,
                                             stats_out, poll);
}

}  // namespace lddp::detail
