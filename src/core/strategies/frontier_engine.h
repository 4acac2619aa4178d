// Storage tiers of a solve, and the frontier tier's own machinery.
//
// Every parallel strategy (cpu_strategy.h, gpu_strategy.h, the
// heterogeneous ones) is written once, over a *store*: where each cell of
// the sweep lives. A store provides
//   addr(i, j)       the cell's storage (affine along every FrontRun, so
//                    the SIMD batch-front machinery works unchanged);
//   after_front(f)   called once front f is complete; returns the cells it
//                    copied out of the live storage;
//   finish()         the caller-facing table;
//   peak_bytes()     table-storage high-water across host and device.
// Either store lives in host memory or, for the GPU and heterogeneous
// strategies, in simulated device memory (a BufferPool acquisition).
//
//   * FullStore   — the whole table: front-major (tables/front_major.h)
//     and unpacked into the row-major Grid once, or — row fronts in host
//     memory — the Grid itself. after_front harvests nothing.
//   * WindowStore — a rolling FrontWindow of the last few fronts
//     (front_runner.h frontier_window_fronts gives the per-layout width);
//     after_front harvests the checkpoint rows i % K == 0 and the last row
//     into a FrontierTable, O(window + rows/K * cols) instead of
//     O(rows * cols).
//
// The strategies' schedules are the paper's, whatever the store. The one
// difference a store makes to simulated time: after a front with
// GPU-computed cells, the cells it harvested travel to the host, priced
// as one pinned download labelled "frontier.halo" (record_halo). The full
// tier harvests nothing, so its timeline carries no halo ops; the frontier
// tier's timeline minus its halos is the full tier's, op for op
// (tests/test_storage_parity.cpp).
//
// Consumers of a frontier table that need interior cells — tracebacks,
// best-score scans — go through its rematerialization callback
// (attach_row_remat), which re-runs the problem's own recurrence over one
// K-row band — row by row, or, for W-dependent problems with a batch
// hook, front by front over a front-major band. Results are bit-identical
// to the full tier because every cell value is a pure function of its
// neighbours.
//
// The row layer runs over the same stores, with row fronts
// (RowMajorLayout): sweep_rows is the one serial row sweep, used by the
// serial frontier scan (solve_frontier_serial, a one- or two-row
// WindowStore — a row sweep respects every contributing set) and by the
// batch engine's lane cohorts (core/lane_cohort.h) on both tiers.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"
#include "tables/frontier.h"

namespace lddp::detail {

/// RunConfig::checkpoint_interval resolution: 0 asks the model.
inline std::size_t resolve_checkpoint_interval(std::size_t user,
                                               std::size_t rows) {
  return user > 0 ? user : default_checkpoint_interval(rows);
}

/// Rolling window over the last `w` fronts of a layout, 64-byte-aligned
/// base, fronts padded to a common stride. addr(i, j) is affine along any
/// FrontRun (the layout's flat() is affine and the front index is
/// constant), so the SIMD batch-front machinery works on it unchanged.
template <typename V, typename Layout>
struct FrontWindow {
  const Layout* layout;
  V* base;
  std::size_t w;       ///< fronts retained
  std::size_t stride;  ///< elements per front slot

  static std::size_t max_front_size(const Layout& L) {
    std::size_t fs = 0;
    for (std::size_t f = 0; f < L.num_fronts(); ++f)
      fs = std::max(fs, L.front_size(f));
    return fs;
  }
  static std::size_t slot_stride(const Layout& L) {
    return (max_front_size(L) + 15) & ~std::size_t{15};
  }

  V* addr(std::size_t i, std::size_t j) const {
    const std::size_t f = layout->front_of(i, j);
    return base + (f % w) * stride +
           (layout->flat(i, j) - layout->front_offset(f));
  }
};

/// Copies front f's checkpoint-row and last-row cells out of the window
/// into the table's retained storage. Cost is O(front_size / K) via mod-K
/// lane stepping over the front's affine runs — not a per-cell scan.
/// Returns the number of cells harvested (for transfer pricing).
template <typename V, typename Layout, typename WindowAddr>
std::size_t harvest_front(FrontierTable<V>& t, const Layout& layout,
                          std::size_t f, std::size_t rows, std::size_t K,
                          const WindowAddr& addr) {
  FrontRun runs[2];
  const std::size_t nr = front_runs(layout, f, runs);
  std::size_t harvested = 0;
  auto store = [&](std::size_t i, std::size_t j) {
    const V v = *addr(i, j);
    if (i % K == 0) t.checkpoint_row(i)[j] = v;
    if (i == rows - 1) t.last_row()[j] = v;
    ++harvested;
  };
  for (std::size_t r = 0; r < nr; ++r) {
    const FrontRun& run = runs[r];
    if (run.len == 0) continue;
    if (run.di == 0) {
      const std::size_t i = run.i0;
      const bool ck = i % K == 0, last = i == rows - 1;
      if (!ck && !last) continue;
      if (run.dj == 1 && (ck || last)) {
        // Contiguous row segment: bulk copies into the retained rows.
        const V* src = addr(i, run.j0);
        if (ck) std::copy(src, src + run.len, t.checkpoint_row(i) + run.j0);
        if (last) std::copy(src, src + run.len, t.last_row() + run.j0);
        harvested += run.len;
      } else {
        for (std::size_t k = 0; k < run.len; ++k)
          store(i, run.j0 + static_cast<std::size_t>(
                                static_cast<std::ptrdiff_t>(k) * run.dj));
      }
      continue;
    }
    // di = +/-1: rows hitting the checkpoint grid are every K-th lane.
    const std::size_t k0 =
        run.di > 0 ? (K - run.i0 % K) % K : run.i0 % K;
    for (std::size_t k = k0; k < run.len; k += K) {
      const std::size_t i =
          run.i0 + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(k) * run.di);
      const std::size_t j =
          run.j0 + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(k) * run.dj);
      store(i, j);
    }
    // The last row rides along whatever lane reaches it.
    const std::ptrdiff_t kl =
        run.di > 0 ? static_cast<std::ptrdiff_t>(rows - 1) -
                         static_cast<std::ptrdiff_t>(run.i0)
                   : static_cast<std::ptrdiff_t>(run.i0) -
                         static_cast<std::ptrdiff_t>(rows - 1);
    if (kl >= 0 && kl < static_cast<std::ptrdiff_t>(run.len) &&
        (rows - 1) % K != 0) {  // % K == 0 lanes stored it already
      const std::size_t k = static_cast<std::size_t>(kl);
      store(run.i0 + static_cast<std::size_t>(
                         static_cast<std::ptrdiff_t>(k) * run.di),
            run.j0 + static_cast<std::size_t>(
                         static_cast<std::ptrdiff_t>(k) * run.dj));
    }
  }
  return harvested;
}

/// Row-offset view of a problem for band rematerialization: the front
/// runner addresses band-local rows (row 0 = grid row `row0`, the band's
/// checkpoint), while f and the batch hook see grid rows.
template <LddpProblem P>
class BandRowsProblem {
 public:
  using Value = typename P::Value;

  BandRowsProblem(const P& p, std::size_t row0) : p_(&p), row0_(row0) {}

  std::size_t rows() const { return p_->rows() - row0_; }
  std::size_t cols() const { return p_->cols(); }
  ContributingSet deps() const { return p_->deps(); }
  Value boundary() const { return p_->boundary(); }
  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    return p_->compute(row0_ + i, j, nb);
  }
  bool compute_front(const FrontSpan<Value>& s) const
    requires BatchFrontProblem<P>
  {
    FrontSpan<Value> g = s;
    g.i0 += row0_;
    return p_->compute_front(g);
  }

 private:
  const P* p_;
  std::size_t row0_;
};

/// Rematerializes a band as the anti-diagonal fronts of front-major
/// storage `out` over `fronts` (row 0 = the checkpoint row `prev`, grid
/// row row_lo - 1). A W dependency makes each row sequential, but the
/// cells of an anti-diagonal are independent: with NE excluded, every
/// neighbour of front f lies on front f - 1 or f - 2, so run_front_range
/// hands each front's interior to compute_front as stride-one spans. Each
/// cell gets the same f and the same neighbour values as the row
/// recurrence, so the band is bit-identical to run_row's.
template <LddpProblem P>
void remat_band_fronts(const P& p, ContributingSet deps,
                       typename P::Value bound, std::size_t row_lo,
                       const typename P::Value* prev, typename P::Value* out,
                       const AntiDiagonalLayout& fronts) {
  const std::size_t width = fronts.cols();
  // Cell (0, j) is position 0 of front j.
  for (std::size_t j = 0; j < width; ++j)
    out[fronts.front_offset(j)] = prev[j];
  const BandRowsProblem<P> band(p, row_lo - 1);
  auto addr = [out, &fronts](std::size_t i, std::size_t j) {
    return out + fronts.flat(i, j);
  };
  for (std::size_t f = 1; f < fronts.num_fronts(); ++f)
    run_front_range(band, deps, bound, fronts, f, f < width ? 1 : 0,
                    fronts.front_size(f), addr, /*batch=*/true);
}

/// Installs the rematerialization callback on a frontier table. `holder`
/// is copied into the callback and must yield the problem (in the table's
/// canonical orientation) on call — a lambda returning `*p` for a
/// caller-owned problem, or owning a cheap symmetry adapter / shared_ptr
/// by value. Bands chain from their upper checkpoint. W-dependent, NE-free
/// problems with the batch hook rematerialize front-major
/// (remat_band_fronts) when `batch` is set; every other set — NE, W-free
/// (whose rows already take the hook), `batch` off — runs the same
/// run_row as the serial strategy. Rematerialized cells are bit-identical
/// to the original sweep either way.
template <typename V, typename Holder>
void attach_row_remat(FrontierTable<V>& t, Holder holder, bool batch) {
  using P = std::remove_cvref_t<decltype(holder())>;
  const ContributingSet deps = holder().deps();
  const V bound = holder().boundary();
  const bool front_major =
      has_batch_front_v<P> && batch && deps.has_w() && !deps.has_ne();
  t.set_remat(
      [holder = std::move(holder), deps, bound, batch](
          std::size_t row_lo, std::size_t row_hi, std::size_t width,
          const V* prev, V* out, const AntiDiagonalLayout* fronts) {
        const auto& p = holder();
        if constexpr (has_batch_front_v<P>) {
          if (fronts != nullptr) {
            remat_band_fronts(p, deps, bound, row_lo, prev, out, *fronts);
            return;
          }
        }
        for (std::size_t i = row_lo; i < row_hi; ++i) {
          V* row = out + (i - row_lo) * width;
          // cols = width clamps NE reads at the pruning edge to `bound`;
          // the table's erosion accounting never serves those cells.
          run_row(p, deps, bound, i, 0, width, width, prev, row, batch);
          prev = row;
        }
      },
      deps.has_ne(), front_major);
}

/// Fills the frontier-specific stats fields.
template <typename V>
void finish_frontier_stats(SolveStats* stats, const FrontierTable<V>& t,
                           std::size_t peak_bytes) {
  if (stats == nullptr) return;
  stats->peak_table_bytes = peak_bytes;
  stats->checkpoint_interval = t.checkpoint_interval();
  stats->checkpoint_rows = t.checkpoint_row_count();
}

/// Backing memory of a store: aligned host scratch, or a simulated device
/// allocation (through the platform's BufferPool, so arena reuse and the
/// pool-acquire fault site see it). Every cell is written before it is
/// read, so neither is zero-filled.
template <typename V>
class StoreMemory {
 public:
  V* acquire(std::size_t count, sim::Device* device) {
    if (device == nullptr) return host_.ensure(count);
    device_ = device->template alloc<V>(count, /*zeroed=*/false);
    return device_.device_ptr();
  }

 private:
  AlignedBuf<V> host_;
  sim::DeviceBuffer<V> device_;
};

/// Prices the trip of a GPU-computed front's harvested cells to the host:
/// one pinned download labelled "frontier.halo". Records nothing for zero
/// bytes, i.e. on the full tier.
inline void record_halo(sim::LaunchGraph& graph, sim::Device::StreamId stream,
                        std::size_t bytes, sim::OpId dep = sim::kNoOp) {
  if (bytes > 0)
    graph.record_d2h(stream, bytes, sim::MemoryKind::kPinned, dep,
                     "frontier.halo");
}

}  // namespace lddp::detail

namespace lddp {

/// The whole table. Row fronts in host memory are the rows of the result
/// Grid and fill it in place; any other front order, or device memory,
/// fills a padded front-major table that finish() unpacks into the Grid
/// once, so every neighbour span of the sweep is stride-one.
template <typename V, typename Layout>
class FullStore {
 public:
  /// `device` null keeps the table in host memory.
  explicit FullStore(const Layout& layout, sim::Device* device = nullptr)
      : in_place_(std::is_same_v<Layout, RowMajorLayout> && device == nullptr),
        idx_(in_place_ ? FrontMajorIndex<Layout>(layout)
                       : FrontMajorIndex<Layout>(layout, sizeof(V))) {
    if (in_place_) {
      grid_ = Grid<V>::uninitialized(layout.rows(), layout.cols());
      data_ = grid_.data();
    } else {
      data_ = memory_.acquire(idx_.size(), device);
    }
  }

  const Layout& layout() const { return idx_.layout(); }
  V* addr(std::size_t i, std::size_t j) const {
    return data_ + idx_.flat(i, j);
  }
  std::size_t after_front(std::size_t) { return 0; }
  Grid<V> finish() {
    if (!in_place_) grid_ = unpack_front_major(data_, idx_);
    return std::move(grid_);
  }
  /// The result Grid, plus the front-major table it is unpacked from.
  std::size_t peak_bytes() const {
    return layout().rows() * layout().cols() * sizeof(V) *
           (in_place_ ? 1 : 2);
  }

 private:
  bool in_place_;
  FrontMajorIndex<Layout> idx_;
  detail::StoreMemory<V> memory_;
  Grid<V> grid_;
  V* data_ = nullptr;
};

/// A rolling window of the last frontier_window_fronts(layout, deps)
/// fronts; after_front(f) harvests front f's checkpoint-row and last-row
/// cells into the FrontierTable that finish() returns. Requires a bounded
/// window (frontier_window_fronts > 0).
template <typename V, typename Layout>
class WindowStore {
 public:
  /// `device` null keeps the window in host memory.
  WindowStore(const Layout& layout, ContributingSet deps, std::size_t K,
              sim::Device* device = nullptr)
      : window_{&layout, nullptr, detail::frontier_window_fronts(layout, deps),
                detail::FrontWindow<V, Layout>::slot_stride(layout)},
        table_(FrontierTable<V>::checkpointed(layout.rows(), layout.cols(),
                                              K)) {
    LDDP_CHECK_MSG(window_.w > 0,
                   "layout/deps pair has no bounded frontier window");
    window_.base = memory_.acquire(window_.w * window_.stride, device);
    peak_bytes_ =
        table_.resident_bytes() + window_.w * window_.stride * sizeof(V);
  }

  const Layout& layout() const { return *window_.layout; }
  V* addr(std::size_t i, std::size_t j) const { return window_.addr(i, j); }
  std::size_t after_front(std::size_t f) {
    return detail::harvest_front(
        table_, layout(), f, layout().rows(), table_.checkpoint_interval(),
        [this](std::size_t i, std::size_t j) { return window_.addr(i, j); });
  }
  FrontierTable<V> finish() { return std::move(table_); }
  /// Checkpoints, last row and the window.
  std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  detail::FrontWindow<V, Layout> window_;
  detail::StoreMemory<V> memory_;
  FrontierTable<V> table_;
  std::size_t peak_bytes_ = 0;
};

}  // namespace lddp

namespace lddp::detail {

// --- Serial row sweep ---------------------------------------------------

/// Serial row sweep of rows [r0, rows) over a row-major store (FullStore
/// or WindowStore on RowMajorLayout): row i reads its predecessor at
/// store.addr(i - 1, 0), and after_front(i) runs once row i is final.
/// With a one-row window (W-only and empty sets) the predecessor aliases
/// row i; that is safe because run_row reads it only for NW/N/NE.
template <LddpProblem P, typename Store>
void sweep_rows(const P& p, Store& store, std::size_t r0, bool batch) {
  using V = typename P::Value;
  const std::size_t m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  for (std::size_t i = r0; i < p.rows(); ++i) {
    const V* prev = i > 0 ? store.addr(i - 1, 0) : nullptr;
    run_row(p, deps, bound, i, 0, m, m, prev, store.addr(i, 0), batch);
    store.after_front(i);
  }
}

/// Row-streaming serial scan: sweep_rows over a one- or two-row window
/// that keeps the checkpoint rows and the last row. Same cells, same
/// single serial CPU charge as solve_cpu_serial.
template <LddpProblem P>
FrontierTable<typename P::Value> solve_frontier_serial(
    const P& p, sim::Platform* platform, SolveStats* stats,
    bool batch, std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const RowMajorLayout layout(p.rows(), p.cols());
  WindowStore<V, RowMajorLayout> store(layout, p.deps(), K);
  sweep_rows(p, store, 0, batch);
  finish_serial_scan(p, platform, stats, batch, wall.seconds());
  FrontierTable<V> table = store.finish();
  finish_frontier_stats(stats, table, store.peak_bytes());
  return table;
}

}  // namespace lddp::detail
