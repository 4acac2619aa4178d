// Frontier (linear-space) execution engines.
//
// Every strategy here fills a FrontierTable instead of a Grid: the live
// state during the sweep is a rolling window of the last few wavefronts
// (front_runner.h frontier_window_fronts gives the per-layout width), and
// the only rows that survive the solve are the checkpoint rows i % K == 0
// plus the last row. Consumers that need interior cells — tracebacks,
// best-score scans — go through the table's rematerialization callback
// (attach_row_remat), which re-runs the problem's own recurrence over one
// K-row band — row by row, or, for W-dependent problems with a batch hook,
// front by front over a front-major band; results are bit-identical to
// the full-table strategies because every cell value is a pure function
// of its neighbours.
//
// Engines:
//   * solve_frontier_serial   — row-streaming scan; works for every
//     pattern (a row-major sweep respects all LDDP-Plus dependencies).
//   * solve_frontier_parallel — multicore wavefronts over the window
//     (the cpu_strategy.h baseline minus the O(n*m) table).
//   * solve_frontier_gpu      — per-front kernels into a device-resident
//     window; only checkpoint halos are downloaded, never the table.
//   * solve_frontier_hetero   — the paper's CPU+GPU split over the
//     window; the CPU owns its strip of each front directly in the
//     (host-visible) device window, boundary cells are priced as pinned
//     transfers exactly like the full-table heterogeneous strategies.
//
// Simulated pricing matches the full-table strategies front for front
// (same kernels, same CPU charges); what changes is storage: O(window +
// rows/K checkpoints) instead of O(rows * cols), which is also why the
// real wall-clock of large value-only solves improves — the window stays
// cache-resident and the full table's zero-fill, write-allocate traffic
// and final unpack disappear.
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

// --- Front index of a cell (inverse of the layout's front geometry) ----

inline std::size_t front_of(const RowMajorLayout&, std::size_t i,
                            std::size_t) {
  return i;
}
inline std::size_t front_of(const ColumnMajorLayout&, std::size_t,
                            std::size_t j) {
  return j;
}
inline std::size_t front_of(const AntiDiagonalLayout&, std::size_t i,
                            std::size_t j) {
  return i + j;
}
inline std::size_t front_of(const KnightMoveLayout&, std::size_t i,
                            std::size_t j) {
  return 2 * i + j;
}
inline std::size_t front_of(const ShellLayout&, std::size_t i,
                            std::size_t j) {
  return std::min(i, j);
}
inline std::size_t front_of(const MirrorShellLayout& L, std::size_t i,
                            std::size_t j) {
  return std::min(i, L.cols() - 1 - j);
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
    const std::size_t f = front_of(*layout, i, j);
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
                           std::size_t transient_bytes) {
  if (stats == nullptr) return;
  stats->peak_table_bytes = t.resident_bytes() + transient_bytes;
  stats->checkpoint_interval = t.checkpoint_interval();
  stats->checkpoint_rows = t.checkpoint_row_count();
}

// --- Serial engine ------------------------------------------------------

/// Row-streaming serial scan: two rolling rows of live state, rows on the
/// checkpoint grid computed directly into their retained storage. Same
/// cells, same single serial CPU charge as solve_cpu_serial.
template <LddpProblem P>
FrontierTable<typename P::Value> solve_frontier_serial(
    const P& p, sim::Platform* platform, SolveStats* stats,
    bool batch, std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  FrontierTable<V> table = FrontierTable<V>::checkpointed(n, m, K);
  AlignedBuf<V> roll;
  V* const rbase = roll.ensure(2 * m);
  const V* prev = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    V* row;
    if (i % K == 0) row = table.checkpoint_row(i);
    else if (i == n - 1) row = table.last_row();
    else row = rbase + (i & 1) * m;
    run_row(p, deps, bound, i, 0, m, m, prev, row, batch);
    if (i == n - 1 && i % K == 0)
      std::copy(row, row + m, table.last_row());
    prev = row;
  }
  if (platform) {
    const bool use_batch = batch && has_batch_front_v<P> && !deps.has_w();
    platform->cpu_charge(n * m, cpu_work_for(p, use_batch),
                         /*parallel=*/false);
  }
  if (stats) {
    stats->mode_used = Mode::kCpuSerial;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = n;
    stats->cells = n * m;
    if (platform) finish_stats(*stats, *platform, wall.seconds());
    else stats->real_seconds = wall.seconds();
    finish_frontier_stats(stats, table, 2 * m * sizeof(V));
  }
  return table;
}

// --- Multicore wavefront engine ----------------------------------------

/// solve_cpu_parallel over a rolling front window. Requires
/// frontier_window_fronts(layout, deps) > 0 (the caller checks and falls
/// back to the full-table strategy otherwise).
template <LddpProblem P, typename Layout>
FrontierTable<typename P::Value> solve_frontier_parallel(
    const P& p, const Layout& layout, sim::Platform& platform,
    SolveStats* stats, double mem_amplification, bool batch,
    std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const std::size_t w = frontier_window_fronts(layout, deps);
  LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded frontier window");
  const bool use_batch = use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = cpu_work_for(p, use_batch);
  FrontierTable<V> table = FrontierTable<V>::checkpointed(n, m, K);

  AlignedBuf<V> win;
  FrontWindow<V, Layout> fw{&layout, nullptr, w,
                            FrontWindow<V, Layout>::slot_stride(layout)};
  fw.base = win.ensure(fw.w * fw.stride);
  auto addr = [&fw](std::size_t i, std::size_t j) { return fw.addr(i, j); };

  sim::Platform::CpuFrontOpts opts;
  opts.mem_amplification = mem_amplification;
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, layout.front_size(f), mem_amplification);
    platform.cpu_front(
        layout.front_size(f), work,
        [&](std::size_t lo, std::size_t hi) {
          run_front_range(p, deps, bound, layout, f, lo, hi, addr, batch);
        },
        opts);
    harvest_front(table, layout, f, n, K, addr);
  }
  if (stats) {
    stats->mode_used = Mode::kCpuParallel;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = n * m;
    finish_stats(*stats, platform, wall.seconds());
    finish_frontier_stats(stats, table, fw.w * fw.stride * sizeof(V));
  }
  return table;
}

// --- GPU engine ---------------------------------------------------------

/// solve_gpu over a device-resident front window. The full-table version
/// downloads result_bytes and host-unpacks the whole device array; here
/// only the checkpoint halo of each front comes down (pinned), plus the
/// same final result download.
template <LddpProblem P, typename Layout>
FrontierTable<typename P::Value> solve_frontier_gpu(
    const P& p, const Layout& layout, sim::Platform& platform,
    SolveStats* stats, bool fused, bool batch, std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const std::size_t w = frontier_window_fronts(layout, deps);
  LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded frontier window");
  sim::Device& gpu = platform.gpu();
  const auto stream = gpu.default_stream();
  const sim::KernelInfo info = kernel_info_for(p, "gpu.front");
  FrontierTable<V> table = FrontierTable<V>::checkpointed(n, m, K);

  const std::size_t stride = FrontWindow<V, Layout>::slot_stride(layout);
  sim::DeviceBuffer<V> dwin =
      gpu.template alloc<V>(w * stride, /*zeroed=*/false);
  FrontWindow<V, Layout> fw{&layout, dwin.device_ptr(), w, stride};
  auto addr = [&fw](std::size_t i, std::size_t j) { return fw.addr(i, j); };

  sim::LaunchGraph graph(gpu, fused);
  graph.record_h2d(stream, input_bytes_of(p), sim::MemoryKind::kPageable);
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    graph.launch(stream, info, layout.front_size(f),
                 [&, f](std::size_t lo, std::size_t hi) {
                   run_front_range(p, deps, bound, layout, f, lo, hi, addr,
                                   batch);
                 });
    // Kernels execute eagerly at record time (sim semantics), so the
    // freshly computed front can be harvested here; the retained rows'
    // trip to the host is priced as a pinned halo copy.
    const std::size_t cells = harvest_front(table, layout, f, n, K, addr);
    if (cells > 0)
      graph.record_d2h(stream, cells * sizeof(V), sim::MemoryKind::kPinned);
  }
  graph.replay();
  const sim::OpId done = gpu.record_d2h(stream, result_bytes_of(p),
                                        sim::MemoryKind::kPageable);
  platform.cpu_sync(done);

  if (stats) {
    stats->mode_used = Mode::kGpu;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = n * m;
    finish_stats(*stats, platform, wall.seconds());
    finish_frontier_stats(stats, table, w * stride * sizeof(V));
  }
  return table;
}

// --- Heterogeneous engine ----------------------------------------------

/// CPU-owned position range of front f under a t_share strip of `s`:
/// columns j < s for row fronts, rows i < s for diagonal-order fronts
/// (the same strip semantics as the full-table heterogeneous strategies).
inline void hetero_cpu_range(const RowMajorLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  (void)f;
  lo = 0;
  hi = std::min(s, L.cols());
}
inline void hetero_cpu_range(const AntiDiagonalLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  const std::size_t i0 = L.i_min(f);
  lo = 0;
  hi = i0 >= s ? 0 : std::min(s - i0, L.front_size(f));
}
inline void hetero_cpu_range(const KnightMoveLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  // Enumeration runs i descending from i_max, so the i < s strip is the
  // suffix of the front.
  const std::size_t fs = L.front_size(f);
  hi = fs;
  if (fs == 0) {
    lo = 0;
    return;
  }
  const std::size_t imax = L.i_max(f);
  lo = imax + 1 > s ? std::min(imax + 1 - s, fs) : 0;
}

/// The paper's heterogeneous split over a rolling front window shared by
/// both units: the (host-visible) device window takes the CPU strip's
/// writes directly — mapped-memory style — while boundary cells crossing
/// the strip are priced as the same pinned transfers the full-table
/// heterogeneous strategies record. Supported for the row and
/// diagonal-order layouts (hetero_cpu_range above); Inverted-L falls back
/// to the full-table strategy at the dispatch layer.
template <LddpProblem P, typename Layout>
FrontierTable<typename P::Value> solve_frontier_hetero(
    const P& p, const Layout& layout, Pattern canon, sim::Platform& platform,
    const HeteroParams& user, SolveStats* stats, double mem_amplification,
    bool fused, bool batch, std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const std::size_t w = frontier_window_fronts(layout, deps);
  LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded frontier window");
  const std::size_t num_fronts = layout.num_fronts();
  const bool use_batch = use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = cpu_work_for(p, use_batch);

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo info = kernel_info_for(p, "hetero.frontier");
  // NE on row fronts is the one strip crossing that flows GPU -> CPU
  // (column j = t_share reads j + 1); diagonal-order strips only ever
  // cross CPU -> GPU. A two-way phase cannot fuse: the CPU consumes
  // device results mid-graph.
  const bool gpu_to_cpu =
      deps.has_ne() && std::is_same_v<Layout, RowMajorLayout>;
  const bool fuse = fused && !gpu_to_cpu;
  const HeteroParams params = resolve_hetero_params(
      user, canon, n, m, platform.spec(), info, mem_amplification,
      static_cast<double>(input_bytes_of(p)), gpu_to_cpu, fuse);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase2_begin = std::min(ts, num_fronts);
  const std::size_t phase2_end = num_fronts - std::min(ts, num_fronts);

  FrontierTable<V> table = FrontierTable<V>::checkpointed(n, m, K);
  const std::size_t stride = FrontWindow<V, Layout>::slot_stride(layout);
  sim::DeviceBuffer<V> dwin =
      gpu.template alloc<V>(w * stride, /*zeroed=*/false);
  FrontWindow<V, Layout> fw{&layout, dwin.device_ptr(), w, stride};
  auto addr = [&fw](std::size_t i, std::size_t j) { return fw.addr(i, j); };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  sim::LaunchGraph graph(gpu, fuse);
  // Only the GPU share of the inputs goes up; the CPU strip reads host
  // memory directly. The strip fraction is measured in front cells.
  {
    double cpu_cells = 0.0, all_cells = 0.0;
    for (std::size_t f = 0; f < num_fronts; ++f) {
      const std::size_t fs = layout.front_size(f);
      all_cells += static_cast<double>(fs);
      if (f < phase2_begin || f >= phase2_end) {
        cpu_cells += static_cast<double>(fs);
      } else {
        std::size_t lo, hi;
        hetero_cpu_range(layout, f, s, lo, hi);
        cpu_cells += static_cast<double>(hi - lo);
      }
    }
    const double frac = all_cells > 0.0 ? 1.0 - cpu_cells / all_cells : 0.0;
    graph.record_h2d(compute_stream,
                     static_cast<std::size_t>(
                         static_cast<double>(input_bytes_of(p)) * frac),
                     sim::MemoryKind::kPageable);
  }

  auto run_cpu = [&](std::size_t f, std::size_t lo, std::size_t hi,
                     sim::OpId dep) {
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;
    opts.mem_amplification = mem_amplification;
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, hi - lo, mem_amplification, true);
    opts.dep1 = dep;
    return platform.cpu_front(
        hi - lo, work,
        [&, f, lo](std::size_t a, std::size_t b) {
          run_front_range(p, deps, bound, layout, f, lo + a, lo + b, addr,
                          batch);
        },
        opts);
  };

  sim::OpId last_cpu = sim::kNoOp;
  sim::OpId last_gpu = sim::kNoOp;
  sim::OpId cpu_dep = sim::kNoOp;   // pinned D2H the next CPU strip awaits
  sim::OpId h2d_ring[4] = {sim::kNoOp, sim::kNoOp, sim::kNoOp, sim::kNoOp};

  for (std::size_t f = 0; f < num_fronts; ++f) {
    const std::size_t fs = layout.front_size(f);
    std::size_t lo = 0, hi = fs;  // CPU-owned positions
    const bool split_phase = f >= phase2_begin && f < phase2_end;
    if (split_phase) hetero_cpu_range(layout, f, s, lo, hi);

    sim::OpId cpu_op = sim::kNoOp;
    if (hi > lo) {
      cpu_op = run_cpu(f, lo, hi, cpu_dep);
      last_cpu = cpu_op;
      cpu_dep = sim::kNoOp;
    }

    const bool has_gpu = split_phase ? (hi - lo) < fs : false;
    sim::OpId h2d_op = sim::kNoOp;
    if (has_gpu && hi > lo) {
      // The CPU's strip-boundary cell of this front, pinned, pipelined on
      // the copy stream (mapped window: the data is already visible, the
      // record prices the crossing).
      h2d_op = graph.record_h2d(h2d_stream, sizeof(V),
                                sim::MemoryKind::kPinned, cpu_op);
    }

    h2d_ring[f % 4] = h2d_op;
    if (has_gpu) {
      // The kernel waits on the boundary uploads of every front still in
      // the window (W/N/NW/NE reads reach up to w - 1 fronts back; the
      // same-front W crossing of row fronts needs this front's upload).
      sim::OpId extra =
          std::is_same_v<Layout, RowMajorLayout> ? h2d_op : sim::kNoOp;
      for (std::size_t back = 1; back < w && back <= f; ++back) {
        const sim::OpId op = h2d_ring[(f - back) % 4];
        if (op == sim::kNoOp) continue;
        if (extra == sim::kNoOp) extra = op;
        else graph.stream_wait(compute_stream, op);
      }
      const std::size_t glo = lo == 0 ? hi : 0;
      const std::size_t ghi = lo == 0 ? fs : lo;
      last_gpu = graph.launch(
          compute_stream, info, ghi - glo,
          [&, f, glo](std::size_t a, std::size_t b) {
            run_front_range(p, deps, bound, layout, f, glo + a, glo + b, addr,
                            batch);
          },
          extra);
      if (gpu_to_cpu)
        // NE pulls the GPU's boundary column back across the strip for
        // the next front's CPU segment.
        cpu_dep = graph.record_d2h(d2h_stream, sizeof(V),
                                   sim::MemoryKind::kPinned, last_gpu);
    }

    const std::size_t cells = harvest_front(table, layout, f, n, K, addr);
    if (cells > 0 && has_gpu)
      graph.record_d2h(d2h_stream, cells * sizeof(V),
                       sim::MemoryKind::kPinned);
  }

  graph.replay();
  last_gpu = graph.resolve(last_gpu);
  const sim::OpId fin = gpu.record_d2h(
      d2h_stream, result_bytes_of(p), sim::MemoryKind::kPageable, last_gpu);
  platform.cpu_sync(fin, last_cpu);

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = canon;
    stats->transfer = transfer_need(deps);
    stats->fronts = num_fronts;
    stats->cells = n * m;
    stats->t_switch = params.t_switch;
    stats->t_share = params.t_share;
    finish_stats(*stats, platform, wall.seconds());
    finish_frontier_stats(stats, table, w * stride * sizeof(V));
  }
  return table;
}

}  // namespace lddp::detail
