// Tile-granular simulated-GPU execution: one thread block per tile, the
// tile plus its halo staged in shared memory (tile_kernel.h prices the
// staging), one kernel launch per *tile front* instead of per cell front.
//
// The TileScheduler normalizes every contributing set — skewed
// parallelogram tiles when NE is present — to anti-diagonal tile fronts,
// so a single implementation covers all four canonical patterns. Versus
// the thread-per-cell baseline this divides the number of launches by the
// tile side and shrinks global-memory traffic to the staged tile loads
// and stores; results stay bit-identical (compute_cell is pure and every
// dependency is computed before its consumer).
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/tile_scheduler.h"
#include "sim/launch_graph.h"
#include "sim/tile_kernel.h"

namespace lddp {

namespace detail {

/// Pricing inputs of one tile-front launch: tiles k in [k_begin, k_end) of
/// front g.
struct TileFrontWork {
  std::size_t tiles = 0;
  std::size_t cells = 0;
  std::size_t staged_bytes = 0;
};

template <typename V>
TileFrontWork tile_front_work(const TileScheduler& sched,
                              const sim::KernelInfo& info, std::size_t g,
                              std::size_t k_begin, std::size_t k_end) {
  TileFrontWork w;
  std::size_t halo = 0;
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const TileScheduler::TileCoord t = sched.front_tile(g, k);
    const std::size_t c = sched.cell_count(t.tu, t.tv);
    if (c == 0) continue;
    ++w.tiles;
    w.cells += c;
    halo += sched.halo_cells(t.tu, t.tv);
  }
  w.staged_bytes = sim::tiled_staged_bytes(info, sched.deps().count(),
                                           sizeof(V), w.cells, halo);
  return w;
}

}  // namespace detail

/// `store` (core/strategies/frontier_engine.h) is a FullStore over a
/// RowMajorLayout, priced as device memory: a tile row is a contiguous
/// segment, so the staged tile loads and stores coalesce without a bespoke
/// layout.
template <LddpProblem P, typename Store>
auto solve_gpu_tiled(const P& p, Store& store, sim::Platform& platform,
                     std::size_t tile, SolveStats* stats, bool fused = true,
                     bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const TileScheduler sched(n, m, tile, deps);
  sim::Device& gpu = platform.gpu();
  const auto stream = gpu.default_stream();
  const sim::KernelInfo info = detail::kernel_info_for(p, "gpu.tile");

  sim::LaunchGraph graph(gpu, fused);
  graph.record_h2d(stream, input_bytes_of(p), sim::MemoryKind::kPageable);

  for (std::size_t g = 0; g < sched.num_fronts(); ++g) {
    const std::size_t nt = sched.front_tiles(g);
    const detail::TileFrontWork fw =
        detail::tile_front_work<V>(sched, info, g, 0, nt);
    if (fw.cells == 0) continue;
    const double exec = sim::tiled_kernel_exec_seconds(
        gpu.spec(), info, fw.tiles, tile, tile, fw.cells, fw.staged_bytes);
    const double packed = sim::tiled_kernel_packed_exec_seconds(
        gpu.spec(), info, fw.tiles, tile, tile, fw.cells, fw.staged_bytes);
    graph.launch_tiled(
        stream, info, exec, nt,
        [&, g](std::size_t k) {
          detail::run_tile(p, sched, sched.front_tile(g, k), store, batch);
        },
        sim::kNoOp, packed);
  }
  graph.replay();

  auto table = store.finish();
  const sim::OpId done = gpu.record_d2h(stream, result_bytes_of(p),
                                        sim::MemoryKind::kPageable);
  platform.cpu_sync(done);

  if (stats) {
    stats->mode_used = Mode::kGpu;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = sched.num_fronts();
    stats->cells = n * m;
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
