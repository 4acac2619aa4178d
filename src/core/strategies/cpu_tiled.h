// Tiled multicore execution — the paper's other CPU mapping ("each thread
// is responsible for processing a group of cells (one or more
// blocks/sub-blocks)", Section IV-A), in the cache-efficient tiling style
// of Chowdhury & Ramachandran that the related work surveys.
//
// Partitioning is delegated to the TileScheduler: rectangular tile x tile
// blocks for NE-free contributing sets, skewed parallelogram tiles when NE
// is present. Either way the tile-level dependency structure reduces to
// {W, NW, N}, so tiles run in anti-diagonal tile wavefronts for *every*
// one of the 15 contributing sets — the historical NE restriction of this
// strategy is gone. Each tile is swept serially in row-major order —
// cache-resident, amplification-free — and tiles of one tile-front run
// block-per-thread.
//
// Compared to the per-cell wavefront baseline this amortizes the per-front
// synchronization over tile-sized chunks and removes the diagonal-walk
// cache penalty; bench_ablation_tiling quantifies both effects.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/tile_scheduler.h"

namespace lddp {

/// `store` (core/strategies/frontier_engine.h) is a FullStore over a
/// RowMajorLayout: a tile row is a contiguous segment of one of its rows.
template <LddpProblem P, typename Store>
auto solve_cpu_tiled(const P& p, Store& store, sim::Platform& platform,
                     std::size_t tile, SolveStats* stats, bool batch = true) {
  LDDP_CHECK_MSG(tile >= 1, "tile size must be positive");
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const bool use_batch = detail::use_batch_rows(p, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const TileScheduler sched(n, m, tile, deps);

  for (std::size_t g = 0; g < sched.num_fronts(); ++g) {
    platform.cpu_tiled_front(
        sched.front_tiles(g), tile * tile, work, [&, g](std::size_t k) {
          detail::run_tile(p, sched, sched.front_tile(g, k), store, batch);
        });
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kCpuTiled;
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
