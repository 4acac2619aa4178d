// Tile-granular heterogeneous execution — one implementation for all four
// canonical patterns.
//
// The TileScheduler reduces every contributing set to anti-diagonal tile
// fronts with tile-level dependencies in {W, NW, N} (skewed parallelogram
// tiles absorb NE). The same three-phase split as the untiled strategies
// then applies *in tile units*:
//
//   Phase 1: the first t_switch tile fronts run entirely on the CPU
//            (tiled: one cache-resident tile per worker).
//   Phase 2: each tile front is split — the CPU owns the top tile rows
//            tu < t_share, the GPU the rest. Because the CPU strip is the
//            *top* of an up/left dependency cone, every cross-unit
//            dependency points CPU -> GPU for every one of the 15
//            contributing sets (the cell-level two-way patterns become
//            one-way at tile granularity), so the whole phase — kernels
//            plus halo uploads — fuses into a single LaunchGraph
//            submission. Transfers shrink from whole fronts to tile
//            halos: after the CPU finishes its strip of front g it ships
//            the bottom cell row of its boundary tile on a copy stream;
//            the GPU kernel for front g waits on the halos of fronts g-1
//            and g-2.
//   Phase 3: the last t_switch tile fronts run on the CPU again, after a
//            bulk download of the GPU-owned halos of the two preceding
//            fronts.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/gpu_tiled.h"
#include "core/strategies/heuristics.h"
#include "core/tile_scheduler.h"
#include "sim/launch_graph.h"
#include "sim/tile_kernel.h"

namespace lddp {

template <LddpProblem P>
Grid<typename P::Value> solve_hetero_tiled(const P& p, sim::Platform& platform,
                                           const HeteroParams& user,
                                           std::size_t tile, SolveStats* stats,
                                           bool fused = true,
                                           bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const bool use_batch = detail::use_batch_rows(p, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const TileScheduler sched(n, m, tile, deps);
  const std::size_t num_fronts = sched.num_fronts();

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo info = detail::kernel_info_for(p, "hetero.tile");
  const detail::TiledSplit split = detail::resolve_tiled_split(
      user, sched, platform.spec(), info, sizeof(V),
      static_cast<double>(input_bytes_of(p)), fused);
  const std::size_t ts = split.t_switch_fronts;
  const std::size_t s = split.t_share_tiles;
  const std::size_t phase2_begin = ts;
  const std::size_t phase2_end = num_fronts - ts;

  Grid<V> table(n, m);
  const RowMajorLayout layout(n, m);
  sim::DeviceBuffer<V> dtable = gpu.template alloc<V>(layout.size());

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  sim::LaunchGraph graph(gpu, fused);
  // Only the GPU strip's share of the problem input goes up.
  const std::size_t cpu_rows = std::min(n, s * sched.tile());
  graph.record_h2d(compute_stream,
                   static_cast<std::size_t>(
                       static_cast<double>(input_bytes_of(p)) *
                       static_cast<double>(n - cpu_rows) /
                       static_cast<double>(n)),
                   sim::MemoryKind::kPageable);

  const bool north_deps = deps.has_n() || deps.has_nw() || deps.has_ne();
  // The east halo matters when a dependency reaches laterally into the
  // west neighbour tile: W always, NW from a consumer's interior rows, and
  // the skewed images of N/NW.
  const bool west_deps = deps.has_w() || deps.has_nw() ||
                         (sched.skewed() && deps.has_n());

  // CPU-owned tiles (tile rows tu < s) at the head of front g.
  auto cpu_tiles = [&](std::size_t g) -> std::size_t {
    const std::size_t lo = sched.tu_min(g);
    if (lo >= s) return 0;
    return std::min(s - lo, sched.front_tiles(g));
  };

  // Runs tiles [0, count) of front g on the CPU (block-per-worker, priced
  // as a tiled front with the front's average tile population).
  auto run_cpu = [&](std::size_t g, std::size_t count,
                     sim::OpId dep) -> sim::OpId {
    if (count == 0) return sim::kNoOp;
    std::size_t cells = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const TileScheduler::TileCoord t = sched.front_tile(g, k);
      cells += sched.cell_count(t.tu, t.tv);
    }
    return platform.cpu_tiled_front(
        count, cells / count, work,
        [&, g](std::size_t k) {
          const TileScheduler::TileCoord t = sched.front_tile(g, k);
          V* const data = table.data();
          for (std::size_t i = sched.row_begin(t.tu); i < sched.row_end(t.tu);
               ++i) {
            const TileScheduler::RowSpan sp = sched.row_span(t.tv, i);
            if (sp.size() == 0) continue;
            const V* prev = i > 0 ? data + (i - 1) * m : nullptr;
            detail::run_row(p, deps, bound, i, sp.j_begin, sp.j_end, m, prev,
                            data + i * m, batch);
          }
        },
        dep);
  };

  // Scatters one CPU tile's outgoing halo into the device table and
  // returns the byte count (the real copy is done here; the caller records
  // the priced transfer).
  auto stage_tile_halo = [&](std::size_t tu, std::size_t tv, bool north,
                             bool west) -> std::size_t {
    std::size_t bytes = 0;
    V* out = dtable.device_ptr();
    if (north)
      sched.for_each_bottom_row_cell(tu, tv, [&](std::size_t i,
                                                 std::size_t j) {
        out[layout.flat(i, j)] = table.at(i, j);
        bytes += sizeof(V);
      });
    if (west)
      sched.for_each_east_halo_cell(tu, tv, [&](std::size_t i,
                                                std::size_t j) {
        out[layout.flat(i, j)] = table.at(i, j);
        bytes += sizeof(V);
      });
    return bytes;
  };

  sim::OpId last_cpu = sim::kNoOp;
  sim::OpId last_gpu = sim::kNoOp;

  // ---- Phase 1 ----------------------------------------------------------
  for (std::size_t g = 0; g < phase2_begin; ++g) {
    const sim::OpId op = run_cpu(g, sched.front_tiles(g), sim::kNoOp);
    if (op != sim::kNoOp) last_cpu = op;
  }

  // Phase-2 entry: GPU tiles read halos of the two preceding fronts, which
  // the CPU computed in phase 1 (and, for the west halo, CPU tiles in the
  // same tile row computed before the split began). Ship them in bulk.
  sim::OpId h2d_m1 = sim::kNoOp;  // halo transfer of front g-1
  sim::OpId h2d_m2 = sim::kNoOp;  // halo transfer of front g-2
  if (phase2_begin < phase2_end && phase2_begin > 0) {
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 2 && back <= phase2_begin; ++back) {
      const std::size_t g = phase2_begin - back;
      for (std::size_t k = 0; k < sched.front_tiles(g); ++k) {
        const TileScheduler::TileCoord t = sched.front_tile(g, k);
        // North halo feeds the tile below (a GPU tile when tu + 1 >= s);
        // the east halo feeds the tile to the east (GPU when tu >= s).
        bytes += stage_tile_halo(t.tu, t.tv,
                                 north_deps && t.tu + 1 >= s,
                                 west_deps && t.tu >= s);
      }
    }
    h2d_m1 = h2d_m2 = graph.record_h2d(h2d_stream, bytes,
                                       sim::MemoryKind::kPageable, last_cpu);
  }

  // ---- Phase 2 ----------------------------------------------------------
  for (std::size_t g = phase2_begin; g < phase2_end; ++g) {
    const std::size_t nt = sched.front_tiles(g);
    const std::size_t c = cpu_tiles(g);

    sim::OpId cpu_op = sim::kNoOp;
    if (c > 0) {
      // CPU tiles read only tiles with tu < s of earlier fronts — all
      // CPU-produced, so the CPU resource's FIFO order already covers it.
      cpu_op = run_cpu(g, c, sim::kNoOp);
      if (cpu_op != sim::kNoOp) last_cpu = cpu_op;
    }

    // Pipelined one-way halo: the boundary tile (tile row s-1) of this
    // front, read by GPU fronts g+1 (as N) and g+2 (as NW).
    sim::OpId h2d_op = sim::kNoOp;
    if (c > 0 && north_deps && s >= 1 && s < sched.tile_rows() &&
        sched.tu_min(g) + c == s) {
      const std::size_t bytes = stage_tile_halo(s - 1, g - (s - 1),
                                                /*north=*/true,
                                                /*west=*/false);
      if (bytes > 0)
        h2d_op = graph.record_h2d(h2d_stream, bytes, sim::MemoryKind::kPinned,
                                  cpu_op);
    }

    if (c < nt) {
      const detail::TileFrontWork fw =
          detail::tile_front_work<V>(sched, info, g, c, nt);
      if (fw.cells > 0) {
        const double exec = sim::tiled_kernel_exec_seconds(
            gpu.spec(), info, fw.tiles, sched.tile(), sched.tile(), fw.cells,
            fw.staged_bytes);
        const double packed = sim::tiled_kernel_packed_exec_seconds(
            gpu.spec(), info, fw.tiles, sched.tile(), sched.tile(), fw.cells,
            fw.staged_bytes);
        // The kernel additionally waits for the halos of the last two
        // fronts (the N/NW reads that cross the strip boundary).
        graph.stream_wait(compute_stream, h2d_m2);
        V* out = dtable.device_ptr();
        last_gpu = graph.launch_tiled(
            compute_stream, exec, nt - c,
            [&, g, c, out](std::size_t k) {
              const TileScheduler::TileCoord t = sched.front_tile(g, c + k);
              for (std::size_t i = sched.row_begin(t.tu);
                   i < sched.row_end(t.tu); ++i) {
                const TileScheduler::RowSpan sp = sched.row_span(t.tv, i);
                if (sp.size() == 0) continue;
                const V* prev = i > 0 ? out + (i - 1) * m : nullptr;
                detail::run_row(p, deps, bound, i, sp.j_begin, sp.j_end, m,
                                prev, out + i * m, batch);
              }
            },
            h2d_m1, packed);
      }
    }
    h2d_m2 = h2d_m1;
    h2d_m1 = h2d_op;
  }

  // Phase 2 is over: submit the fused pipeline before anything host-side
  // needs a GPU op id.
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Phase-3 entry: the CPU reads the halos of the two fronts preceding
  // phase2_end; download the GPU-owned parts in bulk. (Later phase-3
  // fronts only read phase-3 fronts, which are CPU-computed.)
  sim::OpId entry_d2h = sim::kNoOp;
  if (phase2_end < num_fronts && phase2_end >= 1) {
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 2 && back <= phase2_end; ++back) {
      const std::size_t g = phase2_end - back;
      if (g < phase2_begin) break;  // phase-1 front: already on the host
      for (std::size_t k = cpu_tiles(g); k < sched.front_tiles(g); ++k) {
        const TileScheduler::TileCoord t = sched.front_tile(g, k);
        auto fetch = [&](std::size_t i, std::size_t j) {
          table.at(i, j) = dtable.device_ptr()[layout.flat(i, j)];
          bytes += sizeof(V);
        };
        if (north_deps) sched.for_each_bottom_row_cell(t.tu, t.tv, fetch);
        if (west_deps) sched.for_each_east_halo_cell(t.tu, t.tv, fetch);
      }
    }
    entry_d2h = gpu.record_d2h(d2h_stream, bytes, sim::MemoryKind::kPageable,
                               last_gpu);
  }

  // ---- Phase 3 ----------------------------------------------------------
  for (std::size_t g = phase2_end; g < num_fronts; ++g) {
    const sim::OpId op = run_cpu(g, sched.front_tiles(g), entry_d2h);
    if (op != sim::kNoOp) {
      last_cpu = op;
      entry_d2h = sim::kNoOp;  // only the first phase-3 front waits on it
    }
  }

  // Final download of the GPU-owned region (phase-2 tile rows tu >= s).
  {
    std::size_t bytes = 0;
    for (std::size_t g = phase2_begin; g < phase2_end; ++g) {
      for (std::size_t k = cpu_tiles(g); k < sched.front_tiles(g); ++k) {
        const TileScheduler::TileCoord t = sched.front_tile(g, k);
        sched.for_each_cell(t.tu, t.tv, [&](std::size_t i, std::size_t j) {
          table.at(i, j) = dtable.device_ptr()[layout.flat(i, j)];
          bytes += sizeof(V);
        });
      }
    }
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = classify(deps);
    stats->transfer = transfer_need(deps);
    stats->fronts = num_fronts;
    stats->cells = n * m;
    stats->peak_table_bytes = n * m * sizeof(V) * 2;  // device twin + grid
    stats->t_switch = static_cast<long long>(ts * sched.tile());
    stats->t_share = static_cast<long long>(s * sched.tile());
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
