// Heterogeneous execution of the horizontal pattern (Section III-B,
// Figure 4). A single phase over all rows; the CPU owns the left
// column-strip j < t_share of every row, the GPU the rest.
//
// Data movement (Section IV-C):
//   * contributing set {N}: no boundary crossings — both units stream
//     through their strips fully decoupled.
//   * case-1 (NW without NE, or NE without NW): one-way transfers, hidden
//     by pipelining on a copy stream — the producer unit runs one row
//     ahead of the consumer and never blocks.
//   * case-2 (NW and NE): two-way traffic every row. Implemented with
//     zero-copy mapped pinned memory (the paper's "pinned memory ...
//     fast memory access if data size is small"): no copy-engine ops, but
//     each unit pays a small mapped-access cost per row and the two units
//     serialize against each other's previous row.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"

namespace lddp {

/// `store` (core/strategies/frontier_engine.h) is over a RowMajorLayout
/// and host-visible to both units: the boundary cells each unit reads from
/// the other's strip are already in it, so the transfers below are priced,
/// never performed. A window store's checkpoint halos come down after each
/// row with GPU cells.
template <LddpProblem P, typename Store>
auto solve_hetero_horizontal(const P& p, Store& store,
                             sim::Platform& platform,
                             const HeteroParams& user, SolveStats* stats,
                             bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const RowMajorLayout& layout = store.layout();
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);

  sim::Device& gpu = platform.gpu();
  sim::KernelInfo info = detail::kernel_info_for(p, "hetero.h");
  const HeteroParams params = detail::resolve_hetero_params(
      user, Pattern::kHorizontal, n, m, platform.spec(), info,
      /*cpu_mem_amplification=*/1.0, static_cast<double>(input_bytes_of(p)),
      is_horizontal_case2(deps),
      // An NE dependency forces eager submission (gpu->cpu boundary every
      // row), so only NE-free shapes see the fused per-front pricing.
      fused && !deps.has_ne());
  const std::size_t s = static_cast<std::size_t>(params.t_share);

  const bool cpu_to_gpu = deps.has_nw() && s > 0 && s < m;
  const bool gpu_to_cpu = deps.has_ne() && s > 0 && s < m;
  const bool two_way = cpu_to_gpu && gpu_to_cpu;
  if (two_way) {
    // Zero-copy mapped pinned boundary: the GPU's kernels reach across
    // PCIe for the mapped cells (latency amortized by warp switching);
    // the CPU touches the same pinned pages at ordinary memory cost.
    info.extra_us = platform.spec().gpu.mapped_access_overhead_us;
  }

  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };
  // Cells [lo, hi) of row i.
  auto run_row_range = [&](std::size_t i, std::size_t lo, std::size_t hi) {
    detail::run_front_range(p, deps, bound, layout, i, lo, hi, addr, batch);
  };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  // Fusing requires strictly one-way traffic: with an NE dependency the
  // CPU consumes a GPU boundary every row (mid-phase host sync), which a
  // graph cannot span — exactly like a real CUDA graph.
  sim::LaunchGraph graph(gpu, fused && !gpu_to_cpu);
  // Only the GPU strip's share of the problem input goes up (the CPU reads
  // its columns from host memory directly).
  graph.record_h2d(compute_stream,
                 static_cast<std::size_t>(
                     static_cast<double>(input_bytes_of(p)) *
                     static_cast<double>(m - std::min(s, m)) /
                     static_cast<double>(m)),
                 sim::MemoryKind::kPageable);

  sim::OpId last_cpu = sim::kNoOp, last_gpu = sim::kNoOp;
  sim::OpId h2d_m1 = sim::kNoOp;  // CPU->GPU boundary of the previous row
  sim::OpId d2h_m1 = sim::kNoOp;  // GPU->CPU boundary of the previous row
  sim::OpId gpu_m1 = sim::kNoOp;  // previous row's kernel (two-way dep)
  sim::OpId cpu_m1 = sim::kNoOp;  // previous row's CPU segment (two-way dep)

  const bool cpu_parallel =
      s > 0 && cpu::parallel_beats_serial(platform.spec().cpu, work, s, 1.0,
                                          /*streamed=*/true);

  for (std::size_t i = 0; i < n; ++i) {
    // --- CPU segment: cells (i, 0..s) -----------------------------------
    sim::OpId cpu_op = sim::kNoOp;
    if (s > 0) {
      // In two-way mode the CPU's rightmost cell reads NE from the GPU's
      // previous row (mapped); in one-way GPU->CPU mode it waits for the
      // pipelined boundary copy of the previous row.
      sim::Platform::CpuFrontOpts opts;
      opts.parallel = cpu_parallel;
      opts.streamed = true;
      opts.dep1 = two_way ? gpu_m1 : (gpu_to_cpu ? d2h_m1 : sim::kNoOp);
      cpu_op = platform.cpu_front(
          std::min(s, m), work,
          [&, i](std::size_t lo, std::size_t hi) { run_row_range(i, lo, hi); },
          opts);
      last_cpu = cpu_op;
    }

    // --- boundary CPU->GPU (one-way pipelined variant) -------------------
    sim::OpId h2d_op = sim::kNoOp;
    if (cpu_to_gpu && !two_way)
      h2d_op = graph.record_h2d(h2d_stream, sizeof(V),
                                sim::MemoryKind::kPinned, cpu_op);

    // --- GPU segment: cells (i, s..m) ------------------------------------
    sim::OpId gpu_op = sim::kNoOp;
    if (s < m) {
      const sim::OpId dep =
          two_way ? cpu_m1 : (cpu_to_gpu ? h2d_m1 : sim::kNoOp);
      gpu_op = graph.launch(
          compute_stream, info, m - s,
          [&, i](std::size_t lo, std::size_t hi) {
            run_row_range(i, s + lo, s + hi);
          },
          dep);
      last_gpu = gpu_op;
    }

    // --- boundary GPU->CPU (one-way pipelined variant) -------------------
    sim::OpId d2h_op = sim::kNoOp;
    if (gpu_to_cpu && !two_way)
      d2h_op = graph.record_d2h(d2h_stream, sizeof(V),
                                sim::MemoryKind::kPinned, gpu_op);

    const std::size_t harvested = store.after_front(i);
    if (s < m)
      detail::record_halo(graph, d2h_stream, harvested * sizeof(V), gpu_op);

    h2d_m1 = h2d_op;
    d2h_m1 = d2h_op;
    gpu_m1 = gpu_op;
    cpu_m1 = cpu_op;
  }

  // Submit the fused pipeline before the host-side download needs real ids.
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Final download of the GPU strip.
  {
    const std::size_t bytes = n * (m - s) * sizeof(V);
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kHorizontal;
    stats->transfer = transfer_need(deps);
    stats->fronts = n;
    stats->cells = n * m;
    stats->t_switch = 0;
    stats->t_share = params.t_share;
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
