// Heterogeneous execution of the knight-move pattern (Section III-D,
// Figure 6) — the scheme of Deshpande et al. for error-diffusion dithering.
//
// Three phases like the anti-diagonal, but the fronts are the 2i+j lines
// and the split is a column strip (CPU owns j < t_share). Both boundary
// columns cross the strip every front:
//   * the GPU's first column j = t_share reads W (front t-1) and NW
//     (front t-3) from the CPU's column t_share-1;
//   * the CPU's last column j = t_share-1 reads NE (front t-1) from the
//     GPU's column t_share.
// Two-way traffic every iteration -> zero-copy mapped pinned boundary
// cells (Section IV-C2): no copy-engine operations, direct cross-unit
// dependencies, and a small mapped-access surcharge on both units.
//
// As in the anti-diagonal strategy, both units write one host-visible
// store (the CPU's column strip is a prefix of every front, the GPU's part
// the suffix): transfers are priced but no cell is mirrored between host
// and device twins, and a window store's checkpoint halos come down after
// each phase-2 front.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"

namespace lddp {

/// `store` is over a KnightMoveLayout in `platform`'s device memory.
template <LddpProblem P, typename Store>
auto solve_hetero_knightmove(const P& p, Store& store,
                             sim::Platform& platform,
                             const HeteroParams& user, SolveStats* stats,
                             bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const KnightMoveLayout& layout = store.layout();
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const std::size_t num_fronts = layout.num_fronts();

  sim::Device& gpu = platform.gpu();
  sim::KernelInfo info = detail::kernel_info_for(p, "hetero.km");
  const HeteroParams params = detail::resolve_hetero_params(
      user, Pattern::kKnightMove, n, m, platform.spec(), info,
      detail::kDiagonalCpuAmplification,
      static_cast<double>(input_bytes_of(p)), /*two_way=*/true,
      // The graph only engages when the strip is unsplit (two-way mapped
      // traffic forces eager submission), and whether the default split is
      // trivial is not known until the params are resolved — price the
      // defaults for the common, eager case.
      /*fused=*/false);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase2_begin = ts;
  const std::size_t phase2_end = num_fronts - ts;
  const bool split = s > 0 && s < m;
  // Zero-copy mapped pinned boundary: only the GPU pays the PCIe reach;
  // the CPU touches the same pinned pages at ordinary memory cost.
  const double cpu_extra_seconds = 0.0;
  if (split) info.extra_us = platform.spec().gpu.mapped_access_overhead_us;

  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  // A split strip means two-way mapped traffic every front (the CPU reads
  // the GPU's previous front mid-phase) — a graph cannot span those host
  // syncs, so fusing only applies to the unsplit (single-unit) case.
  sim::LaunchGraph graph(gpu, fused && !split);
  // Only the GPU strip's share of the problem input goes up (the CPU reads
  // its columns from host memory directly).
  graph.record_h2d(compute_stream,
                 static_cast<std::size_t>(
                     static_cast<double>(input_bytes_of(p)) *
                     static_cast<double>(m - std::min(s, m)) /
                     static_cast<double>(m)),
                 sim::MemoryKind::kPageable);

  // CPU-owned prefix of front t: cells with j < s. The enumeration is by
  // j ascending (i descending from i_max), so these are positions
  // [0, i_max - i_lo + 1) where i_lo is the first row with j < s.
  auto cpu_len = [&](std::size_t t) -> std::size_t {
    if (s == 0) return 0;
    const std::size_t i_min = layout.i_min(t), i_max = layout.i_max(t);
    if (t < s) return layout.front_size(t);  // whole front left of strip
    // j = t - 2i < s  <=>  i > (t - s) / 2  <=>  i >= floor((t-s)/2) + 1.
    const std::size_t i_lo = std::max(i_min, (t - s) / 2 + 1);
    return i_lo > i_max ? 0 : i_max - i_lo + 1;
  };

  auto run_cpu = [&](std::size_t t, std::size_t count, sim::OpId dep,
                     double extra) {
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;
    opts.mem_amplification = detail::kDiagonalCpuAmplification;
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, count, opts.mem_amplification, true);
    opts.extra_seconds = extra;
    opts.dep1 = dep;
    return platform.cpu_front(
        count, work,
        [&, t](std::size_t lo, std::size_t hi) {
          detail::run_front_range(p, deps, bound, layout, t, lo, hi, addr,
                                  batch);
        },
        opts);
  };

  // GPU-owned cells of front t (the suffix after the CPU prefix).
  auto gpu_len = [&](std::size_t t) {
    return layout.front_size(t) - std::min(cpu_len(t), layout.front_size(t));
  };

  sim::OpId last_cpu = sim::kNoOp, last_gpu = sim::kNoOp;

  // ---- Phase 1 ----------------------------------------------------------
  for (std::size_t t = 0; t < phase2_begin; ++t) {
    last_cpu = run_cpu(t, layout.front_size(t), sim::kNoOp, 0.0);
    store.after_front(t);
  }

  // Phase-2 entry: the GPU reads columns >= s-1 of the three preceding
  // fronts (W and NE from t-1, N from t-2, NW from t-3), all CPU-computed.
  sim::OpId entry_h2d = sim::kNoOp;
  if (phase2_begin < phase2_end && phase2_begin > 0) {
    const std::size_t lo_col = s == 0 ? 0 : s - 1;
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 3 && back <= phase2_begin; ++back) {
      const std::size_t t = phase2_begin - back;
      for (std::size_t c = 0; c < layout.front_size(t); ++c)
        if (layout.cell(t, c).j >= lo_col) bytes += sizeof(V);
    }
    entry_h2d = graph.record_h2d(h2d_stream, bytes,
                                 sim::MemoryKind::kPageable, last_cpu);
  }

  // ---- Phase 2 ----------------------------------------------------------
  // The GPU front t depends on the CPU fronts t-1 and t-3 (mapped reads of
  // column s-1) — the CPU resource is FIFO, so depending on the newest CPU
  // op from fronts < t covers both. The CPU front t depends on the GPU
  // front t-1 (mapped read of column s). The mapped boundary cells live in
  // the shared table, so each unit reads the other's directly.
  sim::OpId gpu_m1 = sim::kNoOp;
  for (std::size_t t = phase2_begin; t < phase2_end; ++t) {
    const std::size_t fs = layout.front_size(t);
    const std::size_t c = std::min(cpu_len(t), fs);
    const sim::OpId cpu_prev = last_cpu;  // newest CPU op from fronts < t

    sim::OpId cpu_op = sim::kNoOp;
    if (c > 0) {
      cpu_op = run_cpu(t, c, gpu_m1, cpu_extra_seconds);
      last_cpu = cpu_op;
    }

    if (c < fs) {
      graph.stream_wait(compute_stream, entry_h2d);
      last_gpu = graph.launch(
          compute_stream, info, fs - c,
          [&, t, c](std::size_t lo, std::size_t hi) {
            detail::run_front_range(p, deps, bound, layout, t, c + lo, c + hi,
                                    addr, batch);
          },
          cpu_prev);
      entry_h2d = sim::kNoOp;  // only the first kernel waits on the bulk
    }
    const std::size_t harvested = store.after_front(t);
    if (c < fs)
      detail::record_halo(graph, d2h_stream, harvested * sizeof(V), last_gpu);

    gpu_m1 = last_gpu;
  }

  // Phase 2 is over: submit the fused pipeline before the downloads below
  // need a real GPU op id.
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Phase-3 entry: the CPU reads columns >= s of the three preceding
  // fronts' GPU parts.
  sim::OpId entry_d2h = sim::kNoOp;
  if (phase2_end < num_fronts && phase2_end >= 1) {
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 3 && back <= phase2_end; ++back) {
      const std::size_t t = phase2_end - back;
      if (t < phase2_begin) break;
      bytes += gpu_len(t) * sizeof(V);
    }
    entry_d2h = gpu.record_d2h(d2h_stream, bytes, sim::MemoryKind::kPageable,
                               last_gpu);
  }

  // ---- Phase 3 ----------------------------------------------------------
  for (std::size_t t = phase2_end; t < num_fronts; ++t) {
    last_cpu = run_cpu(t, layout.front_size(t), entry_d2h, 0.0);
    entry_d2h = sim::kNoOp;
    store.after_front(t);
  }

  // Final download of the GPU-owned region.
  {
    std::size_t bytes = 0;
    for (std::size_t t = phase2_begin; t < phase2_end; ++t)
      bytes += gpu_len(t) * sizeof(V);
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kKnightMove;
    stats->transfer = transfer_need(deps);
    stats->fronts = num_fronts;
    stats->cells = n * m;
    stats->t_switch = params.t_switch;
    stats->t_share = params.t_share;
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
