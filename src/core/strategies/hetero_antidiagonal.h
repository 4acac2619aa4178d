// Heterogeneous execution of the anti-diagonal pattern (Section III-A,
// Figure 3). Three phases:
//
//   Phase 1: the first t_switch fronts (low work) run entirely on the CPU.
//   Phase 2: each front is split — the CPU owns the top row-strip i <
//            t_share, the GPU the rest. One-way pipelined transfers: after
//            the CPU finishes its segment of front d it ships its boundary
//            cell (t_share-1, d-t_share+1) to the GPU on a copy stream;
//            the GPU's kernel for front d waits on the boundary cells of
//            fronts d-1 and d-2 ("GPU needs boundary cells from the last
//            two anti-diagonals") while the CPU streams ahead unblocked.
//   Phase 3: the last t_switch fronts run entirely on the CPU again, after
//            a bulk download of the GPU's part of the two preceding fronts.
//
// Both units write one host-visible store (core/strategies/
// frontier_engine.h) — the CPU owns a prefix of every front, the GPU the
// suffix: every transfer above is priced on the timeline, but no cell is
// copied between host and device twins. A window store's checkpoint
// halos come down after each phase-2 front (record_halo).
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"

namespace lddp {

/// `store` is over an AntiDiagonalLayout in `platform`'s device memory.
template <LddpProblem P, typename Store>
auto solve_hetero_antidiagonal(const P& p, Store& store,
                               sim::Platform& platform,
                               const HeteroParams& user, SolveStats* stats,
                               bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const AntiDiagonalLayout& layout = store.layout();
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const std::size_t num_fronts = layout.num_fronts();

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo info = detail::kernel_info_for(p, "hetero.ad");
  const HeteroParams params = detail::resolve_hetero_params(
      user, Pattern::kAntiDiagonal, n, m, platform.spec(), info,
      detail::kDiagonalCpuAmplification,
      static_cast<double>(input_bytes_of(p)), /*two_way=*/false, fused);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase2_begin = ts;
  const std::size_t phase2_end = num_fronts - ts;

  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  // Transfers are strictly CPU→GPU until phase 3, so the entire phase-2
  // pipeline (uploads + kernels) fuses into one graph submission.
  sim::LaunchGraph graph(gpu, fused);
  // Only the GPU strip's share of the problem input goes up (the CPU reads
  // its rows from host memory directly).
  graph.record_h2d(compute_stream,
                 static_cast<std::size_t>(
                     static_cast<double>(input_bytes_of(p)) *
                     static_cast<double>(n - std::min(s, n)) /
                     static_cast<double>(n)),
                 sim::MemoryKind::kPageable);

  // Number of CPU-owned cells (rows i < s) at the head of front d.
  auto cpu_len = [&](std::size_t d) -> std::size_t {
    const std::size_t lo = layout.i_min(d);
    if (lo >= s) return 0;
    return std::min(s - lo, layout.front_size(d));
  };

  // GPU-owned cells of front d (the suffix after the CPU prefix).
  auto gpu_len = [&](std::size_t d) {
    return layout.front_size(d) - cpu_len(d);
  };

  auto run_cpu = [&](std::size_t d, std::size_t count, sim::OpId dep) {
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;  // persistent framework threads, not fork/join
    opts.mem_amplification = detail::kDiagonalCpuAmplification;
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, count, opts.mem_amplification, true);
    opts.dep1 = dep;
    return platform.cpu_front(
        count, work,
        [&, d](std::size_t lo, std::size_t hi) {
          detail::run_front_range(p, deps, bound, layout, d, lo, hi, addr,
                                  batch);
        },
        opts);
  };

  sim::OpId last_cpu = sim::kNoOp;
  sim::OpId last_gpu = sim::kNoOp;

  // ---- Phase 1 ----------------------------------------------------------
  for (std::size_t d = 0; d < phase2_begin; ++d) {
    last_cpu = run_cpu(d, layout.front_size(d), sim::kNoOp);
    store.after_front(d);
  }

  // Phase-2 entry: the GPU will read rows >= s-1 of the two fronts before
  // phase2_begin, which the CPU computed in phase 1. Ship them in bulk.
  sim::OpId h2d_m1 = sim::kNoOp;  // boundary transfer of front d-1
  sim::OpId h2d_m2 = sim::kNoOp;  // boundary transfer of front d-2
  if (phase2_begin < phase2_end && phase2_begin > 0) {
    const std::size_t lo_row = s == 0 ? 0 : s - 1;
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 2 && back <= phase2_begin; ++back) {
      const std::size_t d = phase2_begin - back;
      const std::size_t lo = std::max(layout.i_min(d), lo_row);
      if (lo <= layout.i_max(d))
        bytes += (layout.i_max(d) - lo + 1) * sizeof(V);
    }
    h2d_m1 = h2d_m2 = graph.record_h2d(h2d_stream, bytes,
                                       sim::MemoryKind::kPageable, last_cpu);
  }

  // ---- Phase 2 ----------------------------------------------------------
  for (std::size_t d = phase2_begin; d < phase2_end; ++d) {
    const std::size_t fs = layout.front_size(d);
    const std::size_t c = cpu_len(d);

    sim::OpId cpu_op = sim::kNoOp;
    if (c > 0) {
      // CPU reads only rows < s of fronts d-1/d-2 — all CPU-produced, so
      // the CPU resource's FIFO order already covers the dependency.
      cpu_op = run_cpu(d, c, sim::kNoOp);
      last_cpu = cpu_op;
    }

    // Pipelined one-way boundary transfer: the CPU's deepest row cell of
    // this front, needed by GPU fronts d+1 (as N) and d+2 (as NW).
    sim::OpId h2d_op = sim::kNoOp;
    if (c > 0 && s > 0 && s - 1 >= layout.i_min(d) &&
        s - 1 <= layout.i_max(d))
      h2d_op = graph.record_h2d(h2d_stream, sizeof(V),
                                sim::MemoryKind::kPinned, cpu_op);

    if (c < fs) {
      // The kernel additionally waits for the boundary cells of the last
      // two fronts (the W/N/NW reads that cross the strip).
      graph.stream_wait(compute_stream, h2d_m2);
      last_gpu = graph.launch(
          compute_stream, info, fs - c,
          [&, d, c](std::size_t lo, std::size_t hi) {
            detail::run_front_range(p, deps, bound, layout, d, c + lo, c + hi,
                                    addr, batch);
          },
          h2d_m1);
    }
    const std::size_t harvested = store.after_front(d);
    if (c < fs)
      detail::record_halo(graph, d2h_stream, harvested * sizeof(V), last_gpu);
    h2d_m2 = h2d_m1;
    h2d_m1 = h2d_op;
  }

  // Phase 2 is over: submit the fused pipeline before anything on the host
  // side needs a GPU op id (the downloads below depend on last_gpu).
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Phase-3 entry: the CPU reads everything in the two fronts preceding
  // phase2_end; download the GPU-owned parts in bulk.
  sim::OpId entry_d2h = sim::kNoOp;
  if (phase2_end < num_fronts && phase2_end >= 1) {
    std::size_t bytes = 0;
    for (std::size_t back = 1; back <= 2 && back <= phase2_end; ++back) {
      const std::size_t d = phase2_end - back;
      if (d < phase2_begin) break;  // phase-1 front: already on the host
      bytes += gpu_len(d) * sizeof(V);
    }
    entry_d2h = gpu.record_d2h(d2h_stream, bytes, sim::MemoryKind::kPageable,
                               last_gpu);
  }

  // ---- Phase 3 ----------------------------------------------------------
  for (std::size_t d = phase2_end; d < num_fronts; ++d) {
    last_cpu = run_cpu(d, layout.front_size(d), entry_d2h);
    entry_d2h = sim::kNoOp;  // only the first phase-3 front waits on it
    store.after_front(d);
  }

  // Final download of the GPU-owned region (phase-2 suffixes).
  {
    std::size_t bytes = 0;
    for (std::size_t d = phase2_begin; d < phase2_end; ++d)
      bytes += gpu_len(d) * sizeof(V);
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kAntiDiagonal;
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
