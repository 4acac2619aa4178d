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
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"

namespace lddp {

template <LddpProblem P>
Grid<typename P::Value> solve_hetero_horizontal(const P& p,
                                                sim::Platform& platform,
                                                const HeteroParams& user,
                                                SolveStats* stats,
                                                bool fused = true,
                                                bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const RowMajorLayout layout(n, m);
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
  const double cpu_extra_seconds = 0.0;
  if (two_way) {
    // Zero-copy mapped pinned boundary: the GPU's kernels reach across
    // PCIe for the mapped cells (latency amortized by warp switching);
    // the CPU touches the same pinned pages at ordinary memory cost.
    info.extra_us = platform.spec().gpu.mapped_access_overhead_us;
  }

  Grid<V> table(n, m);
  sim::DeviceBuffer<V> dtable = gpu.template alloc<V>(layout.size());
  detail::GridReader<V> hread{&table};
  detail::DeviceReader<V, RowMajorLayout> dread{dtable.device_ptr(), &layout};

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
      const sim::OpId dep = two_way ? gpu_m1 : (gpu_to_cpu ? d2h_m1 : sim::kNoOp);
      if (gpu_to_cpu && i > 0) {
        // Real data movement for the NE read: GPU boundary cell (i-1, s).
        table.at(i - 1, s) = dtable.device_ptr()[layout.flat(i - 1, s)];
      }
      sim::Platform::CpuFrontOpts opts;
      opts.parallel = cpu_parallel;
      opts.streamed = true;
      opts.extra_seconds = cpu_extra_seconds;
      opts.dep1 = dep;
      if (use_batch) {
        cpu_op = platform.cpu_front(
            std::min(s, m), work,
            [&, i](std::size_t lo, std::size_t hi) {
              detail::run_front_range(
                  p, deps, bound, layout, i, lo, hi,
                  [&table](std::size_t ii, std::size_t jj) {
                    return &table.at(ii, jj);
                  },
                  /*batch=*/true);
            },
            opts);
      } else {
        cpu_op = platform.cpu_front(
            std::min(s, m), work,
            [&, i](std::size_t j) {
              table.at(i, j) =
                  detail::compute_cell(p, deps, bound, i, j, m, hread);
            },
            opts);
      }
      last_cpu = cpu_op;
    }

    // --- boundary CPU->GPU ----------------------------------------------
    sim::OpId h2d_op = sim::kNoOp;
    if (cpu_to_gpu) {
      dtable.device_ptr()[layout.flat(i, s - 1)] = table.at(i, s - 1);
      if (!two_way) {
        h2d_op = graph.record_h2d(h2d_stream, sizeof(V),
                                  sim::MemoryKind::kPinned, cpu_op);
      }
    }

    // --- GPU segment: cells (i, s..m) ------------------------------------
    sim::OpId gpu_op = sim::kNoOp;
    if (s < m) {
      const sim::OpId dep = two_way ? cpu_m1 : (cpu_to_gpu ? h2d_m1 : sim::kNoOp);
      const std::size_t base = layout.front_offset(i) + s;
      V* out = dtable.device_ptr();
      if (use_batch) {
        gpu_op = graph.launch(
            compute_stream, info, m - s,
            [&, i, out](std::size_t lo, std::size_t hi) {
              detail::run_front_range(
                  p, deps, bound, layout, i, s + lo, s + hi,
                  [out, &layout](std::size_t ii, std::size_t jj) {
                    return out + layout.flat(ii, jj);
                  },
                  /*batch=*/true);
            },
            dep);
      } else {
        gpu_op = graph.launch(
            compute_stream, info, m - s,
            [&, i, base, out](std::size_t k) {
              out[base + k] =
                  detail::compute_cell(p, deps, bound, i, s + k, m, dread);
            },
            dep);
      }
      last_gpu = gpu_op;
    }

    // --- boundary GPU->CPU (one-way pipelined variant) -------------------
    sim::OpId d2h_op = sim::kNoOp;
    if (gpu_to_cpu && !two_way) {
      // The actual copy happens lazily at the top of the next iteration;
      // here we schedule its simulated cost behind the kernel.
      d2h_op = graph.record_d2h(d2h_stream, sizeof(V),
                                sim::MemoryKind::kPinned, gpu_op);
    }

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
    detail::unpack_table(dtable.device_ptr(), layout, table, s, m);
    const std::size_t bytes = n * (m - s) * sizeof(V);
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kHorizontal;
    stats->transfer = transfer_need(deps);
    stats->fronts = n;
    stats->cells = n * m;
    stats->t_switch = 0;
    stats->t_share = params.t_share;
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
