// Multi-accelerator execution — the generalization the paper's conclusion
// invites: one CPU plus N accelerators, each owning a column strip of
// every wavefront.
//
// Scope: the horizontal pattern (constant parallelism makes the N+1-way
// split well-defined row by row). Unit 0 is the CPU with strip
// [0, b1); device k (1-based) owns [b_k, b_{k+1}). Boundary cells cross
// strips exactly as in the two-unit strategies: NW left-to-right, NE
// right-to-left. Device-to-device boundaries are staged through the host
// (d2h on the producer, h2d on the consumer), as CUDA 5.0-era systems
// without peer access would do.
//
// Every unit writes one host-visible row-major FullStore — it fills the
// result grid in place (core/strategies/frontier_engine.h) — so the
// boundary cells a unit reads from its neighbours' strips are already in
// it: the boundary transfers are priced, never performed.
#pragma once

#include <numeric>
#include <vector>

#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/heuristics.h"

namespace lddp {

/// Column-strip widths for CPU + N devices; must sum to the table width.
struct MultiSplit {
  std::vector<std::size_t> widths;  ///< widths[0] = CPU, then one per device
};

/// Throughput-proportional default split.
template <LddpProblem P>
MultiSplit default_multi_split(const P& p, sim::Platform& platform) {
  const sim::KernelInfo info = detail::kernel_info_for(p, "multi");
  std::vector<double> rate;
  rate.push_back(cpu::cpu_peak_throughput(platform.spec().cpu, info.work));
  for (std::size_t k = 0; k < platform.num_gpus(); ++k)
    rate.push_back(sim::gpu_peak_throughput(platform.gpu(k).spec(), info));
  const double total = std::accumulate(rate.begin(), rate.end(), 0.0);
  MultiSplit split;
  std::size_t assigned = 0;
  for (std::size_t u = 0; u < rate.size(); ++u) {
    std::size_t w =
        u + 1 == rate.size()
            ? p.cols() - assigned
            : static_cast<std::size_t>(rate[u] / total *
                                       static_cast<double>(p.cols()));
    split.widths.push_back(w);
    assigned += w;
  }
  return split;
}

/// Solves a horizontal-pattern problem across CPU + all of the platform's
/// devices. `split` may be empty (throughput-proportional default).
template <LddpProblem P>
FrontierTable<typename P::Value> solve_multi_horizontal(
    const P& p, sim::Platform& platform, MultiSplit split,
    SolveStats* stats) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  LDDP_CHECK_MSG(classify(deps) == Pattern::kHorizontal,
                 "solve_multi_horizontal needs a horizontal-pattern problem "
                 "(got " << to_string(classify(deps)) << ")");
  const V bound = p.boundary();
  const cpu::WorkProfile work = work_profile_of(p);
  const RowMajorLayout layout(n, m);
  const std::size_t num_dev = platform.num_gpus();

  if (split.widths.empty()) split = default_multi_split(p, platform);
  LDDP_CHECK_MSG(split.widths.size() == num_dev + 1,
                 "split needs one width per unit (CPU + " << num_dev
                                                          << " devices)");
  LDDP_CHECK_MSG(std::accumulate(split.widths.begin(), split.widths.end(),
                                 std::size_t{0}) == m,
                 "split widths must sum to the table width");
  for (std::size_t k = 1; k < split.widths.size(); ++k)
    LDDP_CHECK_MSG(split.widths[k] > 0,
                   "device strips must be non-empty (drop the device "
                   "instead); device " << k - 1 << " got width 0");

  // Strip boundaries: unit u owns columns [begin[u], begin[u+1]).
  std::vector<std::size_t> begin(num_dev + 2, 0);
  for (std::size_t u = 0; u < split.widths.size(); ++u)
    begin[u + 1] = begin[u] + split.widths[u];

  const bool need_lr = deps.has_nw();  // crosses left -> right
  const bool need_rl = deps.has_ne();  // crosses right -> left

  FullStore<V, RowMajorLayout> store(layout);
  auto read = [&store](std::size_t i, std::size_t j) {
    return *store.addr(i, j);
  };
  // One stream per boundary direction so per-row copies never queue behind
  // each other (a single copy stream would serialize the two directions
  // and put the accumulated lag on the critical path).
  std::vector<sim::Device::StreamId> in_left(num_dev), in_right(num_dev),
      out_left(num_dev), out_right(num_dev), result_stream(num_dev);
  const sim::KernelInfo info = detail::kernel_info_for(p, "multi.h");
  for (std::size_t k = 0; k < num_dev; ++k) {
    in_left[k] = platform.gpu(k).create_stream();
    in_right[k] = platform.gpu(k).create_stream();
    out_left[k] = platform.gpu(k).create_stream();
    out_right[k] = platform.gpu(k).create_stream();
    result_stream[k] = platform.gpu(k).create_stream();
    // Each device uploads its strip's share of the input.
    platform.gpu(k).record_h2d(
        platform.gpu(k).default_stream(),
        static_cast<std::size_t>(static_cast<double>(input_bytes_of(p)) *
                                 static_cast<double>(split.widths[k + 1]) /
                                 static_cast<double>(m)),
        sim::MemoryKind::kPageable);
  }

  // The boundary-transfer ops that unit u's next row must wait for.
  std::vector<sim::OpId> left_ready(num_dev + 1, sim::kNoOp);
  std::vector<sim::OpId> right_ready(num_dev + 1, sim::kNoOp);

  sim::OpId last_cpu = sim::kNoOp;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<sim::OpId> new_op(num_dev + 1, sim::kNoOp);

    // --- CPU strip -------------------------------------------------------
    if (split.widths[0] > 0) {
      sim::Platform::CpuFrontOpts opts;
      opts.streamed = true;
      opts.parallel = cpu::parallel_beats_serial(
          platform.spec().cpu, work, split.widths[0], 1.0, true);
      opts.dep1 = right_ready[0];
      new_op[0] = platform.cpu_front(
          split.widths[0], work,
          [&, i](std::size_t j) {
            *store.addr(i, j) =
                detail::compute_cell(p, deps, bound, i, j, m, read);
          },
          opts);
      last_cpu = new_op[0];
    }

    // --- device strips ---------------------------------------------------
    for (std::size_t k = 0; k < num_dev; ++k) {
      const std::size_t lo = begin[k + 1], hi = begin[k + 2];
      if (lo >= hi) continue;
      sim::Device& dev = platform.gpu(k);
      dev.stream_wait(dev.default_stream(), right_ready[k + 1]);
      new_op[k + 1] = dev.launch(
          dev.default_stream(), info, hi - lo,
          [&, i, lo](std::size_t c) {
            *store.addr(i, lo + c) =
                detail::compute_cell(p, deps, bound, i, lo + c, m, read);
          },
          left_ready[k + 1]);
    }

    // --- boundary traffic for the next row -------------------------------
    std::fill(left_ready.begin(), left_ready.end(), sim::kNoOp);
    std::fill(right_ready.begin(), right_ready.end(), sim::kNoOp);
    for (std::size_t u = 0; u + 1 <= num_dev; ++u) {
      // Boundary between unit u (left) and unit u+1 (right) at column
      // begin[u+1]-1 / begin[u+1].
      const std::size_t bcol = begin[u + 1];
      if (bcol == 0 || bcol >= m) continue;
      if (need_lr && new_op[u] != sim::kNoOp) {
        // Left unit's rightmost cell -> right unit (read as NW).
        sim::OpId op = new_op[u];
        if (u > 0) {  // stage device -> host -> device
          op = platform.gpu(u - 1).record_d2h(out_right[u - 1], sizeof(V),
                                              sim::MemoryKind::kPinned, op);
        }
        left_ready[u + 1] = platform.gpu(u).record_h2d(
            in_left[u], sizeof(V), sim::MemoryKind::kPinned, op);
      }
      if (need_rl && new_op[u + 1] != sim::kNoOp) {
        // Right unit's leftmost cell -> left unit (read as NE).
        sim::OpId op = platform.gpu(u).record_d2h(
            out_left[u], sizeof(V), sim::MemoryKind::kPinned,
            new_op[u + 1]);
        if (u > 0)
          op = platform.gpu(u - 1).record_h2d(in_right[u - 1], sizeof(V),
                                              sim::MemoryKind::kPinned, op);
        right_ready[u] = op;
      }
    }
  }

  // Final downloads: each device returns its strip.
  sim::OpId fin = last_cpu;
  for (std::size_t k = 0; k < num_dev; ++k) {
    const std::size_t lo = begin[k + 1], hi = begin[k + 2];
    if (lo >= hi) continue;
    const std::size_t bytes =
        std::min(n * (hi - lo) * sizeof(V), result_bytes_of(p));
    fin = platform.cpu_sync(
        platform.gpu(k).record_d2h(result_stream[k], bytes,
                                   sim::MemoryKind::kPageable,
                                   platform.gpu(k).last_op(
                                       platform.gpu(k).default_stream())),
        fin);
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = classify(deps);
    stats->transfer = transfer_need(deps);
    stats->fronts = n;
    stats->cells = n * m;
    stats->t_share = static_cast<long long>(split.widths[0]);
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
    stats->gpu_busy_seconds = 0;
    stats->copy_busy_seconds = 0;
    for (std::size_t k = 0; k < num_dev; ++k) {
      stats->gpu_busy_seconds += platform.gpu(k).compute_busy();
      stats->copy_busy_seconds += platform.gpu(k).copy_busy();
    }
  }
  return table;
}

}  // namespace lddp
