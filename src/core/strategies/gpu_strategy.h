// Pure simulated-GPU execution: one kernel per wavefront, thread per cell
// (Section IV-A), table stored in the pattern's wavefront-contiguous layout
// so accesses coalesce (Section IV-B).
//
// Cost structure mirrors a real CUDA implementation: one upload of the
// problem inputs, one kernel launch per front (launch overhead dominates
// low-work fronts — the effect the heterogeneous strategies exploit), and
// one download of the finished table.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "sim/launch_graph.h"
#include "sim/memory.h"

namespace lddp {

/// Per-front kernels over the store's layout. The store (a device-resident
/// front-major table or rolling window, core/strategies/frontier_engine.h)
/// must live in `platform`'s device memory; a window store's checkpoint
/// halos come down after each front (record_halo). `amp` prices each
/// front's memory traffic: 1.0 for the wavefront-contiguous layouts, the
/// strided column parts for Inverted-L on the paper's row-major storage.
template <LddpProblem P, typename Store>
auto solve_gpu(const P& p, Store& store, sim::Platform& platform,
               SolveStats* stats, const detail::FrontAmplification& amp = {},
               bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const auto& layout = store.layout();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  sim::Device& gpu = platform.gpu();
  const auto stream = gpu.default_stream();
  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };
  sim::KernelInfo info = detail::kernel_info_for(p, "gpu.front");

  // The whole compute phase — input upload plus every per-front kernel —
  // is one graph submission; nothing on the host consumes GPU data before
  // the final download, so the entire loop can fuse.
  sim::LaunchGraph graph(gpu, fused);

  // Inputs (sequences / cost grid / image) go up once, pageable.
  graph.record_h2d(stream, input_bytes_of(p), sim::MemoryKind::kPageable);

  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    // Ranged body: the front runner computes each chunk's interior over
    // stride-one neighbour spans. The kernel pricing sees only the count
    // and the front's amplification.
    const std::size_t fs = layout.front_size(f);
    info.mem_amplification = amp(f, 0, fs);
    graph.launch(stream, info, fs,
                 [&](std::size_t lo, std::size_t hi) {
                   detail::run_front_range(p, deps, bound, layout, f, lo, hi,
                                           addr, batch);
                 });
    // Kernels execute eagerly at record time (sim semantics), so the
    // finished front can be harvested here.
    detail::record_halo(graph, stream, store.after_front(f) * sizeof(V));
  }
  graph.replay();

  // Assemble the host-side table for the caller; the priced download is
  // what a production consumer would fetch (result_bytes_of).
  auto table = store.finish();
  const sim::OpId done = gpu.record_d2h(stream, result_bytes_of(p),
                                        sim::MemoryKind::kPageable);
  platform.cpu_sync(done);

  if (stats) {
    stats->mode_used = Mode::kGpu;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = p.rows() * p.cols();
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
