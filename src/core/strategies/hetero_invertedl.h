// Heterogeneous execution of the inverted-L pattern (Section III-C,
// Figure 5). Two phases:
//
//   Phase A: each shell is split — the CPU owns the left column-strip
//            j < t_share (the whole column part plus the row cells left of
//            the strip edge), the GPU the rest of the row part. Transfers
//            are one-way CPU->GPU (the single NW dependency crosses the
//            strip only leftward): after its segment of shell k the CPU
//            ships the boundary cell (k, t_share-1), which the GPU's shell
//            k+1 reads; shell t_share's column part reads the whole strip
//            column, shipped in bulk with shell t_share-1's boundary cell.
//   Phase B: the last t_switch shells — the low-work tail — run entirely
//            on the CPU, after a bulk download of the GPU's part of the
//            shell before them.
//
// Pricing is the paper's: its framework stores the inverted-L table
// row-major (Section V-B's reason that horizontal case-1 wins Fig 8), so
// each unit's share of a shell is priced with the strided column part
// (detail::FrontAmplification::strided_shells) whatever store holds it.
//
// Both units write one host-visible store over ShellLayout (core/
// strategies/frontier_engine.h) — the CPU owns a prefix of every shell,
// the GPU the suffix: every transfer above is priced on the timeline, but
// no cell is copied between host and device twins. A window store's
// checkpoint halos come down after each shell with GPU cells
// (record_halo).
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"

namespace lddp {

/// `store` is over a ShellLayout in `platform`'s device memory.
template <LddpProblem P, typename Store>
auto solve_hetero_invertedl(const P& p, Store& store, sim::Platform& platform,
                            const HeteroParams& user, SolveStats* stats,
                            bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const ShellLayout& layout = store.layout();
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const std::size_t num_shells = layout.num_fronts();

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo base_info = detail::kernel_info_for(p, "hetero.il");
  const auto cpu_amp = detail::FrontAmplification::strided_shells(
      n, detail::invl_cpu_column_amplification<V>());
  const auto gpu_amp = detail::FrontAmplification::strided_shells(
      n, detail::invl_gpu_column_amplification<V>(gpu.spec(), m));
  const HeteroParams params = detail::resolve_hetero_params(
      user, Pattern::kInvertedL, n, m, platform.spec(), base_info,
      cpu_amp(0, 0, layout.front_size(0)),
      static_cast<double>(input_bytes_of(p)), /*two_way=*/false, fused);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase_b_begin = num_shells - std::min(ts, num_shells);

  auto addr = [&store](std::size_t i, std::size_t j) {
    return store.addr(i, j);
  };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  // Transfers are one-way CPU→GPU throughout phase A: the whole pipeline
  // fuses.
  sim::LaunchGraph graph(gpu, fused);
  // Only the GPU strip's share of the problem input goes up (the CPU reads
  // its columns from host memory directly).
  graph.record_h2d(compute_stream,
                 static_cast<std::size_t>(
                     static_cast<double>(input_bytes_of(p)) *
                     static_cast<double>(m - std::min(s, m)) /
                     static_cast<double>(m)),
                 sim::MemoryKind::kPageable);

  // CPU-owned prefix of shell k: full column part plus row cells j < s.
  auto cpu_len = [&](std::size_t k) -> std::size_t {
    if (k >= s) return 0;
    return layout.column_part_size(k) + (std::min(s, m) - k);
  };
  // GPU-owned cells of shell k (the suffix after the CPU prefix).
  auto gpu_len = [&](std::size_t k) {
    return layout.front_size(k) - cpu_len(k);
  };

  auto run_cpu = [&](std::size_t k, std::size_t count, sim::OpId dep) {
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;  // persistent framework threads, not fork/join
    opts.mem_amplification = cpu_amp(k, 0, count);
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, count, opts.mem_amplification, true);
    opts.dep1 = dep;
    return platform.cpu_front(
        count, work,
        [&, k](std::size_t lo, std::size_t hi) {
          detail::run_front_range(p, deps, bound, layout, k, lo, hi, addr,
                                  batch);
        },
        opts);
  };

  sim::OpId last_cpu = sim::kNoOp, last_gpu = sim::kNoOp;
  sim::OpId h2d_m1 = sim::kNoOp;

  // ---- Phase A ----------------------------------------------------------
  for (std::size_t k = 0; k < phase_b_begin; ++k) {
    const std::size_t fs = layout.front_size(k);
    const std::size_t c = cpu_len(k);

    sim::OpId cpu_op = sim::kNoOp;
    if (c > 0) {
      cpu_op = run_cpu(k, c, sim::kNoOp);
      last_cpu = cpu_op;
    }

    // One-way boundary transfer: the GPU's next-shell row cell (k+1, s)
    // reads NW = (k, s-1), a CPU row-part cell of this shell. Shell s's
    // column part reads the whole CPU strip column (i, s-1), i in
    // [s, n-1): it rides along with shell s-1's boundary cell.
    sim::OpId h2d_op = sim::kNoOp;
    if (c > 0 && s <= m) {
      std::size_t cells = 1;
      if (k + 1 == s && n > s + 1) cells += n - 1 - s;
      h2d_op = graph.record_h2d(h2d_stream, cells * sizeof(V),
                                sim::MemoryKind::kPinned, cpu_op);
    }

    if (c < fs) {
      sim::KernelInfo info = base_info;
      info.mem_amplification = gpu_amp(k, c, fs);
      last_gpu = graph.launch(
          compute_stream, info, fs - c,
          [&, k, c](std::size_t lo, std::size_t hi) {
            detail::run_front_range(p, deps, bound, layout, k, c + lo, c + hi,
                                    addr, batch);
          },
          h2d_m1);
    }
    const std::size_t harvested = store.after_front(k);
    if (c < fs)
      detail::record_halo(graph, d2h_stream, harvested * sizeof(V), last_gpu);
    h2d_m1 = h2d_op;
  }

  // Phase A is over: submit the fused pipeline before the downloads below
  // need a real GPU op id.
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Phase-B entry: the CPU's first low-work shell reads NW values from the
  // previous shell's GPU part — download it in bulk.
  sim::OpId entry_d2h = sim::kNoOp;
  if (phase_b_begin < num_shells && phase_b_begin > 0)
    entry_d2h = gpu.record_d2h(d2h_stream,
                               gpu_len(phase_b_begin - 1) * sizeof(V),
                               sim::MemoryKind::kPageable, last_gpu);

  // ---- Phase B ----------------------------------------------------------
  for (std::size_t k = phase_b_begin; k < num_shells; ++k) {
    last_cpu = run_cpu(k, layout.front_size(k), entry_d2h);
    entry_d2h = sim::kNoOp;  // only the first phase-B shell waits on it
    store.after_front(k);
  }

  // Final download of all GPU-owned cells (phase-A suffixes).
  {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < phase_b_begin; ++k)
      bytes += gpu_len(k) * sizeof(V);
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }
  auto table = store.finish();

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kInvertedL;
    stats->transfer = transfer_need(deps);
    stats->fronts = num_shells;
    stats->cells = n * m;
    stats->t_switch = params.t_switch;
    stats->t_share = params.t_share;
    stats->peak_table_bytes = store.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
