// Inverted-L pattern executions (Section III-C, Figure 5).
//
// The paper's framework stores the inverted-L table in row-major order (it
// is Section V-B's observation that no coalescing-friendly layout is used
// for this pattern that makes horizontal case-1 the better alternative).
// We reproduce that: shells are *enumerated* via ShellLayout, but the
// device table is stored row-major, so each shell's column part is strided
// — amplified memory traffic on the GPU (one 128 B transaction per lane)
// and one cache line per element on the CPU. The shell-major storage that
// removes the GPU penalty is available through the generic solve_gpu and
// is measured by the coalescing ablation bench.
//
// Heterogeneous scheme (two phases): the CPU owns the left column-strip
// j < t_share; transfers are one-way CPU->GPU (the single NW dependency
// crosses the strip only leftward). The last t_switch shells — the
// low-work tail — run entirely on the CPU.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/heuristics.h"
#include "sim/coalescing.h"
#include "sim/launch_graph.h"

namespace lddp {

namespace detail {

/// Memory amplification of a strided column walk on the GPU (one warp
/// transaction per lane instead of one per warp).
template <typename V>
double invl_gpu_column_amplification(const sim::GpuSpec& gpu,
                                     std::size_t cols) {
  return sim::coalescing_amplification(sizeof(V), cols, gpu.warp_size,
                                       static_cast<std::size_t>(
                                           gpu.transaction_bytes));
}

/// Memory amplification of a strided column walk on the CPU (one 64 B
/// cache line per element).
template <typename V>
double invl_cpu_column_amplification() {
  return std::max(1.0, 64.0 / static_cast<double>(sizeof(V)));
}

/// Weighted amplification for a segment of `col_cells` strided and
/// `row_cells` contiguous accesses.
inline double mixed_amplification(std::size_t col_cells,
                                  std::size_t row_cells, double col_amp) {
  const std::size_t total = col_cells + row_cells;
  if (total == 0) return 1.0;
  return (static_cast<double>(col_cells) * col_amp +
          static_cast<double>(row_cells)) /
         static_cast<double>(total);
}

}  // namespace detail

/// Pure multicore execution of the inverted-L pattern with the per-shell
/// cache-amplification the row-major walk incurs (used by Fig 8).
template <LddpProblem P>
Grid<typename P::Value> solve_cpu_invertedl(const P& p,
                                            sim::Platform& platform,
                                            SolveStats* stats,
                                            bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const ShellLayout layout(n, m);
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const double col_amp = detail::invl_cpu_column_amplification<V>();

  Grid<V> table(n, m);
  detail::GridReader<V> read{&table};
  auto haddr = [&table](std::size_t i, std::size_t j) {
    return &table.at(i, j);
  };
  for (std::size_t k = 0; k < layout.num_fronts(); ++k) {
    const std::size_t fs = layout.front_size(k);
    const std::size_t col_n = layout.column_part_size(k);
    sim::Platform::CpuFrontOpts opts;
    opts.mem_amplification =
        detail::mixed_amplification(col_n, fs - col_n, col_amp);
    opts.parallel = cpu::parallel_beats_serial(platform.spec().cpu, work, fs,
                                               opts.mem_amplification);
    if (use_batch) {
      platform.cpu_front(
          fs, work,
          [&, k](std::size_t lo, std::size_t hi) {
            detail::run_front_range(p, deps, bound, layout, k, lo, hi, haddr,
                                    /*batch=*/true);
          },
          opts);
    } else {
      platform.cpu_front(
          fs, work,
          [&, k](std::size_t c) {
            const CellIndex cell = layout.cell(k, c);
            table.at(cell.i, cell.j) =
                detail::compute_cell(p, deps, bound, cell.i, cell.j, m, read);
          },
          opts);
    }
  }
  if (stats) {
    stats->mode_used = Mode::kCpuParallel;
    stats->pattern = Pattern::kInvertedL;
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = n * m;
    stats->peak_table_bytes = n * m * sizeof(V);
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

/// Pure GPU execution of the inverted-L pattern on row-major storage (the
/// paper's framework behaviour): the shell's column part is uncoalesced.
template <LddpProblem P>
Grid<typename P::Value> solve_gpu_invertedl(const P& p,
                                            sim::Platform& platform,
                                            SolveStats* stats,
                                            bool fused = true,
                                            bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const ShellLayout layout(n, m);
  const RowMajorLayout storage(n, m);
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  sim::Device& gpu = platform.gpu();
  const double col_amp =
      detail::invl_gpu_column_amplification<V>(gpu.spec(), m);

  sim::DeviceBuffer<V> dtable = gpu.template alloc<V>(storage.size());
  detail::DeviceReader<V, RowMajorLayout> dread{dtable.device_ptr(),
                                                &storage};
  const auto stream = gpu.default_stream();
  // Upload + all shell kernels form one host-independent chain: fuse them.
  sim::LaunchGraph graph(gpu, fused);
  graph.record_h2d(stream, input_bytes_of(p), sim::MemoryKind::kPageable);

  for (std::size_t k = 0; k < layout.num_fronts(); ++k) {
    const std::size_t fs = layout.front_size(k);
    const std::size_t col_n = layout.column_part_size(k);
    sim::KernelInfo info = detail::kernel_info_for(p, "gpu.invl");
    info.mem_amplification =
        detail::mixed_amplification(col_n, fs - col_n, col_amp);
    V* out = dtable.device_ptr();
    if (use_batch) {
      graph.launch(stream, info, fs,
                   [&, k, out](std::size_t lo, std::size_t hi) {
                     detail::run_front_range(
                         p, deps, bound, layout, k, lo, hi,
                         [out, &storage](std::size_t i, std::size_t j) {
                           return out + storage.flat(i, j);
                         },
                         /*batch=*/true);
                   });
    } else {
      graph.launch(stream, info, fs, [&, k, out](std::size_t c) {
        const CellIndex cell = layout.cell(k, c);
        out[storage.flat(cell.i, cell.j)] =
            detail::compute_cell(p, deps, bound, cell.i, cell.j, m, dread);
      });
    }
  }
  graph.replay();

  Grid<V> table(n, m);
  detail::unpack_table(dtable.device_ptr(), storage, table, 0, m);
  const sim::OpId done = gpu.record_d2h(stream, result_bytes_of(p),
                                        sim::MemoryKind::kPageable);
  platform.cpu_sync(done);

  if (stats) {
    stats->mode_used = Mode::kGpu;
    stats->pattern = Pattern::kInvertedL;
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = n * m;
    stats->peak_table_bytes = n * m * sizeof(V) * 2;  // device table + grid
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

/// Heterogeneous inverted-L (two phases, one-way transfers).
template <LddpProblem P>
Grid<typename P::Value> solve_hetero_invertedl(const P& p,
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
  const ShellLayout layout(n, m);
  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  const cpu::WorkProfile work = detail::cpu_work_for(p, use_batch);
  const RowMajorLayout storage(n, m);
  const std::size_t num_shells = layout.num_fronts();

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo base_info = detail::kernel_info_for(p, "hetero.il");
  const HeteroParams params = detail::resolve_hetero_params(
      user, Pattern::kInvertedL, n, m, platform.spec(), base_info,
      detail::mixed_amplification(
          n - 1, m, detail::invl_cpu_column_amplification<V>()),
      static_cast<double>(input_bytes_of(p)), /*two_way=*/false, fused);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase_b_begin = num_shells - std::min(ts, num_shells);

  const double gpu_col_amp =
      detail::invl_gpu_column_amplification<V>(gpu.spec(), m);
  const double cpu_col_amp = detail::invl_cpu_column_amplification<V>();

  Grid<V> table(n, m);
  sim::DeviceBuffer<V> dtable = gpu.template alloc<V>(storage.size());
  detail::GridReader<V> hread{&table};
  detail::DeviceReader<V, RowMajorLayout> dread{dtable.device_ptr(),
                                                &storage};

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

  sim::OpId last_cpu = sim::kNoOp, last_gpu = sim::kNoOp;
  sim::OpId h2d_m1 = sim::kNoOp;

  for (std::size_t k = 0; k < phase_b_begin; ++k) {
    const std::size_t fs = layout.front_size(k);
    const std::size_t col_n = layout.column_part_size(k);
    const std::size_t c = std::min(cpu_len(k), fs);

    sim::OpId cpu_op = sim::kNoOp;
    if (c > 0) {
      const std::size_t cpu_rows = c - col_n;  // row-part cells j in [k, s)
      sim::Platform::CpuFrontOpts opts;
      opts.streamed = true;
      opts.mem_amplification =
          detail::mixed_amplification(col_n, cpu_rows, cpu_col_amp);
      opts.parallel = cpu::parallel_beats_serial(
          platform.spec().cpu, work, c, opts.mem_amplification, true);
      if (use_batch) {
        cpu_op = platform.cpu_front(
            c, work,
            [&, k](std::size_t lo, std::size_t hi) {
              detail::run_front_range(
                  p, deps, bound, layout, k, lo, hi,
                  [&table](std::size_t i, std::size_t j) {
                    return &table.at(i, j);
                  },
                  /*batch=*/true);
            },
            opts);
      } else {
        cpu_op = platform.cpu_front(
            c, work,
            [&, k](std::size_t q) {
              const CellIndex cell = layout.cell(k, q);
              table.at(cell.i, cell.j) = detail::compute_cell(
                  p, deps, bound, cell.i, cell.j, m, hread);
            },
            opts);
      }
      last_cpu = cpu_op;
    }

    // One-way boundary transfer: the GPU's next-shell row cell (k+1, s)
    // reads NW = (k, s-1), a CPU row-part cell of this shell.
    sim::OpId h2d_op = sim::kNoOp;
    if (c > 0 && s > 0 && s <= m && k <= s - 1 && s - 1 < m) {
      dtable.device_ptr()[storage.flat(k, s - 1)] = table.at(k, s - 1);
      std::size_t bytes = sizeof(V);
      if (k + 1 == s) {
        // Shell-s column part reads the whole CPU strip column (i, s-1):
        // ship it in bulk together with this shell's boundary cell.
        for (std::size_t i = s; i + 1 < n; ++i) {
          dtable.device_ptr()[storage.flat(i, s - 1)] = table.at(i, s - 1);
          bytes += sizeof(V);
        }
      }
      h2d_op = graph.record_h2d(h2d_stream, bytes, sim::MemoryKind::kPinned,
                                cpu_op);
    }

    if (c < fs) {
      const std::size_t gpu_col = col_n > c ? col_n - c : 0;
      sim::KernelInfo info = base_info;
      info.mem_amplification = detail::mixed_amplification(
          gpu_col, fs - c - gpu_col, gpu_col_amp);
      V* out = dtable.device_ptr();
      if (use_batch) {
        last_gpu = graph.launch(
            compute_stream, info, fs - c,
            [&, k, c, out](std::size_t lo, std::size_t hi) {
              detail::run_front_range(
                  p, deps, bound, layout, k, c + lo, c + hi,
                  [out, &storage](std::size_t i, std::size_t j) {
                    return out + storage.flat(i, j);
                  },
                  /*batch=*/true);
            },
            h2d_m1);
      } else {
        last_gpu = graph.launch(
            compute_stream, info, fs - c,
            [&, k, c, out](std::size_t q) {
              const CellIndex cell = layout.cell(k, c + q);
              out[storage.flat(cell.i, cell.j)] = detail::compute_cell(
                  p, deps, bound, cell.i, cell.j, m, dread);
            },
            h2d_m1);
      }
    }
    h2d_m1 = h2d_op;
  }

  // Phase A is over: submit the fused pipeline before the downloads below
  // need a real GPU op id.
  graph.replay();
  last_gpu = graph.resolve(last_gpu);

  // Phase-B entry: the CPU's first low-work shell reads NW values from the
  // previous shell's GPU part — download it in bulk.
  sim::OpId entry_d2h = sim::kNoOp;
  if (phase_b_begin < num_shells && phase_b_begin > 0) {
    const std::size_t k = phase_b_begin - 1;
    std::size_t bytes = 0;
    for (std::size_t q = std::min(cpu_len(k), layout.front_size(k));
         q < layout.front_size(k); ++q) {
      const CellIndex cell = layout.cell(k, q);
      table.at(cell.i, cell.j) =
          dtable.device_ptr()[storage.flat(cell.i, cell.j)];
      bytes += sizeof(V);
    }
    entry_d2h = gpu.record_d2h(d2h_stream, bytes, sim::MemoryKind::kPageable,
                               last_gpu);
  }

  for (std::size_t k = phase_b_begin; k < num_shells; ++k) {
    const std::size_t fs = layout.front_size(k);
    const std::size_t col_n = layout.column_part_size(k);
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;
    opts.mem_amplification =
        detail::mixed_amplification(col_n, fs - col_n, cpu_col_amp);
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, fs, opts.mem_amplification, true);
    opts.dep1 = entry_d2h;
    if (use_batch) {
      last_cpu = platform.cpu_front(
          fs, work,
          [&, k](std::size_t lo, std::size_t hi) {
            detail::run_front_range(
                p, deps, bound, layout, k, lo, hi,
                [&table](std::size_t i, std::size_t j) {
                  return &table.at(i, j);
                },
                /*batch=*/true);
          },
          opts);
    } else {
      last_cpu = platform.cpu_front(
          fs, work,
          [&, k](std::size_t q) {
            const CellIndex cell = layout.cell(k, q);
            table.at(cell.i, cell.j) =
                detail::compute_cell(p, deps, bound, cell.i, cell.j, m, hread);
          },
          opts);
    }
    entry_d2h = sim::kNoOp;
  }

  // Final download of all GPU-owned cells.
  {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < phase_b_begin; ++k) {
      for (std::size_t q = std::min(cpu_len(k), layout.front_size(k));
           q < layout.front_size(k); ++q) {
        const CellIndex cell = layout.cell(k, q);
        table.at(cell.i, cell.j) =
            dtable.device_ptr()[storage.flat(cell.i, cell.j)];
        bytes += sizeof(V);
      }
    }
    const sim::OpId fin =
        gpu.record_d2h(d2h_stream, std::min(bytes, result_bytes_of(p)),
                       sim::MemoryKind::kPageable, last_gpu);
    platform.cpu_sync(fin, last_cpu);
  }

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = Pattern::kInvertedL;
    stats->transfer = transfer_need(deps);
    stats->fronts = num_shells;
    stats->cells = n * m;
    stats->peak_table_bytes = n * m * sizeof(V) * 2;  // device twin + grid
    stats->t_switch = params.t_switch;
    stats->t_share = params.t_share;
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return table;
}

}  // namespace lddp
