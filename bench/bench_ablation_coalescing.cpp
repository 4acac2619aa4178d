// Ablation: the wavefront-contiguous ("coalescing-friendly") layout of
// Section IV-B. The inverted-L pattern is the paper's own evidence: its
// framework runs iL on row-major storage (strided column parts), which is
// why horizontal case-1 wins Fig 8. Here we additionally measure what the
// missing shell-major layout would have bought.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "core/strategies/hetero_invertedl.h"
#include "problems/synthetic.h"
#include "util/csv.h"

namespace {

using namespace lddp;

problems::MaxNwProblem make_problem(std::size_t n) {
  return problems::MaxNwProblem(problems::random_input_grid(n, n, n), 3);
}

void BM_InvertedL_RowMajorStorage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(n);
  SolveStats stats;
  for (auto _ : state) {
    sim::Platform platform(sim::PlatformSpec::hetero_high());
    auto table = solve_gpu_invertedl(p, platform, &stats);
    benchmark::DoNotOptimize(table.data());
    state.SetIterationTime(stats.sim_seconds);
  }
  state.counters["sim_ms"] = stats.sim_seconds * 1e3;
}
BENCHMARK(BM_InvertedL_RowMajorStorage)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_InvertedL_ShellMajorStorage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(n);
  SolveStats stats;
  for (auto _ : state) {
    sim::Platform platform(sim::PlatformSpec::hetero_high());
    const ShellLayout shells(p.rows(), p.cols());
    FullStore<problems::MaxNwProblem::Value, ShellLayout> store(
        shells, &platform.gpu());
    auto table = solve_gpu(p, store, platform, &stats);
    benchmark::DoNotOptimize(table.data());
    state.SetIterationTime(stats.sim_seconds);
  }
  state.counters["sim_ms"] = stats.sim_seconds * 1e3;
}
BENCHMARK(BM_InvertedL_ShellMajorStorage)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void print_series() {
  std::printf("\n=== Ablation: coalescing layout for the inverted-L GPU "
              "kernels (Hetero-High) ===\n");
  std::printf("%8s %18s %18s %10s\n", "size", "row-major (ms)",
              "shell-major (ms)", "speedup");
  CsvWriter csv("ablation_coalescing.csv");
  csv.header({"size", "row_major_ms", "shell_major_ms", "speedup"});
  for (std::size_t n : {1024u, 2048u, 4096u}) {
    const auto p = make_problem(n);
    SolveStats s1, s2;
    {
      sim::Platform platform(sim::PlatformSpec::hetero_high());
      solve_gpu_invertedl(p, platform, &s1);
    }
    {
      sim::Platform platform(sim::PlatformSpec::hetero_high());
      const ShellLayout shells(p.rows(), p.cols());
      FullStore<problems::MaxNwProblem::Value, ShellLayout> store(
          shells, &platform.gpu());
      solve_gpu(p, store, platform, &s2);
    }
    std::printf("%8zu %18.3f %18.3f %9.2fx\n", n, s1.sim_seconds * 1e3,
                s2.sim_seconds * 1e3, s1.sim_seconds / s2.sim_seconds);
    csv.row(n, s1.sim_seconds * 1e3, s2.sim_seconds * 1e3,
            s1.sim_seconds / s2.sim_seconds);
  }
  csv.save();
}

}  // namespace

int main(int argc, char** argv) {
  print_series();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
