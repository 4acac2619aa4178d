// Ablation: the wavefront-contiguous ("coalescing-friendly") layout of
// Section IV-B. The inverted-L pattern is the paper's own evidence: its
// framework runs iL on row-major storage (strided column parts), which is
// why horizontal case-1 wins Fig 8. Here we additionally measure what the
// missing shell-major layout would have bought.
//
// Row-major arm: solve() in GPU mode, which prices the shells on the
// paper's strided storage. Shell-major arm: solve_gpu over a ShellLayout
// store with no strided pricing. Writes BENCH_ablation_coalescing.json
// and exits 1 unless shell-major beats row-major at every size — the
// model invariant behind Fig 8.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "problems/synthetic.h"
#include "util/csv.h"

namespace {

using namespace lddp;

problems::MaxNwProblem make_problem(std::size_t n) {
  return problems::MaxNwProblem(problems::random_input_grid(n, n, n), 3);
}

RunConfig row_major_cfg() {
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  cfg.platform = sim::PlatformSpec::hetero_high();
  return cfg;
}

void BM_InvertedL_RowMajorStorage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto p = make_problem(n);
  lddp::bench::run_once(state, p, row_major_cfg());
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
    FullStore<problems::MaxNwProblem::Value, ShellLayout> store(shells);
    auto table = solve_gpu(p, store, platform, &stats);
    benchmark::DoNotOptimize(table);
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

/// Prints the series; false when shell-major fails to beat row-major at
/// some size.
bool print_series() {
  std::printf("\n=== Ablation: coalescing layout for the inverted-L GPU "
              "kernels (Hetero-High) ===\n");
  std::printf("%8s %18s %18s %10s\n", "size", "row-major (ms)",
              "shell-major (ms)", "speedup");
  CsvWriter csv("ablation_coalescing.csv");
  csv.header({"size", "row_major_ms", "shell_major_ms", "speedup"});
  lddp::bench::JsonWriter json("ablation_coalescing");
  bool ok = true;
  for (std::size_t n : {1024u, 2048u, 4096u}) {
    const auto p = make_problem(n);
    const SolveStats s1 = solve(p, row_major_cfg()).stats;
    SolveStats s2;
    {
      sim::Platform platform(sim::PlatformSpec::hetero_high());
      const ShellLayout shells(p.rows(), p.cols());
      FullStore<problems::MaxNwProblem::Value, ShellLayout> store(shells);
      solve_gpu(p, store, platform, &s2);
    }
    std::printf("%8zu %18.3f %18.3f %9.2fx\n", n, s1.sim_seconds * 1e3,
                s2.sim_seconds * 1e3, s1.sim_seconds / s2.sim_seconds);
    csv.row(n, s1.sim_seconds * 1e3, s2.sim_seconds * 1e3,
            s1.sim_seconds / s2.sim_seconds);
    json.record("row-major", n, s1);
    json.record("shell-major", n, s2);
    if (!(s2.sim_seconds < s1.sim_seconds)) {
      std::fprintf(stderr,
                   "GATE FAILED: shell-major %.3f ms does not beat "
                   "row-major %.3f ms at %zu\n",
                   s2.sim_seconds * 1e3, s1.sim_seconds * 1e3, n);
      ok = false;
    }
  }
  csv.save();
  json.save();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ok = print_series();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
