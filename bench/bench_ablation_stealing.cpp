// Ablation: the work-stealing executor (the one host CPU substrate)
// versus inline execution on the calling thread. This bench measures
// *real wall-clock* — the executor changes how fast the host retires
// fronts, never the simulated schedule (results and recorded timelines
// are identical with and without a pool by contract;
// tests/test_stealing_executor.cpp holds that line).
//
// Three measurements; (c) is gated (nonzero exit on regression so the
// perf-smoke CI job catches it):
//
//  (a) Ragged solo solves: anti-diagonal Levenshtein 1k..8k in
//      Mode::kCpuParallel, inline (RunConfig::pool = nullptr) vs the
//      shared executor (&cpu::shared_stealing_pool()). Recorded, not
//      gated — front lengths grow 1..n..1, so the share of fronts
//      crossing the parallel-dispatch threshold (and with it the
//      executor's influence) rises with n.
//  (b) Mixed-size batch of 16 (four 1024x4096 wide + twelve 256): the
//      batch engine with 2 slot threads, threads_per_solve = 4 (one
//      engine-owned executor of min(hardware, 8) - 2 workers) vs 1 (every
//      front inline on its slot thread). The big
//      solves use a horizontal-pattern synthetic (every front is 4096
//      cells wide) so each front actually reaches the executor; they are
//      also sized ABOVE kLaneMaxCells — lane-eligible solves execute as
//      interleaved SIMD scans and never touch the executor. Recorded, not
//      gated: the contrast is how well the executor fills the cores the
//      two slot threads leave idle, which depends on the host's core
//      count (a 2-core host gets no workers, and the arms tie).
//      Arms run interleaved so host drift cannot pick the winner.
//  (c) Uniform small fronts: Levenshtein 1024 solo (every front below
//      the dispatch threshold, so both arms run inline). Gate: the
//      executor arm is never worse than 1.05x inline wall-clock — the
//      executor must cost nothing when it is not used.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_engine.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace {

using namespace lddp;

int failures = 0;

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlpha[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

/// Horizontal-pattern synthetic (deps = {N}): every front is one full
/// `cols`-cell row, so a 4096-wide table dispatches every front to the
/// execution substrate under test.
auto make_wide_problem(std::size_t rows, std::size_t cols,
                       std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      rows, cols, ContributingSet({Dep::kN}), salt,
      [salt](std::size_t i, std::size_t j, const Neighbors<std::uint64_t>& nb) {
        return (salt + i * 1000003 + j * 10007) * 31 + nb.n;
      });
}

/// (a) Ragged solo solves, inline vs the shared executor.
void solo_ragged(lddp::bench::JsonWriter& json) {
  std::printf("=== (a) Ragged anti-diagonal solo solves, CPU parallel "
              "(wall ms, best of 2) ===\n");
  std::printf("%8s %12s %12s %9s\n", "n", "inline", "executor", "speedup");
  sim::BufferPool buffers;
  for (const std::size_t n : {1024u, 2048u, 4096u, 8192u}) {
    const problems::LevenshteinProblem p(random_dna(n, 2 * n),
                                         random_dna(n, 2 * n + 1));
    RunConfig in;
    in.mode = Mode::kCpuParallel;
    in.buffer_pool = &buffers;
    const double wall_inline = lddp::bench::min_wall_seconds(
        [&] { solve(p, in); }, /*reps=*/2, /*warmup=*/1);

    RunConfig ex = in;
    ex.pool = &cpu::shared_stealing_pool();
    const double wall_exec = lddp::bench::min_wall_seconds(
        [&] { solve(p, ex); }, /*reps=*/2, /*warmup=*/1);

    std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, wall_inline * 1e3,
                wall_exec * 1e3, wall_inline / wall_exec);
    json.record_wall("solo_ragged/inline", n, wall_inline * 1e3);
    json.record_wall("solo_ragged/executor", n, wall_exec * 1e3);
  }
}

/// One mixed batch through the engine; returns wall seconds for the batch.
/// `worker_threads` is pinned to 2 so both arms run 2 slot threads on any
/// host, leaving cores for the executor; only `threads_per_solve` differs.
double batch_wall_once(std::size_t threads_per_solve) {
  // 1024x4096 = 4M cells: over detail::kLaneMaxCells, so the big solves
  // take the job->run path and actually exercise the executor.
  static auto big = make_wide_problem(1024, 4096, 7);
  static problems::LevenshteinProblem small(random_dna(256, 5),
                                            random_dna(256, 6));
  Stopwatch timer;
  {
    BatchConfig bc;
    bc.threads_per_solve = threads_per_solve;
    bc.concurrency = 4;
    bc.worker_threads = 2;
    BatchEngine engine(bc);
    RunConfig rc;
    rc.mode = Mode::kCpuParallel;
    std::vector<std::future<SolveResult<decltype(big)>>> big_futs;
    std::vector<std::future<SolveResult<decltype(small)>>> small_futs;
    for (int k = 0; k < 4; ++k) {
      auto f = engine.submit(big, rc);
      if (f.has_value()) big_futs.push_back(std::move(*f));
    }
    for (int k = 0; k < 12; ++k) {
      auto f = engine.submit(small, rc);
      if (f.has_value()) small_futs.push_back(std::move(*f));
    }
    engine.wait();
    for (auto& f : big_futs) f.get();
    for (auto& f : small_futs) f.get();
  }
  return timer.seconds();
}

/// (b) Mixed-size batch, threads_per_solve 4 vs 1, recorded only. The
/// arms are measured INTERLEAVED and each takes its best rep: host-level
/// drift across the run (frequency scaling, noisy neighbours, allocator
/// state) then biases both arms equally.
void batch_mixed(lddp::bench::JsonWriter& json) {
  std::printf("\n=== (b) Mixed batch of 16 (four 1024x4096 wide + twelve "
              "256), 2 slot threads ===\n");
  constexpr int kReps = 4;
  double wall_1 = 1e300, wall_4 = 1e300;
  batch_wall_once(1);  // warm both arms (and the problem tables)
  batch_wall_once(4);
  for (int rep = 0; rep < kReps; ++rep) {
    wall_1 = std::min(wall_1, batch_wall_once(1));
    wall_4 = std::min(wall_4, batch_wall_once(4));
  }
  const double r1 = 16.0 / wall_1;
  const double r4 = 16.0 / wall_4;
  std::printf("threads_per_solve=1 %8.2f solves/s | threads_per_solve=4 "
              "%8.2f solves/s | %.2fx\n",
              r1, r4, r4 / r1);
  json.record_wall("batch_mixed/threads_per_solve_1", 16, wall_1 * 1e3, r1,
                   "solves_per_s");
  json.record_wall("batch_mixed/threads_per_solve_4", 16, wall_4 * 1e3, r4,
                   "solves_per_s");
}

/// (c) Uniform small fronts, gated never-worse 1.05x against inline.
void small_fronts_never_worse(lddp::bench::JsonWriter& json) {
  std::printf("\n=== (c) Uniform small fronts (Levenshtein 1024, every "
              "front below the dispatch threshold) ===\n");
  const problems::LevenshteinProblem p(random_dna(1024, 21),
                                       random_dna(1024, 22));
  sim::BufferPool buffers;
  RunConfig in;
  in.mode = Mode::kCpuParallel;
  in.buffer_pool = &buffers;
  const double wall_inline = lddp::bench::min_wall_seconds(
      [&] { solve(p, in); }, /*reps=*/5, /*warmup=*/2);

  RunConfig ex = in;
  ex.pool = &cpu::shared_stealing_pool();
  const double wall_exec = lddp::bench::min_wall_seconds(
      [&] { solve(p, ex); }, /*reps=*/5, /*warmup=*/2);

  const double ratio = wall_exec / wall_inline;
  std::printf("inline %.3f ms | executor %.3f ms | ratio %.3f\n",
              wall_inline * 1e3, wall_exec * 1e3, ratio);
  json.record_wall("small_fronts/inline", 1024, wall_inline * 1e3);
  json.record_wall("small_fronts/executor", 1024, wall_exec * 1e3);
  if (ratio > 1.05) {
    std::fprintf(stderr,
                 "GATE FAIL: executor %.2fx slower than inline on small "
                 "fronts (limit 1.05x)\n",
                 ratio);
    ++failures;
  }
}

}  // namespace

int main() {
  lddp::bench::stabilize_allocator();
  lddp::bench::JsonWriter json("ablation_stealing");

  solo_ragged(json);
  batch_mixed(json);
  small_fronts_never_worse(json);
  json.save();

  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
