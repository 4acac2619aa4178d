// Batched multi-solve throughput: N independent requests share one
// simulated platform through the BatchEngine instead of running
// back-to-back. Sweeps batch size x scheduler policy over a Table-I
// pattern mix (all 15 contributing sets, rotating sizes and rotating
// cpu/gpu/hetero modes so CPU-only solves overlap accelerator-heavy
// ones) and records solves/sec, makespan and p50/p99 latency against the
// serial one-at-a-time baseline in BENCH_batch_throughput.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/batch_engine.h"
#include "core/lane_kernels.h"
#include "core/pattern.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace {

using namespace lddp;

constexpr std::size_t kBatchSizes[] = {1, 2, 4, 8, 16, 32};
constexpr BatchSched kPolicies[] = {BatchSched::kFifo, BatchSched::kSjf,
                                    BatchSched::kWfq};

/// One request of the Table-I mix: contributing set idx % 15, a rotating
/// table side (so SJF has distinct estimates to order by) and a rotating
/// execution mode (so requests contend for different platform resources).
struct MixCase {
  ContributingSet deps;
  std::size_t side;
  Mode mode;
  double weight;
};

std::vector<MixCase> make_mix(std::size_t n) {
  // Half the requests are CPU-only, half accelerator-backed, with CPU
  // tables larger: a CPU solve costs roughly half the simulated time of a
  // GPU solve of the same side, so this keeps the per-resource totals —
  // the floor of any merged schedule — roughly even instead of letting
  // gpu.compute bind.
  constexpr Mode kModes[] = {Mode::kCpuParallel, Mode::kGpu,
                             Mode::kCpuParallel, Mode::kHeterogeneous};
  std::vector<MixCase> mix;
  mix.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Mode mode = kModes[k % 4];
    const bool big = (k % 8) < 4;
    const std::size_t side = mode == Mode::kCpuParallel ? (big ? 384 : 320)
                                                        : (big ? 256 : 192);
    mix.push_back(MixCase{
        contributing_set_by_index(static_cast<int>(k % kNumContributingSets)),
        side, mode, 1.0 + static_cast<double>(k % 3)});
  }
  return mix;
}

auto make_problem(const MixCase& c) {
  const ContributingSet deps = c.deps;
  return problems::make_function_problem(
      c.side, c.side, deps, std::int64_t{0},
      [deps](std::size_t i, std::size_t j,
             const Neighbors<std::int64_t>& nb) {
        std::int64_t r = static_cast<std::int64_t>(i * 31 + j);
        if (deps.has_w()) r ^= nb.w;
        if (deps.has_nw()) r += nb.nw + 1;
        if (deps.has_n()) r ^= nb.n << 1;
        if (deps.has_ne()) r -= nb.ne;
        return r;
      });
}

BatchReport run_batch(std::size_t batch, BatchSched sched,
                      const std::vector<MixCase>& mix,
                      bool pack = true, long long lane_pack = -1,
                      bool lifecycle = false) {
  BatchConfig bc;
  bc.concurrency = std::min<std::size_t>(batch, 8);
  bc.queue_capacity = batch;
  bc.sched = sched;
  bc.pack_solves = pack;
  bc.lane_pack = lane_pack;
  if (lifecycle) {
    // Arm every lifecycle mechanism without ever letting one fire: a
    // generous simulated deadline installs the Timeline control hook on
    // every op, a retry budget sizes the attempt loop, and a vanishingly
    // rare chaos rate (a draw below 1e-300 needs the 53-bit hash to come
    // up all-zero) keeps the thread-local fault scope open and every site
    // probe paying its full hash-and-compare cost.
    bc.deadline_ms = 1e9;
    bc.max_retries = 4;
    bc.chaos = fault::FaultPlan::uniform(/*seed=*/1, /*rate=*/1e-300);
  }
  BatchEngine engine(bc);
  for (const MixCase& c : mix) {
    RunConfig rc;
    rc.mode = c.mode;
    auto f = engine.submit(make_problem(c), rc, c.weight);
    LDDP_CHECK(f.has_value());
  }
  return engine.wait();
}

/// Small-solve mix: accelerator-mode requests whose wavefronts are
/// dominated by per-launch submission costs (driver overhead, graph-node
/// issue, pipeline-fill floors) — the regime cross-solve packing targets.
std::vector<MixCase> make_small_mix(std::size_t n) {
  constexpr Mode kModes[] = {Mode::kGpu, Mode::kGpu, Mode::kHeterogeneous,
                             Mode::kGpu};
  std::vector<MixCase> mix;
  mix.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    mix.push_back(MixCase{
        contributing_set_by_index(static_cast<int>(k % kNumContributingSets)),
        64 + 32 * (k % 3), kModes[k % 4], 1.0});
  }
  return mix;
}

/// Packed-vs-unpacked ablation on the small-solve mix. Returns false if
/// packing ever loses to the unpacked merge — the CI perf-smoke gate
/// (rider pricing is clamped at solo cost, so a loss is a scheduler bug,
/// not a tuning matter).
bool pack_sweep(lddp::bench::JsonWriter& json) {
  std::printf("\n=== Cross-solve packing: small-solve mix, fifo, "
              "concurrency=min(batch,8) ===\n");
  std::printf("%6s %12s %12s %8s %7s %10s\n", "batch", "packed_ms",
              "unpacked_ms", "speedup", "packs", "saved_ms");
  bool never_loses = true;
  bool target_ok = true;
  for (std::size_t batch : kBatchSizes) {
    const std::vector<MixCase> mix = make_small_mix(batch);
    const BatchReport packed =
        run_batch(batch, BatchSched::kFifo, mix, /*pack=*/true);
    const BatchReport unpacked =
        run_batch(batch, BatchSched::kFifo, mix, /*pack=*/false);
    // solves/sec ratio == unpacked/packed makespan (same request count).
    const double speedup =
        packed.sim_makespan > 0.0
            ? unpacked.sim_makespan / packed.sim_makespan
            : 1.0;
    json.record_sim("pack/packed", batch, packed.sim_makespan * 1e3);
    json.record_sim("pack/unpacked", batch, unpacked.sim_makespan * 1e3);
    json.record_sim("pack/speedup", batch, speedup);
    std::printf("%6zu %12.3f %12.3f %7.2fx %7zu %10.3f\n", batch,
                packed.sim_makespan * 1e3, unpacked.sim_makespan * 1e3,
                speedup, packed.packs, packed.pack_saved_seconds * 1e3);
    if (speedup < 1.0 - 1e-9) never_loses = false;
    if (batch >= 8 && speedup < 1.3) target_ok = false;
  }
  std::printf("pack gate (packed never slower than unpacked): %s\n",
              never_loses ? "PASS" : "FAIL");
  std::printf("pack target (>=1.3x solves/sec at batch >= 8): %s\n",
              target_ok ? "PASS" : "FAIL");
  return never_loses;
}

std::string rand_str(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, 'a');
  for (auto& c : s) c = static_cast<char>('a' + rng.uniform_int(0, 3));
  return s;
}

/// Submits `probs` as one batch of serial-CPU requests and returns the
/// best-of-3 wall time of submit+drain. `lane_pack` -1 enables inter-solve
/// lane packing at the ISA-preferred width, 0 is the per-solve PR-5
/// batch-kernel baseline.
template <typename P>
double lane_batch_wall(const std::vector<P>& probs, long long lane_pack) {
  return lddp::bench::min_wall_seconds(
      [&] {
        BatchConfig bc;
        bc.concurrency = probs.size();
        bc.queue_capacity = probs.size();
        bc.lane_pack = lane_pack;
        BatchEngine engine(bc);
        std::vector<std::future<SolveResult<P>>> futs;
        futs.reserve(probs.size());
        for (const P& p : probs) {
          RunConfig rc;
          rc.mode = Mode::kCpuSerial;
          auto f = engine.submit(P(p), rc);
          LDDP_CHECK(f.has_value());
          futs.push_back(std::move(*f));
        }
        engine.wait();
        for (auto& f : futs) benchmark::DoNotOptimize(f.get().table);
      },
      /*reps=*/3, /*warmup=*/1);
}

/// Lane-packed tables must match the solo serial solver bit for bit.
template <typename P>
bool lane_identity(const std::vector<P>& probs) {
  BatchConfig bc;
  bc.concurrency = probs.size();
  bc.queue_capacity = probs.size();
  bc.lane_pack = -1;
  BatchEngine engine(bc);
  std::vector<std::future<SolveResult<P>>> futs;
  for (const P& p : probs) {
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    futs.push_back(std::move(*engine.submit(P(p), rc)));
  }
  engine.wait();
  bool ok = true;
  for (std::size_t k = 0; k < probs.size(); ++k) {
    const auto got = futs[k].get();
    const auto want = solve_cpu_serial(probs[k], nullptr, nullptr, true);
    ok = ok && got.table.to_grid() == want;
  }
  return ok;
}

template <typename P>
bool lane_gate_case(const char* kind, std::size_t side, std::size_t batch,
                    lddp::bench::JsonWriter& json) {
  std::vector<P> probs;
  probs.reserve(batch);
  for (std::size_t k = 0; k < batch; ++k)
    probs.emplace_back(rand_str(side, 2 * k + 1), rand_str(side, 2 * k + 2));
  // Interleave the arms rep by rep and keep each arm's minimum: shared
  // hosts throw multi-rep noise bursts, and back-to-back arms give both
  // sides the same odds of landing in a quiet window — measuring one arm's
  // reps consecutively lets a single burst poison that arm's whole min.
  double on = lane_batch_wall(probs, /*lane_pack=*/-1);
  double off = lane_batch_wall(probs, /*lane_pack=*/0);
  for (int rep = 0; rep < 4; ++rep) {
    on = std::min(on, lane_batch_wall(probs, /*lane_pack=*/-1));
    off = std::min(off, lane_batch_wall(probs, /*lane_pack=*/0));
  }
  const double speedup = on > 0.0 ? off / on : 1.0;
  const double cells = static_cast<double>(batch) *
                       static_cast<double>(side + 1) *
                       static_cast<double>(side + 1);
  const std::string tag =
      std::string("lane/") + kind + "/" + std::to_string(side);
  json.record_wall(tag + "/packed", batch, on * 1e3, cells / on);
  json.record_wall(tag + "/per-solve", batch, off * 1e3, cells / off);
  std::printf("%-5s %6zu %6zu %12.3f %12.3f %7.2fx %13.0f\n", kind, side,
              batch, on * 1e3, off * 1e3, speedup, cells / on);
  return speedup >= 2.0;
}

/// Lane-packed vs per-solve ablation: same-class small serial solves —
/// the regime inter-solve lane packing targets. Gates the CI perf smoke:
/// >= 2x solves/sec on cohort-friendly batches, never worse on the mixed
/// Table-I batch, and packed tables bit-identical to solo solves.
bool lane_sweep(lddp::bench::JsonWriter& json) {
  std::printf("\n=== Inter-solve lane packing: same-class batches, serial "
              "CPU mode, wall best-of-3 [isa %s, width %zu] ===\n",
              lanes::active_isa(), lanes::preferred_lane_width());
  std::printf("%-5s %6s %6s %12s %12s %8s %13s\n", "kind", "side", "batch",
              "packed_ms", "per_solve_ms", "speedup", "cells/s");
  bool target_ok = true;
  for (std::size_t side : {std::size_t{256}, std::size_t{512},
                           std::size_t{1024}}) {
    for (std::size_t batch : {std::size_t{8}, std::size_t{16}}) {
      target_ok &= lane_gate_case<problems::LevenshteinProblem>("lev", side,
                                                                batch, json);
      target_ok &= lane_gate_case<problems::LcsProblem>("lcs", side, batch,
                                                        json);
    }
  }

  // Mixed batch (no large same-class cohorts): lane packing must never
  // lose. 10% relative + 2ms absolute slack absorbs host timer noise.
  bool mixed_ok = true;
  for (std::size_t batch : {std::size_t{8}, std::size_t{16}}) {
    const std::vector<MixCase> mix = make_mix(batch);
    const double on = lddp::bench::min_wall_seconds(
        [&] { run_batch(batch, BatchSched::kFifo, mix, true, -1); }, 3, 1);
    const double off = lddp::bench::min_wall_seconds(
        [&] { run_batch(batch, BatchSched::kFifo, mix, true, 0); }, 3, 1);
    json.record_wall("lane/mixed/packed", batch, on * 1e3);
    json.record_wall("lane/mixed/per-solve", batch, off * 1e3);
    std::printf("mixed batch=%2zu: lane on %.3f ms, off %.3f ms\n", batch,
                on * 1e3, off * 1e3);
    if (on > off * 1.10 + 2e-3) mixed_ok = false;
  }

  // Bit-identity on a ragged cohort (same shape bucket, distinct sides).
  std::vector<problems::LevenshteinProblem> ragged;
  for (std::size_t k = 0; k < 8; ++k)
    ragged.emplace_back(rand_str(257 + 7 * k, 90 + k),
                        rand_str(300 - 5 * k, 190 + k));
  const bool identity_ok = lane_identity(ragged);

  std::printf("lane target (>=2x solves/sec, same-class batch >= 8): %s\n",
              target_ok ? "PASS" : "FAIL");
  std::printf("lane gate (never slower on mixed batches): %s\n",
              mixed_ok ? "PASS" : "FAIL");
  std::printf("lane gate (bit-identical to solo solves): %s\n",
              identity_ok ? "PASS" : "FAIL");
  return target_ok && mixed_ok && identity_ok;
}

/// Fault-free lifecycle overhead: the same Table-I mix with deadlines,
/// retry budgets and an armed-but-silent chaos plan versus the bare
/// engine. Every recorded op takes the cancellation/deadline branch and
/// every site probe hashes a fault decision, but nothing ever fires — the
/// wall-time delta is the pure bookkeeping cost of the robustness layer.
/// Gate: < 2% regression (plus 2ms absolute slack for host timer noise).
bool lifecycle_sweep(lddp::bench::JsonWriter& json) {
  std::printf("\n=== Request-lifecycle overhead: fault-free, deadline+retry"
              "+chaos armed, wall best-of-5 ===\n");
  std::printf("%6s %12s %12s %10s\n", "batch", "bare_ms", "lifecycle_ms",
              "overhead");
  bool gate_ok = true;
  for (std::size_t batch : {std::size_t{8}, std::size_t{16}}) {
    const std::vector<MixCase> mix = make_mix(batch);
    // Interleave the arms rep by rep (same rationale as the lane gate:
    // a noise burst should hit both arms with equal odds).
    double off = lddp::bench::min_wall_seconds(
        [&] { run_batch(batch, BatchSched::kFifo, mix); }, 1, 1);
    double on = lddp::bench::min_wall_seconds(
        [&] {
          run_batch(batch, BatchSched::kFifo, mix, true, -1,
                    /*lifecycle=*/true);
        },
        1, 1);
    for (int rep = 0; rep < 4; ++rep) {
      off = std::min(off, lddp::bench::min_wall_seconds(
                              [&] {
                                run_batch(batch, BatchSched::kFifo, mix);
                              },
                              1, 0));
      on = std::min(on, lddp::bench::min_wall_seconds(
                            [&] {
                              run_batch(batch, BatchSched::kFifo, mix, true,
                                        -1, /*lifecycle=*/true);
                            },
                            1, 0));
    }
    const double overhead = off > 0.0 ? on / off - 1.0 : 0.0;
    json.record_wall("lifecycle/bare", batch, off * 1e3);
    json.record_wall("lifecycle/armed", batch, on * 1e3);
    std::printf("%6zu %12.3f %12.3f %9.2f%%\n", batch, off * 1e3, on * 1e3,
                overhead * 100.0);
    if (on > off * 1.02 + 2e-3) gate_ok = false;
  }
  std::printf("lifecycle gate (< 2%% fault-free overhead): %s\n",
              gate_ok ? "PASS" : "FAIL");
  return gate_ok;
}

bool sweep() {
  lddp::bench::JsonWriter json("batch_throughput");
  std::printf("\n=== Batch throughput: Table-I mix, Hetero-High, "
              "concurrency=min(batch,8) ===\n");
  std::printf("%6s %-5s %12s %12s %8s %10s %10s %10s\n", "batch", "sched",
              "makespan_ms", "serial_ms", "speedup", "solves/s", "p50_ms",
              "p99_ms");
  bool throughput_ok = true;
  for (std::size_t batch : kBatchSizes) {
    for (BatchSched sched : kPolicies) {
      const auto wall0 = std::chrono::steady_clock::now();
      const BatchReport rep = run_batch(batch, sched, make_mix(batch));
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall0)
              .count();
      const std::string tag = to_string(sched);
      json.record(tag + "/makespan", batch, rep.sim_makespan * 1e3,
                  wall_ms);
      json.record_sim(tag + "/p50", batch, rep.p50_latency * 1e3);
      json.record_sim(tag + "/p99", batch, rep.p99_latency * 1e3);
      if (sched == BatchSched::kFifo)
        json.record_sim("serial", batch, rep.serial_sim_seconds * 1e3);
      std::printf("%6zu %-5s %12.3f %12.3f %7.2fx %10.1f %10.3f %10.3f\n",
                  batch, tag.c_str(), rep.sim_makespan * 1e3,
                  rep.serial_sim_seconds * 1e3, rep.speedup,
                  rep.solves_per_sec, rep.p50_latency * 1e3,
                  rep.p99_latency * 1e3);
      if (batch >= 8 && rep.speedup < 1.5) throughput_ok = false;
    }
  }
  const bool pack_ok = pack_sweep(json);
  const bool lane_ok = lane_sweep(json);
  const bool lifecycle_ok = lifecycle_sweep(json);
  json.save();
  std::printf("throughput gate (>=1.5x solves/sec at batch >= 8): %s\n",
              throughput_ok ? "PASS" : "FAIL");
  return pack_ok && lane_ok && lifecycle_ok;
}

void BM_BatchMerge8(benchmark::State& state) {
  for (auto _ : state) {
    const BatchReport rep =
        run_batch(8, BatchSched::kFifo, make_mix(8));
    benchmark::DoNotOptimize(rep.sim_makespan);
    state.SetIterationTime(rep.sim_makespan);
  }
}
BENCHMARK(BM_BatchMerge8)->Iterations(1)->UseManualTime();

}  // namespace

int main(int argc, char** argv) {
  lddp::bench::stabilize_allocator();
  const bool pack_ok = sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return pack_ok ? 0 : 1;
}
