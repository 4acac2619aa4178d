// Cross-solve wavefront packing: PackedKernel segment pricing, pack-window
// formation and dependency preservation in the TimelineMerger, completion
// draining, deterministic replay across real worker counts, packed
// batches on the engine's executor, and the cross-solve tuner cache.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/tuner.h"
#include "problems/alignment.h"
#include "problems/levenshtein.h"
#include "sim/device_spec.h"
#include "sim/kernel.h"
#include "sim/timeline.h"
#include "sim/timeline_merge.h"

namespace lddp {
namespace {

constexpr double kTol = 1e-12;

TEST(PackedKernel, HeadPaysFullRidersAmortize) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const double issue = spec.packed_segment_issue_us * 1e-6;
  sim::PackedKernel pack(spec);

  // The head segment carries the launch: full recorded price, no savings.
  EXPECT_DOUBLE_EQ(pack.add_segment(100e-6, 40e-6), 100e-6);
  EXPECT_EQ(pack.segments(), 1u);
  EXPECT_DOUBLE_EQ(pack.saved_seconds(), 0.0);

  // A rider swaps its 40us amortizable share for the segment-issue cost.
  const double priced = pack.add_segment(100e-6, 40e-6);
  EXPECT_NEAR(priced, 60e-6 + issue, kTol);
  EXPECT_NEAR(pack.saved_seconds(), 40e-6 - issue, kTol);
  EXPECT_EQ(pack.segments(), 2u);

  // Clamp: a rider with nothing to amortize never prices above solo.
  EXPECT_DOUBLE_EQ(pack.add_segment(0.3e-6, 0.0), 0.3e-6);

  // Clamp: annotation larger than the op leaves only the issue cost.
  EXPECT_NEAR(pack.add_segment(1e-6, 50e-6), issue, kTol);

  EXPECT_NEAR(pack.total_seconds(),
              100e-6 + (60e-6 + issue) + 0.3e-6 + issue, kTol);
}

TEST(PackedKernel, ExecPricingIsFloorFree) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  sim::KernelInfo info;

  // A tiny front is dominated by the pipeline-fill floor; the packed price
  // drops it (the pack's head already filled the pipeline).
  const double tiny_exec = sim::kernel_exec_seconds(spec, info, 4);
  const double tiny_packed = sim::kernel_packed_exec_seconds(spec, info, 4);
  EXPECT_LT(tiny_packed, tiny_exec);
  EXPECT_GT(tiny_packed, 0.0);

  // A saturating front is throughput-bound: floor removal changes nothing.
  const std::size_t big = 1u << 22;
  EXPECT_NEAR(sim::kernel_packed_exec_seconds(spec, info, big),
              sim::kernel_exec_seconds(spec, info, big), kTol);

  // The packed price never exceeds the solo exec price.
  for (std::size_t n : {1u, 64u, 4096u, 262144u}) {
    EXPECT_LE(sim::kernel_packed_exec_seconds(spec, info, n),
              sim::kernel_exec_seconds(spec, info, n) + kTol);
  }
}

/// One recorded single-op schedule on resource `res` with `dur` seconds and
/// `overhead` annotated as amortizable.
sim::Timeline one_op(const char* res, double dur, double overhead) {
  sim::Timeline tl;
  const auto r = tl.add_resource(res);
  const sim::OpId op = tl.record(r, dur);
  if (overhead > 0.0) tl.annotate_pack(op, overhead);
  return tl;
}

TEST(PackScheduler, CoReadyFrontsFormOnePack) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const double issue = spec.packed_segment_issue_us * 1e-6;
  const sim::Timeline a = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline b = one_op("gpu", 100e-6, 40e-6);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 0.0);
  while (merger.busy()) merger.step();

  EXPECT_EQ(merger.pack_count(), 1u);
  EXPECT_EQ(merger.packed_ops(), 1u);
  EXPECT_NEAR(merger.pack_saved_seconds(), 40e-6 - issue, kTol);
  // Head at full price, rider appended floor-free: 100 + 60 + issue us.
  EXPECT_NEAR(shared.makespan(), 160e-6 + issue, kTol);
  EXPECT_NEAR(merger.job_end(0), 100e-6, kTol);
  EXPECT_NEAR(merger.job_end(1), 160e-6 + issue, kTol);
}

TEST(PackScheduler, PackingOffReproducesSerialQueueing) {
  const sim::Timeline a = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline b = one_op("gpu", 100e-6, 40e-6);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);  // enable_packing not called
  merger.add(a, 0.0);
  merger.add(b, 0.0);
  while (merger.busy()) merger.step();

  EXPECT_EQ(merger.pack_count(), 0u);
  EXPECT_NEAR(shared.makespan(), 200e-6, kTol);
}

TEST(PackScheduler, NonPackableJobNeverRides) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const sim::Timeline a = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline b = one_op("gpu", 100e-6, 40e-6);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 0.0, sim::kNoOp, /*packable=*/false);
  while (merger.busy()) merger.step();

  EXPECT_EQ(merger.pack_count(), 0u);
  EXPECT_NEAR(shared.makespan(), 200e-6, kTol);
}

TEST(PackScheduler, UnannotatedOpsDoNotPack) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  // No annotate_pack: nothing is amortizable, so there is nothing to fuse.
  const sim::Timeline a = one_op("gpu", 100e-6, 0.0);
  const sim::Timeline b = one_op("gpu", 100e-6, 0.0);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 0.0);
  while (merger.busy()) merger.step();

  EXPECT_EQ(merger.pack_count(), 0u);
  EXPECT_NEAR(shared.makespan(), 200e-6, kTol);
}

TEST(PackScheduler, PackCompletionsDrainOnePerStep) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const sim::Timeline a = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline b = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline c = one_op("gpu", 100e-6, 40e-6);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 0.0);
  merger.add(c, 0.0);

  // One pack finishes all three jobs; step() surfaces them one at a time,
  // in admission-rank order, and busy() holds until the queue is drained.
  std::vector<std::size_t> completions;
  while (merger.busy()) {
    const std::size_t done = merger.step();
    if (done != sim::TimelineMerger::kNone) completions.push_back(done);
  }
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 0u);
  EXPECT_EQ(completions[1], 1u);
  EXPECT_EQ(completions[2], 2u);
  EXPECT_EQ(merger.pack_count(), 1u);
  EXPECT_EQ(merger.packed_ops(), 2u);
}

TEST(PackScheduler, PacksRespectRecordedDependencies) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const double issue = spec.packed_segment_issue_us * 1e-6;

  // Each job: a 10us staging copy (private DMA lanes) gating a 100us
  // kernel on the shared compute engine.
  auto chain = [](const char* copy_res) {
    sim::Timeline tl;
    const auto rc = tl.add_resource(copy_res);
    const auto rg = tl.add_resource("gpu");
    const sim::OpId h2d = tl.record(rc, 10e-6);
    const sim::OpId k = tl.record(rg, 100e-6, h2d);
    tl.annotate_pack(k, 40e-6);
    return tl;
  };
  const sim::Timeline a = chain("copy.a");
  const sim::Timeline b = chain("copy.b");

  sim::Timeline shared;
  shared.add_resource("copy.a");
  shared.add_resource("copy.b");
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 0.0);
  while (merger.busy()) merger.step();

  // Both kernels become co-ready at t = 10us — after their own copies —
  // and only then fuse: the pack must not start before the dependency.
  EXPECT_EQ(merger.pack_count(), 1u);
  EXPECT_NEAR(merger.job_start(0), 0.0, kTol);
  EXPECT_NEAR(merger.job_end(0), 110e-6, kTol);
  EXPECT_NEAR(merger.job_end(1), 170e-6 + issue, kTol);
  EXPECT_NEAR(shared.makespan(), 170e-6 + issue, kTol);
}

TEST(PackScheduler, StaggeredReleasesDoNotPack) {
  const sim::GpuSpec spec = sim::GpuSpec::tesla_k20();
  const sim::Timeline a = one_op("gpu", 100e-6, 40e-6);
  const sim::Timeline b = one_op("gpu", 30e-6, 20e-6);

  sim::Timeline shared;
  shared.add_resource("gpu");
  sim::TimelineMerger merger(shared);
  merger.enable_packing(spec);
  merger.add(a, 0.0);
  merger.add(b, 50e-6);  // released mid-flight: feasible starts differ
  while (merger.busy()) merger.step();

  EXPECT_EQ(merger.pack_count(), 0u);
  EXPECT_NEAR(shared.makespan(), 130e-6, kTol);  // FIFO on the engine
}

// ---------------------------------------------------------------------------
// Batch-engine integration.

using Problem = problems::LevenshteinProblem;

Problem make_problem(std::size_t n, std::uint64_t seed) {
  return Problem(problems::random_sequence(n, seed),
                 problems::random_sequence(n, seed + 1));
}

struct EngineRun {
  BatchReport report;
  std::vector<Grid<std::int32_t>> tables;
};

/// Submits the same deterministic request mix and returns report + tables.
EngineRun run_mix(BatchConfig bc, std::size_t requests, int pack_override,
                  Mode force_mode = Mode::kAuto) {
  BatchEngine engine(bc);
  std::vector<std::future<SolveResult<Problem>>> futures;
  for (std::size_t k = 0; k < requests; ++k) {
    RunConfig rc;
    constexpr Mode kMix[] = {Mode::kGpu, Mode::kHeterogeneous,
                             Mode::kCpuParallel};
    rc.mode = force_mode == Mode::kAuto ? kMix[k % 3] : force_mode;
    rc.hetero.t_switch = 8;
    rc.hetero.t_share = 16;
    rc.pack_solves = pack_override;
    rc.tile = k % 2 ? 8 : 0;
    auto f = engine.submit(make_problem(64 + 8 * (k % 4), 7 + k), rc);
    EXPECT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  EngineRun out;
  out.report = engine.wait();
  for (auto& f : futures) out.tables.push_back(f.get().table);
  return out;
}

TEST(PackScheduler, DeterministicAcrossWorkerCounts) {
  BatchConfig bc;
  bc.concurrency = 4;
  bc.threads_per_solve = 2;
  auto with_workers = [&](long long w) {
    BatchConfig c = bc;
    c.worker_threads = w;
    return run_mix(c, 12, /*pack_override=*/-1);
  };
  const EngineRun inline_run = with_workers(0);
  const EngineRun two = with_workers(2);
  const EngineRun eight = with_workers(8);

  EXPECT_GT(inline_run.report.packs, 0u);
  for (const EngineRun* other : {&two, &eight}) {
    // The merged schedule is a pure function of the recorded schedules and
    // the policy: real executor parallelism must not perturb one number.
    EXPECT_DOUBLE_EQ(other->report.sim_makespan,
                     inline_run.report.sim_makespan);
    EXPECT_EQ(other->report.packs, inline_run.report.packs);
    EXPECT_EQ(other->report.packed_ops, inline_run.report.packed_ops);
    EXPECT_DOUBLE_EQ(other->report.pack_saved_seconds,
                     inline_run.report.pack_saved_seconds);
    ASSERT_EQ(other->report.items.size(), inline_run.report.items.size());
    for (std::size_t k = 0; k < inline_run.report.items.size(); ++k) {
      EXPECT_DOUBLE_EQ(other->report.items[k].sim_start,
                       inline_run.report.items[k].sim_start);
      EXPECT_DOUBLE_EQ(other->report.items[k].sim_end,
                       inline_run.report.items[k].sim_end);
      EXPECT_EQ(other->report.items[k].completion_rank,
                inline_run.report.items[k].completion_rank);
    }
    ASSERT_EQ(other->tables.size(), inline_run.tables.size());
    for (std::size_t k = 0; k < inline_run.tables.size(); ++k)
      EXPECT_EQ(other->tables[k], inline_run.tables[k]);
  }
}

TEST(PackScheduler, PackedResultsBitIdenticalToSerial) {
  BatchConfig bc;
  bc.concurrency = 4;
  bc.worker_threads = 4;
  bc.threads_per_solve = 4;  // slots share the engine's executor
  const EngineRun run = run_mix(bc, 12, /*pack_override=*/-1);
  EXPECT_GT(run.report.packs, 0u);
  for (std::size_t k = 0; k < run.tables.size(); ++k) {
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    const auto expected = solve(make_problem(64 + 8 * (k % 4), 7 + k),
                                serial).table;
    EXPECT_EQ(run.tables[k], expected) << "request " << k;
  }
}

TEST(PackScheduler, PackingOnlyImprovesMakespan) {
  BatchConfig bc;
  bc.concurrency = 8;
  bc.worker_threads = 0;
  BatchConfig off = bc;
  off.pack_solves = false;
  const EngineRun packed = run_mix(bc, 16, -1, Mode::kGpu);
  const EngineRun unpacked = run_mix(off, 16, -1, Mode::kGpu);
  EXPECT_GT(packed.report.packs, 0u);
  EXPECT_EQ(unpacked.report.packs, 0u);
  // Rider pricing is clamped at solo cost, so the packed merge can only
  // tighten the schedule.
  EXPECT_LE(packed.report.sim_makespan,
            unpacked.report.sim_makespan + kTol);
  ASSERT_EQ(packed.tables.size(), unpacked.tables.size());
  for (std::size_t k = 0; k < packed.tables.size(); ++k)
    EXPECT_EQ(packed.tables[k], unpacked.tables[k]);
}

TEST(PackScheduler, RunConfigOptOutSuppressesPacking) {
  BatchConfig bc;
  bc.concurrency = 8;
  bc.worker_threads = 0;
  const EngineRun run = run_mix(bc, 12, /*pack_override=*/0, Mode::kGpu);
  EXPECT_EQ(run.report.packs, 0u);
  EXPECT_EQ(run.report.packed_ops, 0u);
  EXPECT_DOUBLE_EQ(run.report.pack_saved_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Cross-solve tuner cache.

TEST(TunerCache, BucketsShapesAndReusesSweeps) {
  TunerCache cache;
  cache.samples_per_sweep = 5;  // keep the test sweep cheap
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;

  bool hit = true;
  const auto first = cache.lookup_or_tune(make_problem(128, 1), cfg, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entries(), 1u);

  // Same problem again: answered from the cache, identical optimum.
  const auto again = cache.lookup_or_tune(make_problem(128, 1), cfg, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.params.t_switch, first.params.t_switch);
  EXPECT_EQ(again.params.t_share, first.params.t_share);
  EXPECT_EQ(again.tile, first.tile);

  // 192 shares 128's floor-log2 bucket: cache hit, no new sweep.
  cache.lookup_or_tune(make_problem(192, 2), cfg, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.entries(), 1u);

  // 256 crosses into the next bucket: a fresh sweep.
  cache.lookup_or_tune(make_problem(256, 3), cfg, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.entries(), 2u);

  EXPECT_EQ(cache.lookups(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(TunerCache, BatchTuneAutoSharesSweeps) {
  BatchConfig bc;
  bc.concurrency = 4;
  bc.worker_threads = 0;
  bc.tune_auto = true;
  BatchEngine engine(bc);
  std::vector<std::future<SolveResult<Problem>>> futures;
  constexpr std::size_t kRequests = 6;
  for (std::size_t k = 0; k < kRequests; ++k) {
    RunConfig rc;
    rc.mode = Mode::kHeterogeneous;  // auto params: t_switch/t_share unset
    auto f = engine.submit(make_problem(96, 11 + k), rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.tuner_lookups, kRequests);
  EXPECT_EQ(rep.tuner_hits, kRequests - 1);  // one sweep, five reuses
  EXPECT_NEAR(rep.tuner_hit_rate,
              static_cast<double>(kRequests - 1) / kRequests, kTol);
  for (std::size_t k = 0; k < kRequests; ++k) {
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    EXPECT_EQ(futures[k].get().table,
              solve(make_problem(96, 11 + k), serial).table);
  }
}

}  // namespace
}  // namespace lddp
