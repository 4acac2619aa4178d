// Unit tests for the batched multi-solve engine: admission control,
// scheduler policy ordering, buffer quotas, deterministic replay, and the
// ThreadPool master arbitration that makes concurrent solves safe.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "cpu/thread_pool.h"
#include "problems/synthetic.h"
#include "sim/memory.h"

namespace lddp {
namespace {

/// A small deterministic problem whose value mixes all four neighbours.
auto make_case(std::size_t side, std::uint64_t salt = 7) {
  return problems::make_function_problem<std::uint64_t>(
      side, side, ContributingSet(0b1111), salt,
      [salt](std::size_t i, std::size_t j,
             const Neighbors<std::uint64_t>& nb) {
        return (nb.w << 1) ^ (nb.nw + salt) ^ (nb.n * 31) ^ nb.ne ^
               (i * 1000003 + j);
      });
}

/// Inline-execution config: no worker threads, so real execution order is
/// fully deterministic (tests drive everything from this thread).
BatchConfig inline_config() {
  BatchConfig bc;
  bc.worker_threads = 0;
  return bc;
}

TEST(BatchEngine, BitIdenticalToSolo) {
  const auto p = make_case(48);
  RunConfig rc;
  rc.mode = Mode::kHeterogeneous;
  const auto solo = solve(p, rc);

  BatchEngine engine(inline_config());
  auto f = engine.submit(p, rc);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  const auto got = f->get();

  EXPECT_EQ(got.table, solo.table);
  ASSERT_EQ(rep.solves, 1u);
  // The request's solo makespan is preserved in the report, and a batch of
  // one has nothing to overlap with: makespan == solo makespan.
  EXPECT_DOUBLE_EQ(rep.items[0].solve.sim_seconds, solo.stats.sim_seconds);
  EXPECT_NEAR(rep.sim_makespan, solo.stats.sim_seconds,
              1e-12 + solo.stats.sim_seconds * 1e-9);
}

TEST(BatchEngine, RejectWhenQueueFull) {
  BatchConfig bc = inline_config();
  bc.queue_capacity = 1;
  bc.admission = BatchAdmission::kReject;
  BatchEngine engine(bc);

  auto f1 = engine.submit(make_case(8), RunConfig{});
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(engine.pending(), 1u);
  auto f2 = engine.submit(make_case(8), RunConfig{});
  EXPECT_FALSE(f2.has_value());  // shed, not queued

  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.solves, 1u);
  EXPECT_NO_THROW(f1->get());

  // The engine is reusable after wait().
  auto f3 = engine.submit(make_case(8), RunConfig{});
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(engine.wait().solves, 1u);
}

TEST(BatchEngine, WaitAdmissionAppliesBackpressure) {
  BatchConfig bc = inline_config();
  bc.queue_capacity = 1;
  bc.admission = BatchAdmission::kWait;
  BatchEngine engine(bc);

  // With no worker threads the blocked submitter drains the queue itself,
  // so every request is eventually admitted.
  std::vector<std::future<SolveResult<decltype(make_case(8))>>> futures;
  for (int k = 0; k < 4; ++k) {
    auto f = engine.submit(make_case(8, 100 + k), RunConfig{});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.solves, 4u);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(BatchEngine, FifoDispatchesInSubmissionOrder) {
  BatchConfig bc = inline_config();
  bc.sched = BatchSched::kFifo;
  bc.concurrency = 1;
  BatchEngine engine(bc);
  engine.submit(make_case(40), RunConfig{});  // big first
  engine.submit(make_case(8), RunConfig{});   // small second
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 2u);
  EXPECT_EQ(rep.items[0].dispatch_rank, 0u);
  EXPECT_EQ(rep.items[1].dispatch_rank, 1u);
  EXPECT_EQ(rep.items[0].completion_rank, 0u);
  EXPECT_EQ(rep.items[1].completion_rank, 1u);
}

TEST(BatchEngine, SjfDispatchesCheaperFirst) {
  BatchConfig bc = inline_config();
  bc.sched = BatchSched::kSjf;
  bc.concurrency = 1;
  BatchEngine engine(bc);
  engine.submit(make_case(40), RunConfig{});  // big first
  engine.submit(make_case(8), RunConfig{});   // small second
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 2u);
  EXPECT_GT(rep.items[0].est_seconds, rep.items[1].est_seconds);
  EXPECT_EQ(rep.items[1].dispatch_rank, 0u);  // cheaper one goes first
  EXPECT_EQ(rep.items[0].dispatch_rank, 1u);
  EXPECT_EQ(rep.items[1].completion_rank, 0u);
  EXPECT_LT(rep.items[1].sim_end, rep.items[0].sim_end);
}

TEST(BatchEngine, WfqRespectsWeights) {
  BatchConfig bc = inline_config();
  bc.sched = BatchSched::kWfq;
  bc.concurrency = 1;
  BatchEngine engine(bc);
  // Same size, so est/weight is decided purely by the weights.
  engine.submit(make_case(16, 1), RunConfig{}, /*weight=*/1.0);
  engine.submit(make_case(16, 2), RunConfig{}, /*weight=*/8.0);
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 2u);
  EXPECT_EQ(rep.items[1].dispatch_rank, 0u);  // heavier weight first
  EXPECT_EQ(rep.items[0].dispatch_rank, 1u);

  // Equal weights fall back to submission order.
  engine.submit(make_case(16, 3), RunConfig{}, 2.0);
  engine.submit(make_case(16, 4), RunConfig{}, 2.0);
  const BatchReport tie = engine.wait();
  EXPECT_EQ(tie.items[0].dispatch_rank, 0u);
  EXPECT_EQ(tie.items[1].dispatch_rank, 1u);
}

TEST(BatchEngine, QuotaPoolFallsBackToHeapOverQuota) {
  sim::BufferPool parent;
  {
    sim::QuotaBufferPool quota(&parent, 100);
    void* a = quota.acquire(64, /*pinned=*/false);
    EXPECT_EQ(quota.outstanding_bytes(), 64u);
    EXPECT_EQ(quota.over_quota_count(), 0u);
    void* b = quota.acquire(64, /*pinned=*/false);  // 128 > 100: heap
    EXPECT_EQ(quota.outstanding_bytes(), 64u);
    EXPECT_EQ(quota.over_quota_count(), 1u);
    quota.release(b, 64, false);
    quota.release(a, 64, false);
    EXPECT_EQ(quota.outstanding_bytes(), 0u);
  }
  // Only the in-quota arena was borrowed from (and returned to) the parent.
  EXPECT_EQ(parent.cached_arenas(), 1u);
}

TEST(BatchEngine, ZeroQuotaIsUnlimitedPassThrough) {
  sim::BufferPool parent;
  sim::QuotaBufferPool quota(&parent, 0);
  void* a = quota.acquire(1 << 20, false);
  EXPECT_EQ(quota.over_quota_count(), 0u);
  quota.release(a, 1 << 20, false);
  EXPECT_EQ(parent.cached_arenas(), 1u);
}

TEST(BatchEngine, TinyBufferQuotaKeepsResultsIdentical) {
  const auto p = make_case(32);
  RunConfig rc;
  rc.mode = Mode::kGpu;  // exercises device/pinned buffer acquisition
  const auto solo = solve(p, rc);

  BatchConfig bc = inline_config();
  bc.buffer_quota_bytes = 1;  // everything over-quota -> plain heap
  BatchEngine engine(bc);
  auto f = engine.submit(p, rc);
  ASSERT_TRUE(f.has_value());
  engine.wait();
  EXPECT_EQ(f->get().table, solo.table);
}

TEST(BatchEngine, ConcurrencyOneMatchesSerialSum) {
  BatchConfig bc = inline_config();
  bc.concurrency = 1;
  BatchEngine engine(bc);
  for (int k = 0; k < 3; ++k) {
    RunConfig rc;
    rc.mode = k == 0 ? Mode::kCpuParallel
              : k == 1 ? Mode::kGpu
                       : Mode::kHeterogeneous;
    engine.submit(make_case(24, 50 + k), rc);
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 3u);
  // One slot: solves run back to back — the merged makespan reproduces the
  // one-at-a-time regime.
  EXPECT_NEAR(rep.sim_makespan, rep.serial_sim_seconds,
              rep.serial_sim_seconds * 1e-9);
  EXPECT_NEAR(rep.speedup, 1.0, 1e-6);
}

TEST(BatchEngine, OverlapBeatsSerialWithMixedModes) {
  BatchConfig bc = inline_config();
  bc.concurrency = 4;
  BatchEngine engine(bc);
  // CPU-only and GPU-heavy solves use disjoint simulated resources, so
  // four slots must overlap them: makespan strictly below the serial sum.
  for (int k = 0; k < 4; ++k) {
    RunConfig rc;
    rc.mode = (k % 2 == 0) ? Mode::kCpuParallel : Mode::kGpu;
    engine.submit(make_case(32, 80 + k), rc);
  }
  const BatchReport rep = engine.wait();
  EXPECT_LT(rep.sim_makespan, rep.serial_sim_seconds);
  EXPECT_GT(rep.speedup, 1.0);
}

/// Runs one fixed mixed batch and returns its report.
BatchReport run_replay_batch(long long worker_threads) {
  BatchConfig bc;
  bc.worker_threads = worker_threads;
  bc.concurrency = 2;
  bc.sched = BatchSched::kSjf;
  BatchEngine engine(bc);
  const std::size_t sides[] = {40, 12, 28, 20};
  for (int k = 0; k < 4; ++k) {
    RunConfig rc;
    rc.mode = (k % 2 == 0) ? Mode::kHeterogeneous : Mode::kGpu;
    engine.submit(make_case(sides[k], 900 + k), rc, 1.0 + k % 2);
  }
  return engine.wait();
}

TEST(BatchEngine, DeterministicReplayAcrossWorkerCounts) {
  // The merged schedule is a pure function of the recorded schedules and
  // the policy: real-thread interleaving (0 vs 3 workers) must not change
  // makespan, latencies, or ordering. Bitwise equality is intentional.
  const BatchReport a = run_replay_batch(/*worker_threads=*/0);
  const BatchReport b = run_replay_batch(/*worker_threads=*/3);
  const BatchReport c = run_replay_batch(/*worker_threads=*/3);
  ASSERT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.sim_makespan, b.sim_makespan);
  EXPECT_EQ(b.sim_makespan, c.sim_makespan);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  for (std::size_t j = 0; j < a.items.size(); ++j) {
    EXPECT_EQ(a.items[j].dispatch_rank, b.items[j].dispatch_rank) << j;
    EXPECT_EQ(a.items[j].completion_rank, b.items[j].completion_rank) << j;
    EXPECT_EQ(a.items[j].sim_start, b.items[j].sim_start) << j;
    EXPECT_EQ(a.items[j].sim_end, b.items[j].sim_end) << j;
  }
}

TEST(BatchEngine, FailedSolveSurfacesOnFutureOnly) {
  const auto good = make_case(16);
  const auto bad = problems::make_function_problem<std::uint64_t>(
      12, 12, ContributingSet(0b0001), std::uint64_t{0},
      [](std::size_t i, std::size_t j, const Neighbors<std::uint64_t>&)
          -> std::uint64_t {
        if (i == 5 && j == 5) throw std::runtime_error("injected failure");
        return i + j;
      });

  BatchEngine engine(inline_config());
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  auto fg = engine.submit(good, RunConfig{});
  auto fb = engine.submit(bad, serial);
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 2u);
  EXPECT_FALSE(rep.items[0].failed);
  EXPECT_TRUE(rep.items[1].failed);
  EXPECT_NO_THROW(fg->get());
  EXPECT_THROW(fb->get(), std::runtime_error);
  // A failed solve recorded no schedule; the good one still defines the
  // makespan.
  EXPECT_GT(rep.sim_makespan, 0.0);
}

TEST(BatchEngine, EmptyBatchReportsZero) {
  BatchEngine engine(inline_config());
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.solves, 0u);
  EXPECT_EQ(rep.sim_makespan, 0.0);
}

/// Two threads driving one pool at once: their regions interleave on the
/// executor's workers and each still covers its own range exactly once.
TEST(BatchEngine, ConcurrentDriversOnOnePoolStayCorrect) {
  cpu::ThreadPool pool(2);
  std::vector<std::uint64_t> out_a(256, 0), out_b(256, 0);
  auto drive = [&pool](std::vector<std::uint64_t>& out) {
    for (int round = 0; round < 50; ++round)
      pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] += 1; });
  };
  std::thread ta(drive, std::ref(out_a));
  std::thread tb(drive, std::ref(out_b));
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(out_a[i], 50u) << i;
    ASSERT_EQ(out_b[i], 50u) << i;
  }
}

}  // namespace
}  // namespace lddp
