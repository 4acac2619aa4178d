// Unit tests for the deterministic fault-injection & request-lifecycle
// layer: decision purity and replay determinism, every named injection
// site, exception safety of the touched subsystems (quota rollback,
// LaunchGraph unwinding), Timeline cancellation/deadline enforcement, and
// the batch engine's full degradation ladder across all 15 contributing
// sets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/batch_engine.h"
#include "core/chaos.h"
#include "core/framework.h"
#include "problems/synthetic.h"
#include "sim/device.h"
#include "sim/launch_graph.h"
#include "sim/memory.h"
#include "sim/platform.h"
#include "sim/timeline.h"
#include "util/fault_injection.h"

namespace lddp {
namespace {

using fault::FaultPlan;
using fault::FaultScope;
using fault::Site;

// ---------------------------------------------------------------------------
// FaultPlan decision function

TEST(FaultPlan, DecisionsArePure) {
  const FaultPlan plan = FaultPlan::uniform(42, 0.3);
  for (std::uint64_t solve = 0; solve < 16; ++solve) {
    for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
      for (std::uint64_t salt = 0; salt < 8; ++salt) {
        const bool a =
            plan.should_fail(Site::kKernelLaunch, solve, attempt, salt);
        const bool b =
            plan.should_fail(Site::kKernelLaunch, solve, attempt, salt);
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(FaultPlan, RateZeroNeverFailsRateOneAlwaysFails) {
  FaultPlan never = FaultPlan::uniform(7, 0.0);
  FaultPlan always = FaultPlan::uniform(7, 1.0);
  EXPECT_FALSE(never.armed());
  EXPECT_TRUE(always.armed());
  for (std::uint64_t s = 0; s < 100; ++s) {
    EXPECT_FALSE(never.should_fail(Site::kPoolAcquire, s, 0));
    EXPECT_TRUE(always.should_fail(Site::kPoolAcquire, s, 0));
  }
}

TEST(FaultPlan, ObservedFrequencyTracksRate) {
  const FaultPlan plan = FaultPlan::uniform(123, 0.25);
  std::size_t fails = 0;
  constexpr std::size_t kDraws = 20000;
  for (std::uint64_t s = 0; s < kDraws; ++s)
    if (plan.should_fail(Site::kTransferH2D, s, 0)) ++fails;
  const double freq = static_cast<double>(fails) / kDraws;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(FaultPlan, DistinctSitesAndSeedsDecideIndependently) {
  const FaultPlan a = FaultPlan::uniform(1, 0.5);
  const FaultPlan b = FaultPlan::uniform(2, 0.5);
  std::size_t site_diff = 0, seed_diff = 0;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    if (a.should_fail(Site::kTransferH2D, s, 0) !=
        a.should_fail(Site::kTransferD2H, s, 0))
      ++site_diff;
    if (a.should_fail(Site::kTransferH2D, s, 0) !=
        b.should_fail(Site::kTransferH2D, s, 0))
      ++seed_diff;
  }
  EXPECT_GT(site_diff, 300u);  // ~half should differ
  EXPECT_GT(seed_diff, 300u);
}

TEST(FaultPlan, PerSiteRates) {
  FaultPlan plan;
  plan.seed = 9;
  plan.set_rate(Site::kGraphReplay, 1.0);
  EXPECT_TRUE(plan.armed());
  EXPECT_DOUBLE_EQ(plan.rate(Site::kGraphReplay), 1.0);
  EXPECT_DOUBLE_EQ(plan.rate(Site::kKernelLaunch), 0.0);
  EXPECT_TRUE(plan.should_fail(Site::kGraphReplay, 0, 0));
  EXPECT_FALSE(plan.should_fail(Site::kKernelLaunch, 0, 0));
}

// ---------------------------------------------------------------------------
// FaultScope / maybe_throw

TEST(FaultScope, MaybeThrowIsNoopOutsideScope) {
  EXPECT_EQ(fault::current(), nullptr);
  EXPECT_NO_THROW(fault::maybe_throw(Site::kPoolAcquire));
}

TEST(FaultScope, ThrowsInsideArmedScopeAndCarriesIdentity) {
  const FaultPlan plan = FaultPlan::uniform(5, 1.0);
  FaultScope scope(&plan, /*solve=*/3, /*attempt=*/2);
  try {
    fault::maybe_throw(Site::kQuotaAcquire, /*salt=*/11);
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), Site::kQuotaAcquire);
    EXPECT_EQ(e.solve(), 3u);
    EXPECT_EQ(e.attempt(), 2u);
  }
}

TEST(FaultScope, NestsAndRestores) {
  const FaultPlan outer = FaultPlan::uniform(1, 1.0);
  const FaultPlan inner = FaultPlan::uniform(2, 0.0);
  EXPECT_EQ(fault::current(), nullptr);
  {
    FaultScope a(&outer, 1, 0);
    ASSERT_NE(fault::current(), nullptr);
    EXPECT_EQ(fault::current()->plan, &outer);
    {
      FaultScope b(&inner, 2, 1);
      EXPECT_EQ(fault::current()->plan, &inner);
      EXPECT_NO_THROW(fault::maybe_throw(Site::kPoolAcquire));
    }
    EXPECT_EQ(fault::current()->plan, &outer);
    EXPECT_THROW(fault::maybe_throw(Site::kPoolAcquire),
                 fault::InjectedFault);
  }
  EXPECT_EQ(fault::current(), nullptr);
}

// ---------------------------------------------------------------------------
// Injection sites in the simulated platform

TEST(FaultSites, BufferPoolAcquire) {
  sim::BufferPool pool;
  FaultPlan plan;
  plan.set_rate(Site::kPoolAcquire, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(pool.acquire(1024, /*pinned=*/false),
                 fault::InjectedFault);
  }
  // Outside the scope the same acquire succeeds and the pool is intact.
  void* p = pool.acquire(1024, false);
  ASSERT_NE(p, nullptr);
  pool.release(p, 1024, false);
}

TEST(FaultSites, QuotaAcquireAndRollback) {
  sim::BufferPool parent;
  sim::QuotaBufferPool quota(&parent, /*quota_bytes=*/1 << 20);
  FaultPlan plan;
  plan.set_rate(Site::kQuotaAcquire, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(quota.acquire(4096, false), fault::InjectedFault);
  }
  // The failed acquire must not leak outstanding quota bytes (the dtor
  // LDDP_CHECKs outstanding_ == 0 — a leak would std::terminate there).
  EXPECT_EQ(quota.outstanding_bytes(), 0u);
  void* p = quota.acquire(4096, false);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(quota.outstanding_bytes(), 4096u);
  quota.release(p, 4096, false);
  EXPECT_EQ(quota.outstanding_bytes(), 0u);
}

TEST(FaultSites, QuotaRollsBackWhenParentThrows) {
  // The parent's own site fires inside QuotaBufferPool::acquire after the
  // quota was committed; the quota must roll back on the way out.
  sim::BufferPool parent;
  sim::QuotaBufferPool quota(&parent, /*quota_bytes=*/1 << 20);
  FaultPlan plan;
  plan.set_rate(Site::kPoolAcquire, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(quota.acquire(4096, false), fault::InjectedFault);
  }
  EXPECT_EQ(quota.outstanding_bytes(), 0u);
}

TEST(FaultSites, DeviceTransfersAndLaunch) {
  sim::Timeline tl;
  sim::Device dev(sim::GpuSpec::tesla_k20(), tl);
  auto buf = dev.alloc<int>(16);
  std::vector<int> host(16, 1);
  FaultPlan plan;
  const auto stream = dev.default_stream();

  plan = FaultPlan{};
  plan.set_rate(Site::kTransferH2D, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(dev.memcpy_h2d(stream, buf.device_ptr(), host.data(), 16,
                                sim::MemoryKind::kPageable),
                 fault::InjectedFault);
    EXPECT_THROW(dev.record_h2d(stream, 64, sim::MemoryKind::kPageable),
                 fault::InjectedFault);
  }
  plan = FaultPlan{};
  plan.set_rate(Site::kTransferD2H, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(dev.memcpy_d2h(stream, host.data(), buf.device_ptr(), 16,
                                sim::MemoryKind::kPageable),
                 fault::InjectedFault);
    EXPECT_THROW(dev.record_d2h(stream, 64, sim::MemoryKind::kPageable),
                 fault::InjectedFault);
  }
  plan = FaultPlan{};
  plan.set_rate(Site::kKernelLaunch, 1.0);
  {
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(
        dev.launch(stream, sim::KernelInfo{}, 16, [](std::size_t) {}),
        fault::InjectedFault);
  }
  // Disarmed again: the device still works.
  EXPECT_NO_THROW(dev.memcpy_h2d(stream, buf.device_ptr(), host.data(), 16,
                                 sim::MemoryKind::kPageable));
}

TEST(FaultSites, LaunchGraphReplayAndNodes) {
  sim::Timeline tl;
  sim::Device dev(sim::GpuSpec::tesla_k20(), tl);
  FaultPlan plan;
  plan.set_rate(Site::kGraphReplay, 1.0);
  {
    sim::LaunchGraph graph(dev, /*fused=*/true);
    graph.launch(dev.default_stream(), sim::KernelInfo{}, 8,
                 [](std::size_t) {});
    FaultScope scope(&plan, 0, 0);
    EXPECT_THROW(graph.replay(), fault::InjectedFault);
    // The failed replay left the nodes pending; the graph destructor runs
    // outside the scope here and must submit them cleanly.
  }
  EXPECT_GT(tl.op_count(), 0u);

  plan = FaultPlan{};
  plan.set_rate(Site::kKernelLaunch, 1.0);
  sim::LaunchGraph graph(dev, /*fused=*/true);
  FaultScope scope(&plan, 0, 0);
  EXPECT_THROW(graph.launch(dev.default_stream(), sim::KernelInfo{}, 8,
                            [](std::size_t) {}),
               fault::InjectedFault);
}

TEST(FaultSites, LaunchGraphAbandonsDuringUnwinding) {
  // A pending fused graph destroyed while another exception unwinds must
  // abandon its nodes, not replay (replay can throw => std::terminate).
  sim::Timeline tl;
  sim::Device dev(sim::GpuSpec::tesla_k20(), tl);
  const std::size_t before = tl.op_count();
  try {
    sim::LaunchGraph graph(dev, /*fused=*/true);
    graph.launch(dev.default_stream(), sim::KernelInfo{}, 8,
                 [](std::size_t) {});
    throw std::runtime_error("strategy failure mid-phase");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(tl.op_count(), before);  // nothing was replayed
}

// ---------------------------------------------------------------------------
// Timeline cancellation / deadline enforcement

TEST(TimelineControl, CancellationObservedAtRecord) {
  sim::Timeline tl;
  const auto res = tl.add_resource("cpu");
  std::atomic<bool> cancel{false};
  fault::RequestControl control;
  control.cancel = &cancel;
  tl.set_request_control(&control);
  EXPECT_NO_THROW(tl.record(res, 1e-6, {}, "op"));
  cancel.store(true);
  EXPECT_THROW(tl.record(res, 1e-6, {}, "op"), fault::CancelledError);
}

TEST(TimelineControl, DeadlineInSimulatedTime) {
  sim::Timeline tl;
  const auto res = tl.add_resource("cpu");
  fault::RequestControl control;
  control.deadline_s = 1.0;
  tl.set_request_control(&control);
  EXPECT_NO_THROW(tl.record(res, 0.4, {}, "op"));
  EXPECT_NO_THROW(tl.record(res, 0.4, {}, "op"));
  // The op that pushes the simulated makespan past 1.0 s throws.
  EXPECT_THROW(tl.record(res, 0.4, {}, "op"), fault::DeadlineExceededError);
}

TEST(TimelineControl, CopyDropsControl) {
  sim::Timeline tl;
  const auto res = tl.add_resource("cpu");
  fault::RequestControl control;
  control.deadline_s = 0.5;
  tl.set_request_control(&control);
  tl.record(res, 0.1, {}, "op");
  sim::Timeline copy(tl);  // recorded schedules outlive the attempt
  EXPECT_EQ(copy.op_count(), tl.op_count());
  EXPECT_NO_THROW(copy.record(res, 10.0, {}, "op"));  // control not copied
}

// ---------------------------------------------------------------------------
// Batch-engine lifecycle: ladder, replay determinism, structured outcomes

auto make_deps_problem(ContributingSet deps, std::size_t rows,
                       std::size_t cols, std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      rows, cols, deps, salt,
      [deps, salt](std::size_t i, std::size_t j,
                   const Neighbors<std::uint64_t>& nb) {
        std::uint64_t r = salt + i * 1000003 + j * 10007;
        if (deps.has_w()) r = (r << 1) ^ nb.w;
        if (deps.has_nw()) r = (r >> 1) + nb.nw;
        if (deps.has_n()) r = r * 31 + nb.n;
        if (deps.has_ne()) r ^= nb.ne + 0x517cc1b727220a95ULL;
        return r;
      });
}

/// All 15 contributing sets through the full ladder: heavy uniform chaos
/// with a retry budget whose final rung is the injection-free reference —
/// every request must end in a structured success, bit-identical to solo.
TEST(BatchLifecycle, LadderCoversAllContributingSets) {
  BatchConfig bc;
  bc.worker_threads = 0;  // inline => deterministic
  bc.max_retries = 4;
  bc.chaos = FaultPlan::uniform(0xc0ffee, 0.9);
  bc.lane_pack = 0;  // per-solve path; the lane path has its own test
  BatchEngine engine(bc);

  using Problem = decltype(make_deps_problem(ContributingSet(1), 1, 1, 0));
  std::vector<std::future<SolveResult<Problem>>> futures;
  std::vector<Grid<std::uint64_t>> expected;
  for (std::uint8_t bits = 1; bits <= 15; ++bits) {
    const auto p = make_deps_problem(ContributingSet(bits), 40, 40, bits);
    RunConfig rc;
    rc.mode = Mode::kHeterogeneous;  // exercises transfers + launches
    rc.tile = 8;
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    expected.push_back(solve(p, serial).table.to_grid());
    auto f = engine.submit(p, rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 15u);
  EXPECT_EQ(rep.failed_solves, 0u);
  EXPECT_EQ(rep.cancelled_solves, 0u);
  EXPECT_EQ(rep.deadline_solves, 0u);
  std::size_t retried_or_degraded = 0;
  for (std::size_t k = 0; k < 15; ++k) {
    SolveResult<Problem> got;
    ASSERT_NO_THROW(got = futures[k].get()) << "deps bits " << k + 1;
    EXPECT_EQ(got.table.to_grid(), expected[k]) << "deps bits " << k + 1;
    const auto outcome = rep.items[k].outcome;
    EXPECT_TRUE(outcome == chaos::RequestOutcome::kOk ||
                outcome == chaos::RequestOutcome::kRetried ||
                outcome == chaos::RequestOutcome::kDegraded)
        << chaos::to_string(outcome);
    if (outcome != chaos::RequestOutcome::kOk) ++retried_or_degraded;
    EXPECT_EQ(rep.items[k].retries > 0,
              outcome != chaos::RequestOutcome::kOk);
  }
  // Rate 0.9 on every site: it is (overwhelmingly) certain some request
  // exercised the ladder; the assertion is deterministic given the seed.
  EXPECT_GT(retried_or_degraded, 0u);
  EXPECT_EQ(rep.retry_attempts > 0, retried_or_degraded > 0);
}

/// The same seeded batch run twice produces identical outcomes, retry
/// counts, backoff charges and merged timings — replay determinism.
TEST(BatchLifecycle, ChaosReplaysBitIdentically) {
  auto run_once = [] {
    BatchConfig bc;
    bc.worker_threads = 0;
    bc.max_retries = 3;
    bc.chaos = FaultPlan::uniform(0xfeedface, 0.5);
    BatchEngine engine(bc);
    using Problem =
        decltype(make_deps_problem(ContributingSet(1), 1, 1, 0));
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < 12; ++k) {
      const auto p = make_deps_problem(
          ContributingSet(static_cast<std::uint8_t>(1 + k % 15)), 32, 24,
          k);
      RunConfig rc;
      rc.mode = k % 2 == 0 ? Mode::kGpu : Mode::kHeterogeneous;
      auto f = engine.submit(p, rc);
      EXPECT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    return engine.wait();
  };
  const BatchReport a = run_once();
  const BatchReport b = run_once();
  ASSERT_EQ(a.solves, b.solves);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_DOUBLE_EQ(a.sim_makespan, b.sim_makespan);
  for (std::size_t k = 0; k < a.items.size(); ++k) {
    EXPECT_EQ(a.items[k].outcome, b.items[k].outcome) << k;
    EXPECT_EQ(a.items[k].retries, b.items[k].retries) << k;
    EXPECT_EQ(a.items[k].degraded, b.items[k].degraded) << k;
    EXPECT_DOUBLE_EQ(a.items[k].backoff_seconds,
                     b.items[k].backoff_seconds)
        << k;
    EXPECT_DOUBLE_EQ(a.items[k].sim_end, b.items[k].sim_end) << k;
  }
}

/// Zero retry budget: injected faults surface as kFailed with the
/// structured InjectedFault on the future; the engine stays usable.
TEST(BatchLifecycle, NoRetriesMeansStructuredFailure) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.max_retries = 0;
  bc.chaos = FaultPlan::uniform(3, 1.0);  // every site always fails
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  const auto p = make_deps_problem(ContributingSet(0b0110), 32, 32, 1);
  RunConfig rc;
  rc.mode = Mode::kGpu;
  auto f = engine.submit(p, rc);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 1u);
  EXPECT_EQ(rep.failed_solves, 1u);
  EXPECT_EQ(rep.items[0].outcome, chaos::RequestOutcome::kFailed);
  EXPECT_TRUE(rep.items[0].failed);
  EXPECT_THROW(f->get(), fault::InjectedFault);

  // The engine stays usable: the next batch runs and reports normally
  // (chaos is still armed at rate 1 and the GPU path probes transfer and
  // launch sites, so it fails structurally again; a plain serial-CPU
  // solve would touch no site and legitimately succeed).
  auto f2 = engine.submit(p, rc);
  ASSERT_TRUE(f2.has_value());
  const BatchReport rep2 = engine.wait();
  EXPECT_EQ(rep2.failed_solves, 1u);
  EXPECT_THROW(f2->get(), fault::InjectedFault);
}

/// Strip-worker injection: a multi-threaded CPU solve on the engine's
/// executor, armed at the per-morsel kStripWorker site, must propagate any
/// worker exception, retry down the ladder, and still produce
/// bit-identical results. Morsels (and so fault draws) exist only on
/// fronts of at least Platform::kParallelExecThreshold (4096) cells, so the
/// table is a short, wide horizontal one whose every front is a 5000-cell
/// row; the retry count proves the site fired.
TEST(BatchLifecycle, StripWorkerFaultsRetryCleanly) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.threads_per_solve = 4;
  bc.pack_solves = false;
  bc.max_retries = 2;
  bc.chaos = FaultPlan{};
  bc.chaos.seed = 77;
  bc.chaos.set_rate(Site::kStripWorker, 0.6);
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  constexpr std::size_t kCols = 5000;  // > the 4096-cell threshold
  const auto p = make_deps_problem(ContributingSet(0b0110), 12, kCols, 9);
  RunConfig rc;
  rc.mode = Mode::kCpuParallel;
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto expected = solve(p, serial).table.to_grid();
  auto f = engine.submit(p, rc);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 1u);
  EXPECT_EQ(rep.failed_solves, 0u);
  EXPECT_GE(rep.retry_attempts, 1u)
      << "no morsel drew a fault: the test no longer reaches kStripWorker";
  EXPECT_GE(rep.items[0].retries, 1u);
  SolveResult<decltype(make_deps_problem(ContributingSet(1), 1, 1, 0))> got;
  ASSERT_NO_THROW(got = f->get());
  EXPECT_EQ(got.table.to_grid(), expected);
}

/// Retry backoff is service time: a retried request's first op starts no
/// earlier than its slot opening plus the backoff it accumulated, in the
/// merged schedule — alone on an idle platform (where nothing else would
/// hold the op back) and in a mixed chaos batch.
TEST(BatchLifecycle, RetriedRequestsStartAfterBackoff) {
  using Problem = decltype(make_deps_problem(ContributingSet(1), 1, 1, 0));
  auto check = [](const BatchReport& rep, const char* what) {
    std::size_t retried = 0;
    for (const BatchItemStats& item : rep.items) {
      if (item.retries == 0 || item.failed) continue;
      ++retried;
      EXPECT_GT(item.backoff_seconds, 0.0) << what << " item " << item.index;
      EXPECT_GE(item.sim_start, item.sim_dispatch + item.backoff_seconds)
          << what << " item " << item.index;
    }
    EXPECT_GT(retried, 0u) << what << ": no request was retried";
  };
  {
    BatchConfig bc;
    bc.worker_threads = 0;
    bc.threads_per_solve = 4;
    bc.pack_solves = false;
    bc.max_retries = 2;
    bc.chaos = FaultPlan{};
    bc.chaos.seed = 77;
    bc.chaos.set_rate(Site::kStripWorker, 0.6);
    bc.lane_pack = 0;
    BatchEngine engine(bc);
    const auto p = make_deps_problem(ContributingSet(0b0110), 12, 5000, 9);
    RunConfig rc;
    rc.mode = Mode::kCpuParallel;
    auto f = engine.submit(p, rc);
    ASSERT_TRUE(f.has_value());
    check(engine.wait(), "solo");
  }
  {
    BatchConfig bc;
    bc.worker_threads = 0;
    bc.max_retries = 3;
    bc.chaos = FaultPlan::uniform(0xfeedface, 0.5);
    BatchEngine engine(bc);
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < 12; ++k) {
      const auto p = make_deps_problem(
          ContributingSet(static_cast<std::uint8_t>(1 + k % 15)), 32, 24,
          k);
      RunConfig rc;
      rc.mode = k % 2 == 0 ? Mode::kGpu : Mode::kHeterogeneous;
      auto f = engine.submit(p, rc);
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    check(engine.wait(), "batch");
  }
}

/// Lane-cohort injection: a kLaneKernel fault degrades the cohort to
/// per-lane solo execution ("lane->solo") with bit-identical results, on
/// both storage tiers.
TEST(BatchLifecycle, LaneCohortFaultDegradesToSolo) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.chaos = FaultPlan{};
  bc.chaos.seed = 5;
  bc.chaos.set_rate(Site::kLaneKernel, 1.0);
  BatchEngine engine(bc);
  using Problem = decltype(make_deps_problem(ContributingSet(1), 1, 1, 0));
  std::vector<std::future<SolveResult<Problem>>> futures;
  std::vector<Grid<std::uint64_t>> expected;
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  for (std::size_t k = 0; k < 6; ++k) {
    const auto p = make_deps_problem(ContributingSet(0b0110), 48, 48, k);
    expected.push_back(solve(p, serial).table.to_grid());
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    auto f = engine.submit(p, rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 6u);
  EXPECT_EQ(rep.failed_solves, 0u);
  bool any_lane_degrade = false;
  for (std::size_t k = 0; k < 6; ++k) {
    SolveResult<Problem> got;
    ASSERT_NO_THROW(got = futures[k].get()) << k;
    EXPECT_EQ(got.table.to_grid(), expected[k]) << k;
    if (rep.items[k].degraded == "lane->solo") any_lane_degrade = true;
  }
  // Lane eligibility needs SIMD lanes; when the host ISA disables lane
  // packing the cohort never forms and nothing degrades — either way the
  // results above are bit-identical.
  if (rep.lane_cohorts > 0 || rep.lane_packed_solves > 0) {
    EXPECT_TRUE(any_lane_degrade);
  }

  // The same cohort on the frontier tier: the degraded branch re-runs each
  // lane solo and attaches the remat callback, which every cell read
  // below goes through.
  BatchEngine frontier_engine(bc);
  std::vector<std::future<SolveResult<Problem>>> frontier_futures;
  for (std::size_t k = 0; k < 6; ++k) {
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    rc.storage = Storage::kFrontier;
    rc.checkpoint_interval = 5;
    auto f = frontier_engine.submit_frontier(
        make_deps_problem(ContributingSet(0b0110), 48, 48, k), rc);
    ASSERT_TRUE(f.has_value());
    frontier_futures.push_back(std::move(*f));
  }
  const BatchReport frontier_rep = frontier_engine.wait();
  ASSERT_EQ(frontier_rep.solves, 6u);
  EXPECT_EQ(frontier_rep.failed_solves, 0u);
  bool any_frontier_degrade = false;
  for (std::size_t k = 0; k < 6; ++k) {
    SolveResult<Problem> got;
    ASSERT_NO_THROW(got = frontier_futures[k].get()) << k;
    for (std::size_t i = 0; i < 48; ++i)
      for (std::size_t j = 0; j < 48; ++j)
        ASSERT_EQ(got.table.at(i, j), expected[k].at(i, j))
            << k << " cell (" << i << ", " << j << ")";
    if (frontier_rep.items[k].degraded == "lane->solo")
      any_frontier_degrade = true;
  }
  if (frontier_rep.lane_cohorts > 0 || frontier_rep.lane_packed_solves > 0) {
    EXPECT_TRUE(any_frontier_degrade);
  }
}

/// Per-request deadlines in simulated time: an impossible budget times
/// out deterministically with kDeadlineExceeded; a generous one passes.
TEST(BatchLifecycle, SimulatedDeadlines) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  const auto p = make_deps_problem(ContributingSet(0b0011), 256, 256, 2);
  RunConfig rc;
  rc.mode = Mode::kHeterogeneous;

  chaos::RequestOptions tight;
  tight.deadline_ms = 1e-6;  // far below any 256x256 service time
  auto f1 = engine.submit(p, rc, tight);
  ASSERT_TRUE(f1.has_value());
  chaos::RequestOptions loose;
  loose.deadline_ms = 1e9;
  auto f2 = engine.submit(p, rc, loose);
  ASSERT_TRUE(f2.has_value());
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 2u);
  EXPECT_EQ(rep.items[0].outcome, chaos::RequestOutcome::kDeadlineExceeded);
  EXPECT_EQ(rep.deadline_solves, 1u);
  EXPECT_THROW(f1->get(), fault::DeadlineExceededError);
  EXPECT_EQ(rep.items[1].outcome, chaos::RequestOutcome::kOk);
  EXPECT_NO_THROW(f2->get());
}

/// Retry backoff eats the simulated deadline budget: with chaos forcing
/// retries and a deadline smaller than the accumulated backoff, the
/// request ends kDeadlineExceeded instead of retrying forever.
TEST(BatchLifecycle, BackoffCountsAgainstDeadline) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.max_retries = 8;
  bc.retry_backoff_ms = 10.0;
  bc.chaos = FaultPlan::uniform(11, 1.0);
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  const auto p = make_deps_problem(ContributingSet(0b0001), 32, 32, 3);
  RunConfig rc;
  rc.mode = Mode::kGpu;
  chaos::RequestOptions opts;
  opts.deadline_ms = 15.0;  // first backoff (10ms) fits, second (30ms) not
  auto f = engine.submit(p, rc, opts);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.items[0].outcome, chaos::RequestOutcome::kDeadlineExceeded);
  EXPECT_GT(rep.items[0].backoff_seconds, 0.0);
  EXPECT_THROW(f->get(), fault::DeadlineExceededError);
}

/// Pre-submission cancellation is observed before the first attempt runs.
TEST(BatchLifecycle, CancelBeforeRun) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  const auto p = make_deps_problem(ContributingSet(0b0001), 64, 64, 4);
  chaos::CancelSource source;
  source.request_cancel();
  chaos::RequestOptions opts;
  opts.cancel = source.token();
  auto f = engine.submit(p, RunConfig{}, opts);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.items[0].outcome, chaos::RequestOutcome::kCancelled);
  EXPECT_EQ(rep.cancelled_solves, 1u);
  EXPECT_THROW(f->get(), fault::CancelledError);
}

/// BatchConfig defaults flow into requests; per-request options override.
TEST(BatchLifecycle, OptionInheritanceAndOverride) {
  BatchConfig bc;
  bc.worker_threads = 0;
  bc.deadline_ms = 1e-6;  // default: impossibly tight
  bc.lane_pack = 0;
  BatchEngine engine(bc);
  const auto p = make_deps_problem(ContributingSet(0b0011), 128, 128, 5);
  auto f1 = engine.submit(p, RunConfig{});  // inherits the tight default
  chaos::RequestOptions loose;
  loose.deadline_ms = 0.0;  // 0 overrides to "no deadline"
  auto f2 = engine.submit(p, RunConfig{}, loose);
  ASSERT_TRUE(f1.has_value() && f2.has_value());
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.items[0].outcome, chaos::RequestOutcome::kDeadlineExceeded);
  EXPECT_EQ(rep.items[1].outcome, chaos::RequestOutcome::kOk);
}

TEST(ChaosSpecParse, SeedAndRate) {
  const chaos::ChaosSpec a = chaos::ChaosSpec::parse("42");
  EXPECT_EQ(a.seed, 42u);
  EXPECT_DOUBLE_EQ(a.rate, 0.02);
  const chaos::ChaosSpec b = chaos::ChaosSpec::parse("7:0.5");
  EXPECT_EQ(b.seed, 7u);
  EXPECT_DOUBLE_EQ(b.rate, 0.5);
  EXPECT_THROW(chaos::ChaosSpec::parse("nope"), CheckError);
  EXPECT_THROW(chaos::ChaosSpec::parse("1:2.0"), CheckError);
}

}  // namespace
}  // namespace lddp
