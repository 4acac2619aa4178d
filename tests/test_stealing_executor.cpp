// Unit + differential tests for the work-stealing executor
// (cpu/stealing_executor.h): Chase–Lev deque properties under concurrent
// theft, exact-coverage and exception routing of parallel_region, the
// determinism contract (bit-identity to the serial reference across all
// 15 contributing sets, simulated makespans invariant across worker
// counts, per-morsel chaos draws invariant across worker counts and
// steal interleavings), and the batch engine running whole suites on its
// shared executor.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "cpu/stealing_executor.h"
#include "cpu/thread_pool.h"
#include "problems/synthetic.h"
#include "util/fault_injection.h"

namespace lddp {
namespace {

using cpu::StealingExecutor;
using cpu::steal_detail::Task;
using cpu::steal_detail::WorkDeque;
using fault::FaultPlan;
using fault::FaultScope;
using fault::Site;

// ---------------------------------------------------------------------
// WorkDeque unit properties.

TEST(WorkDeque, OwnerPopIsLifo) {
  WorkDeque d;
  for (std::size_t k = 0; k < 5; ++k)
    ASSERT_TRUE(d.push(Task{nullptr, k, k + 1}));
  Task t;
  for (std::size_t k = 5; k-- > 0;) {
    ASSERT_TRUE(d.pop(&t));
    EXPECT_EQ(t.lo, k);
  }
  EXPECT_FALSE(d.pop(&t));
}

TEST(WorkDeque, StealIsFifo) {
  WorkDeque d;
  for (std::size_t k = 0; k < 5; ++k)
    ASSERT_TRUE(d.push(Task{nullptr, k, k + 1}));
  Task t;
  for (std::size_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(d.steal(&t));
    EXPECT_EQ(t.lo, k);
  }
  EXPECT_FALSE(d.steal(&t));
}

TEST(WorkDeque, PushReportsFullInsteadOfGrowing) {
  WorkDeque d(/*log2_capacity=*/2);  // capacity 4
  for (std::size_t k = 0; k < 4; ++k)
    ASSERT_TRUE(d.push(Task{nullptr, k, k + 1}));
  EXPECT_FALSE(d.push(Task{nullptr, 4, 5}));
  Task t;
  ASSERT_TRUE(d.pop(&t));
  EXPECT_TRUE(d.push(Task{nullptr, 4, 5}));
}

TEST(WorkDeque, MixedPopStealDrainsExactly) {
  WorkDeque d;
  Task t;
  // Interleave pushes with pops and steals from the owner side; every
  // pushed task must come out exactly once.
  std::vector<int> seen(100, 0);
  std::size_t pushed = 0, claimed = 0;
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 10; ++k)
      ASSERT_TRUE(d.push(Task{nullptr, pushed++, pushed}));
    if (round % 2 == 0) {
      ASSERT_TRUE(d.pop(&t));
    } else {
      ASSERT_TRUE(d.steal(&t));
    }
    ++seen[t.lo];
    ++claimed;
  }
  while (d.pop(&t)) {
    ++seen[t.lo];
    ++claimed;
  }
  EXPECT_EQ(claimed, pushed);
  for (std::size_t k = 0; k < pushed; ++k) EXPECT_EQ(seen[k], 1) << k;
}

/// Owner pushes (popping on overflow) while thieves hammer steal: every
/// task is claimed exactly once across all participants, and nothing is
/// lost or duplicated — the single-element pop/steal CAS race included.
TEST(WorkDeque, ConcurrentStealStress) {
  constexpr std::size_t kTasks = 200000;
  constexpr int kThieves = 3;
  WorkDeque d;
  std::vector<std::atomic<std::uint8_t>> claims(kTasks);
  for (auto& c : claims) c.store(0);
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int w = 0; w < kThieves; ++w) {
    thieves.emplace_back([&] {
      Task t;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(&t)) claims[t.lo].fetch_add(1);
      }
      while (d.steal(&t)) claims[t.lo].fetch_add(1);
    });
  }
  Task t;
  for (std::size_t k = 0; k < kTasks; ++k) {
    while (!d.push(Task{nullptr, k, k + 1})) {
      if (d.pop(&t)) claims[t.lo].fetch_add(1);
    }
    if (k % 7 == 0 && d.pop(&t)) claims[t.lo].fetch_add(1);
  }
  while (d.pop(&t)) claims[t.lo].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  for (std::size_t k = 0; k < kTasks; ++k)
    ASSERT_EQ(claims[k].load(), 1u) << "task " << k;
}

// ---------------------------------------------------------------------
// parallel_region execution properties.

TEST(StealingExecutor, CoversRangeExactlyOnce) {
  StealingExecutor exec(3);
  constexpr std::size_t kN = 300000;
  std::vector<std::atomic<std::uint8_t>> counts(kN);
  for (auto& c : counts) c.store(0);
  exec.parallel_region(0, kN, 1024, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(counts[i].load(), 1u) << "cell " << i;
}

TEST(StealingExecutor, WorkerlessExecutorRunsInlineAsOneCall) {
  StealingExecutor exec(0);
  EXPECT_EQ(exec.size(), 1u);
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  exec.parallel_region(5, 100000, 0, [&](std::size_t lo, std::size_t hi) {
    calls.emplace_back(lo, hi);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 5u);
  EXPECT_EQ(calls[0].second, 100000u);
}

TEST(StealingExecutor, ShortRegionStaysSingleTask) {
  StealingExecutor exec(2);
  std::atomic<int> calls{0};
  // Range no larger than one (clamped) grain: one inline body call.
  exec.parallel_region(0, StealingExecutor::kMinGrain, 0,
                       [&](std::size_t lo, std::size_t hi) {
                         EXPECT_EQ(lo, 0u);
                         EXPECT_EQ(hi, StealingExecutor::kMinGrain);
                         calls.fetch_add(1);
                       });
  EXPECT_EQ(calls.load(), 1);
}

/// Item regions (tile loops) have no cell floor: on an executor with
/// workers, an 8-item region splits into exactly 8 single-item morsels.
TEST(StealingExecutor, ItemRegionSplitsToSingleItems) {
  StealingExecutor exec(3);
  std::vector<std::atomic<int>> calls(8);
  std::atomic<int> morsels{0};
  exec.parallel_items(0, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(hi, lo + 1);
    calls[lo].fetch_add(1);
    morsels.fetch_add(1);
  });
  EXPECT_EQ(morsels.load(), 8);
  for (auto& c : calls) EXPECT_EQ(c.load(), 1);
}

TEST(StealingExecutor, RethrowsFirstBodyException) {
  StealingExecutor exec(2);
  constexpr std::size_t kN = 100000;
  EXPECT_THROW(
      exec.parallel_region(0, kN, 1024,
                           [&](std::size_t lo, std::size_t hi) {
                             if (lo <= 54321 && 54321 < hi)
                               throw std::runtime_error("boom");
                           }),
      std::runtime_error);
  // The executor survives an exceptional region and runs the next one.
  std::atomic<std::size_t> cells{0};
  exec.parallel_region(0, kN, 1024, [&](std::size_t lo, std::size_t hi) {
    cells.fetch_add(hi - lo);
  });
  EXPECT_EQ(cells.load(), kN);
}

/// Several masters submit concurrently to one executor — the shared-
/// substrate regime of the batch engine. Every region must cover its own
/// range exactly once even while workers drain foreign regions.
TEST(StealingExecutor, ConcurrentMastersShareOneExecutor) {
  StealingExecutor exec(2);
  constexpr std::size_t kMasters = 4;
  constexpr std::size_t kN = 150000;
  std::vector<std::vector<std::atomic<std::uint8_t>>> counts(kMasters);
  for (auto& v : counts) {
    std::vector<std::atomic<std::uint8_t>> fresh(kN);
    for (auto& c : fresh) c.store(0);
    v.swap(fresh);
  }
  std::vector<std::thread> masters;
  for (std::size_t m = 0; m < kMasters; ++m) {
    masters.emplace_back([&, m] {
      for (int rep = 0; rep < 3; ++rep) {
        exec.parallel_region(0, kN, 2048,
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i)
                                 counts[m][i].fetch_add(1);
                             });
      }
    });
  }
  for (auto& t : masters) t.join();
  for (std::size_t m = 0; m < kMasters; ++m)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(counts[m][i].load(), 3u) << "master " << m << " cell " << i;
}

// ---------------------------------------------------------------------
// Chaos determinism: the per-morsel kStripWorker draw is a pure function
// of (plan, solve, attempt, region ordinal, morsel offset) — never of
// worker count or steal interleaving.

/// Whether one armed region throws, under a fresh FaultScope (region
/// ordinals reset, as the batch engine does per attempt).
bool armed_region_throws(StealingExecutor& exec, const FaultPlan& plan,
                         std::uint64_t attempt) {
  FaultScope scope(&plan, /*solve=*/7, attempt);
  try {
    exec.parallel_region(0, 100000, 1024, [](std::size_t, std::size_t) {});
  } catch (const fault::InjectedFault&) {
    return true;
  }
  return false;
}

TEST(StealingChaos, MorselFaultsIndependentOfWorkerCount) {
  FaultPlan plan;
  plan.seed = 99;
  // ~98 morsels per region: a 1% rate makes throw-vs-complete genuinely
  // vary across attempts instead of saturating at "always throws".
  plan.set_rate(Site::kStripWorker, 0.01);
  // Fixed grain => identical morsel sets => identical fault schedules on
  // every executor with at least one worker, on every repetition.
  StealingExecutor one(1), four(4), sixteen(16);
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    const bool expected = armed_region_throws(one, plan, attempt);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(armed_region_throws(four, plan, attempt), expected)
          << "attempt " << attempt;
      EXPECT_EQ(armed_region_throws(sixteen, plan, attempt), expected)
          << "attempt " << attempt;
    }
  }
}

TEST(StealingChaos, RateEndpointsAreCertainties) {
  StealingExecutor exec(2);
  FaultPlan always;
  always.seed = 3;
  always.set_rate(Site::kStripWorker, 1.0);
  EXPECT_TRUE(armed_region_throws(exec, always, 0));
  FaultPlan never;
  never.seed = 3;  // rate stays 0
  EXPECT_FALSE(armed_region_throws(exec, never, 0));
}

/// A faulted attempt retries cleanly: disarm (the ladder's reference
/// rung) and the same region completes with full coverage — no cell lost
/// to the aborted attempt's partial execution.
TEST(StealingChaos, FaultedRegionRetriesCleanly) {
  StealingExecutor exec(4);
  constexpr std::size_t kN = 200000;
  FaultPlan plan;
  plan.seed = 41;
  plan.set_rate(Site::kStripWorker, 0.7);
  std::vector<std::atomic<std::uint8_t>> counts(kN);
  auto attempt_once = [&](const FaultPlan* p, std::uint64_t attempt) {
    for (auto& c : counts) c.store(0);
    FaultScope scope(p, /*solve=*/1, attempt);
    exec.parallel_region(0, kN, 1024, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
    });
  };
  bool threw = false;
  try {
    attempt_once(&plan, 0);
  } catch (const fault::InjectedFault&) {
    threw = true;
  }
  EXPECT_TRUE(threw);  // rate 0.7 over ~200 morsels: certain in practice
  attempt_once(nullptr, 1);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(counts[i].load(), 1u) << "cell " << i;
}

// ---------------------------------------------------------------------
// Determinism contract at the framework level.

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

/// All 15 contributing sets, ragged and degenerate shapes included, must
/// be bit-identical between the stealing substrate and the serial
/// reference. The 48 x 8192 shape matters: rows wide enough that
/// horizontal-pattern fronts actually cross the parallel-dispatch
/// threshold and reach the executor.
TEST(StealingDifferential, BitIdenticalAcrossAllContributingSets) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {40, 40}, {1, 300}, {300, 1}, {48, 8192}};
  for (std::uint8_t bits = 1; bits <= 15; ++bits) {
    for (const auto& [rows, cols] : shapes) {
      const auto p =
          make_deps_problem(ContributingSet(bits), rows, cols, bits);
      RunConfig serial;
      serial.mode = Mode::kCpuSerial;
      const auto expected = solve(p, serial).table;
      RunConfig stealing;
      stealing.mode = Mode::kCpuParallel;
      stealing.pool = &cpu::shared_stealing_pool();
      EXPECT_EQ(solve(p, stealing).table, expected)
          << "deps bits " << int(bits) << " shape " << rows << "x" << cols;
    }
  }
}

/// The heterogeneous mode (transfers, tiles, launches) through the
/// stealing substrate: same bits as serial.
TEST(StealingDifferential, HeterogeneousModeBitIdentical) {
  for (std::uint8_t bits : {0b0001, 0b0111, 0b1111}) {
    const auto p = make_deps_problem(ContributingSet(bits), 96, 96, bits);
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    const auto expected = solve(p, serial).table;
    RunConfig stealing;
    stealing.mode = Mode::kHeterogeneous;
    stealing.tile = 8;
    stealing.pool = &cpu::shared_stealing_pool();
    EXPECT_EQ(solve(p, stealing).table, expected) << "deps bits "
                                                  << int(bits);
  }
}

/// Simulated makespans come from the cost models on the master, never
/// from real execution: the same solve must report the same sim_seconds
/// on executors with 0, 3 and 15 workers — and on no pool at all.
TEST(StealingDifferential, MakespanInvariantAcrossWorkerCounts) {
  const auto p =
      make_deps_problem(ContributingSet({Dep::kN}), 48, 8192, 5);
  RunConfig inline_cfg;
  inline_cfg.mode = Mode::kCpuParallel;
  const SolveStats base = solve(p, inline_cfg).stats;
  ASSERT_GT(base.sim_seconds, 0.0);
  for (const std::size_t workers : {0u, 3u, 15u}) {
    StealingExecutor exec(workers);
    cpu::ThreadPool pool(&exec);
    RunConfig cfg;
    cfg.mode = Mode::kCpuParallel;
    cfg.pool = &pool;
    const SolveStats stats = solve(p, cfg).stats;
    EXPECT_EQ(stats.sim_seconds, base.sim_seconds) << workers << " workers";
    EXPECT_EQ(stats.fronts, base.fronts) << workers << " workers";
  }
}

/// The batch engine on its executor (threads_per_solve > 1): all 15
/// sets bit-identical to solo serial, plus one big-front solve that
/// actually dispatches.
TEST(StealingBatch, DifferentialAcrossAllContributingSets) {
  BatchConfig bc;
  bc.threads_per_solve = 2;
  bc.worker_threads = 2;
  BatchEngine engine(bc);
  using Problem = decltype(make_deps_problem(ContributingSet(1), 1, 1, 0));
  std::vector<std::future<SolveResult<Problem>>> futures;
  std::vector<Grid<std::uint64_t>> expected;
  for (std::uint8_t bits = 1; bits <= 15; ++bits) {
    const std::size_t rows = bits == 4 ? 48 : 64;
    const std::size_t cols = bits == 4 ? 8192 : 64;
    const auto p = make_deps_problem(ContributingSet(bits), rows, cols, bits);
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    expected.push_back(solve(p, serial).table);
    RunConfig rc;
    rc.mode = Mode::kCpuParallel;
    auto f = engine.submit(p, rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 15u);
  EXPECT_EQ(rep.failed_solves, 0u);
  for (std::size_t k = 0; k < 15; ++k) {
    SolveResult<Problem> got;
    ASSERT_NO_THROW(got = futures[k].get()) << "deps bits " << k + 1;
    EXPECT_EQ(got.table, expected[k]) << "deps bits " << k + 1;
  }
}

TEST(StealingConfig, IdleSpinBudgetIsPositive) {
  // LDDP_SPIN_US is read once per process; unset (the test environment)
  // must resolve to the historical 4096-iteration constant.
  EXPECT_GT(cpu::idle_spin_iters(), 0);
}

}  // namespace
}  // namespace lddp
