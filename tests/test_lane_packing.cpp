// Inter-solve SIMD lane packing: cohorts of same-class batched solves run
// in vector lockstep, one lane per solve. These tests pin the contract on
// both storage tiers (submit and submit_frontier) — lane-packed tables are
// bit-identical to solo serial solves across every contributing set,
// ragged and degenerate shapes, cohort sizes, and ISA dispatch tiers — and
// check cohort formation, eligibility gating, and the BatchReport lane
// counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/lane_kernels.h"
#include "core/pattern.h"
#include "problems/checkerboard.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/max_square.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace lddp {
namespace {

std::string rand_str(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, 'a');
  for (auto& c : s) c = static_cast<char>('a' + rng.uniform_int(0, 3));
  return s;
}

BatchConfig lane_config(long long lane_pack = -1, std::size_t workers = 0) {
  BatchConfig bc;
  bc.worker_threads = workers;
  bc.concurrency = 8;
  bc.queue_capacity = 64;
  bc.lane_pack = lane_pack;
  return bc;
}

/// Submits every problem as a serial-CPU request on both storage tiers —
/// submit(), and submit_frontier() with checkpoints every 3 rows, each
/// tier on its own engine — drains both batches, and checks each table
/// against the solo full solve bit for bit (every cell of a frontier table
/// through at(), so interior rows come back through remat). The frontier
/// tier has no lane cell cap: every request is lane-eligible there unless
/// lane packing is off. Returns the full-tier report for counter
/// assertions; `frontier_rep`, if set, receives the frontier one.
template <typename P>
BatchReport expect_lane_identical(const std::vector<P>& probs,
                                  long long lane_pack = -1,
                                  std::size_t workers = 0,
                                  BatchReport* frontier_rep = nullptr) {
  BatchEngine engine(lane_config(lane_pack, workers));
  BatchEngine frontier_engine(lane_config(lane_pack, workers));
  std::vector<std::future<SolveResult<P>>> futs;
  std::vector<std::future<SolveResult<P>>> frontier_futs;
  for (const P& p : probs) {
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    auto f = engine.submit(P(p), rc);
    EXPECT_TRUE(f.has_value());
    futs.push_back(std::move(*f));
    rc.storage = Storage::kFrontier;
    rc.checkpoint_interval = 3;
    auto ff = frontier_engine.submit_frontier(P(p), rc);
    EXPECT_TRUE(ff.has_value());
    frontier_futs.push_back(std::move(*ff));
  }
  const BatchReport rep = engine.wait();
  const BatchReport frontier = frontier_engine.wait();
  EXPECT_EQ(frontier.lane_eligible_solves,
            lane_pack == 0 ? 0u : probs.size());
  for (std::size_t k = 0; k < probs.size(); ++k) {
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    const auto want = solve(probs[k], rc);
    EXPECT_EQ(futs[k].get().table.to_grid(), want.table.to_grid())
        << "lane " << k << " of " << probs.size() << " diverged";
    const auto got = frontier_futs[k].get();
    bool same = true;
    for (std::size_t i = 0; i < want.table.rows() && same; ++i)
      for (std::size_t j = 0; j < want.table.cols() && same; ++j)
        same = got.table.at(i, j) == want.table.at(i, j);
    EXPECT_TRUE(same) << "frontier lane " << k << " of " << probs.size()
                      << " diverged";
  }
  if (frontier_rep != nullptr) *frontier_rep = frontier;
  return rep;
}

// Every contributing set, cohort sizes 2/3/4/8, ragged shapes. Function
// problems carry no LaneTraits, so cohorts form in the engine but execute
// on the per-lane fallback — this pins the grouping/retire machinery
// independently of the vector kernels.
TEST(LanePacking, AllContributingSetsAllCohortSizes) {
  for (int set = 0; set < kNumContributingSets; ++set) {
    const ContributingSet deps = contributing_set_by_index(set);
    // Single call site so every cohort member shares one problem type (the
    // engine keys cohorts on the concrete type plus deps/shape/mode).
    const auto make = [deps](std::size_t rows, std::size_t cols) {
      return problems::make_function_problem(
          rows, cols, deps, std::int64_t{0},
          [deps](std::size_t i, std::size_t j,
                 const Neighbors<std::int64_t>& nb) {
            // Unsigned, so the mixing wraps instead of overflowing.
            using U = std::uint64_t;
            U r = i * 31 + j;
            if (deps.has_w()) r ^= static_cast<U>(nb.w);
            if (deps.has_nw()) r += static_cast<U>(nb.nw) + 1;
            if (deps.has_n()) r ^= static_cast<U>(nb.n) << 1;
            if (deps.has_ne()) r -= static_cast<U>(nb.ne);
            return static_cast<std::int64_t>(r);
          });
    };
    for (std::size_t cohort : {2u, 3u, 4u, 8u}) {
      std::vector<decltype(make(1, 1))> probs;
      for (std::size_t k = 0; k < cohort; ++k)
        probs.push_back(make(18 + 3 * k, 27 - 2 * k));
      const BatchReport rep = expect_lane_identical(probs);
      EXPECT_EQ(rep.lane_eligible_solves, cohort)
          << "set " << set << " cohort " << cohort;
    }
  }
}

// The vector-kernel problem families, ragged cohorts: same shape bucket,
// distinct sides, so shorter lanes retire early and per-lane remainders
// finish rows and trailing columns.
TEST(LanePacking, KernelFamiliesRaggedBitIdentical) {
  {
    std::vector<problems::LevenshteinProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(rand_str(60 + 5 * k, 2 * k + 1),
                     rand_str(90 - 4 * k, 2 * k + 2));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::LcsProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(rand_str(45 + k, 30 + k), rand_str(70 - 3 * k, 40 + k));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::CheckerboardProblem> v;
    v.emplace_back(problems::random_cost_board(24, 31, 1));
    v.emplace_back(problems::random_cost_board(31, 24, 2));
    v.emplace_back(problems::random_cost_board(27, 27, 3));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::SeamCarveProblem> v;
    v.emplace_back(problems::random_input_grid(20, 26, 4, 0, 255));
    v.emplace_back(problems::random_input_grid(26, 20, 5, 0, 255));
    v.emplace_back(problems::random_input_grid(23, 23, 6, 0, 255));
    v.emplace_back(problems::random_input_grid(21, 25, 7, 0, 255));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::MaxSquareProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(problems::random_bit_grid(25 + k, 35 - k, 10 + k));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::MinNwNProblem> v;
    v.emplace_back(29, 35, 3);
    v.emplace_back(35, 29, 5);
    v.emplace_back(31, 31, 7);
    expect_lane_identical(v);
  }
  {
    std::vector<problems::MaxNwProblem> v;
    v.emplace_back(problems::random_input_grid(22, 24, 8), 2);
    v.emplace_back(problems::random_input_grid(24, 22, 9), 4);
    expect_lane_identical(v);
  }
}

// Larger ragged cohort in one shape bucket (rows/cols in [257, 511]):
// lanes retire across many rows, and the lockstep region is bounded by the
// smallest table while the longest keeps running per-lane.
TEST(LanePacking, EarlyRetiringLanesSameBucket) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 8; ++k)
    v.emplace_back(rand_str(257 + 28 * k, 70 + k),
                   rand_str(480 - 25 * k, 80 + k));
  expect_lane_identical(v);
}

// Degenerate shapes (single-row, single-column, 2x2 tables) fail the
// lockstep minimums and must fall back per-lane, still bit-identical.
TEST(LanePacking, DegenerateShapesFallBack) {
  {
    std::vector<problems::LevenshteinProblem> v;
    v.emplace_back(rand_str(1, 1), rand_str(40, 2));
    v.emplace_back(rand_str(40, 3), rand_str(1, 4));
    v.emplace_back(rand_str(1, 5), rand_str(1, 6));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::LcsProblem> v;
    v.emplace_back(rand_str(1, 7), rand_str(30, 8));
    v.emplace_back(rand_str(30, 9), rand_str(1, 10));
    expect_lane_identical(v);
  }
}

// Forcing the baseline tier must drop dispatch off the AVX2 table and
// still produce identical results.
TEST(LanePacking, ForcedBaselineDispatch) {
  lanes::force_baseline_kernels(true);
  EXPECT_STRNE(lanes::active_isa(), "avx2");
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 8; ++k)
    v.emplace_back(rand_str(50 + k, 100 + k), rand_str(64 - k, 200 + k));
  expect_lane_identical(v);
  lanes::force_baseline_kernels(false);
  EXPECT_GE(lanes::preferred_lane_width(), 4u);
}

// lane_pack = 0 disables the path entirely: nothing is even eligible.
TEST(LanePacking, LanePackOffDisablesEligibility) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 4; ++k)
    v.emplace_back(rand_str(40 + k, k), rand_str(40 + k, k + 50));
  const BatchReport rep = expect_lane_identical(v, /*lane_pack=*/0);
  EXPECT_EQ(rep.lane_eligible_solves, 0u);
  EXPECT_EQ(rep.lane_packed_solves, 0u);
  EXPECT_EQ(rep.lane_cohorts, 0u);
}

// lane_pack = N caps cohort width: 10 identical-class jobs drained inline
// with a cap of 3 form cohorts 3+3+3+1 deterministically.
TEST(LanePacking, CohortCapAndReportCounters) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 10; ++k)
    v.emplace_back(rand_str(100 + k, 2 * k), rand_str(120 - k, 2 * k + 1));
  const BatchReport rep = expect_lane_identical(v, /*lane_pack=*/3);
  EXPECT_EQ(rep.lane_eligible_solves, 10u);
  EXPECT_EQ(rep.lane_packed_solves, 9u);
  EXPECT_EQ(rep.lane_cohorts, 3u);
  EXPECT_NEAR(rep.lane_hit_rate, 0.9, 1e-12);
  EXPECT_GT(rep.lane_occupancy, 0.0);
  EXPECT_LE(rep.lane_occupancy, 1.0);
}

// Lane-packed solves report the table memory they hold, like solo solves:
// the result grid plus the lane's two rolling lane-major rows.
TEST(LanePacking, ReportsPeakTableBytes) {
  BatchEngine engine(lane_config());
  std::vector<std::future<SolveResult<problems::LevenshteinProblem>>> futs;
  for (std::size_t k = 0; k < 4; ++k) {
    RunConfig rc;
    rc.mode = Mode::kCpuSerial;
    auto f = engine.submit(
        problems::LevenshteinProblem(rand_str(63, k), rand_str(79, k + 9)),
        rc);
    ASSERT_TRUE(f.has_value());
    futs.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  EXPECT_GE(rep.lane_packed_solves, 2u);
  for (auto& f : futs)
    EXPECT_EQ(f.get().stats.peak_table_bytes, (64 + 2) * 80 * sizeof(int));
}

// Large tables and non-CPU modes are not lane-eligible.
TEST(LanePacking, EligibilityRespectsModeAndCells) {
  {
    // 1501x1501 > the lane cell ceiling — of the full tier only: frontier
    // lanes keep one or two rows each, so the frontier tier has no cap.
    std::vector<problems::LevenshteinProblem> v;
    v.emplace_back(rand_str(1500, 1), rand_str(1500, 2));
    v.emplace_back(rand_str(1500, 3), rand_str(1500, 4));
    BatchReport frontier;
    const BatchReport rep = expect_lane_identical(v, -1, 0, &frontier);
    EXPECT_EQ(rep.lane_eligible_solves, 0u);
    EXPECT_EQ(frontier.lane_eligible_solves, 2u);
  }
  {
    BatchEngine engine(lane_config());
    RunConfig rc;
    rc.mode = Mode::kGpu;
    auto f = engine.submit(
        problems::LevenshteinProblem(rand_str(64, 1), rand_str(64, 2)), rc);
    ASSERT_TRUE(f.has_value());
    const BatchReport rep = engine.wait();
    f->get();
    EXPECT_EQ(rep.lane_eligible_solves, 0u);
  }
}

// Worker threads racing over the queue (the TSan target): cohorts form
// nondeterministically but results and recorded sim times must not change
// — the lane path prices every eligible solve as the same serial scan
// regardless of cohort size, so the makespan matches the lane-off run.
TEST(LanePacking, ConcurrentWorkersDeterministicTimeline) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 12; ++k)
    v.emplace_back(rand_str(80 + k, 3 * k), rand_str(96 - k, 3 * k + 1));
  BatchReport packed_frontier, off_frontier;
  const BatchReport packed = expect_lane_identical(
      v, /*lane_pack=*/-1, /*workers=*/2, &packed_frontier);
  const BatchReport off = expect_lane_identical(
      v, /*lane_pack=*/0, /*workers=*/0, &off_frontier);
  EXPECT_LE(packed.lane_packed_solves, packed.lane_eligible_solves);
  EXPECT_GE(packed.lane_hit_rate, 0.0);
  EXPECT_LE(packed.lane_hit_rate, 1.0);
  EXPECT_NEAR(packed.sim_makespan, off.sim_makespan,
              1e-12 + off.sim_makespan * 1e-9);
  EXPECT_NEAR(packed_frontier.sim_makespan, off_frontier.sim_makespan,
              1e-12 + off_frontier.sim_makespan * 1e-9);
}

}  // namespace
}  // namespace lddp
