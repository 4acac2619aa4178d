// Real multi-threaded execution: every strategy runs its host-side loops
// through a genuine ThreadPool here, so data races between cells of one
// front (or between the framework's bookkeeping and the workers) would
// surface as wrong tables or TSan reports.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/floyd_steinberg.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

class PoolExecutionTest : public ::testing::Test {
 protected:
  cpu::ThreadPool pool_{4};
};

TEST_F(PoolExecutionTest, LevenshteinAllModes) {
  problems::LevenshteinProblem p(problems::random_sequence(300, 1),
                                 problems::random_sequence(340, 2));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kCpuTiled, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.pool = &pool_;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST_F(PoolExecutionTest, KnightMoveWithPool) {
  problems::FloydSteinbergProblem p(problems::plasma_image(96, 128, 3));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.pool = &pool_;
  cfg.hetero = {13, 40};
  const auto r = solve(p, cfg);
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j) {
      ASSERT_EQ(r.table.at(i, j).out, ref.table.at(i, j).out);
      ASSERT_DOUBLE_EQ(r.table.at(i, j).err, ref.table.at(i, j).err);
    }
}

TEST_F(PoolExecutionTest, TwoWayHorizontalWithPool) {
  const auto costs = problems::random_cost_board(200, 260, 4);
  problems::CheckerboardProblem p(costs);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.pool = &pool_;
  EXPECT_EQ(solve(p, cfg).table.to_grid(),
            problems::checkerboard_reference(costs));
}

TEST_F(PoolExecutionTest, SimulatedTimeIndependentOfPool) {
  // The pool only affects real execution; the simulated schedule must be
  // bit-identical with and without it.
  problems::LevenshteinProblem p(problems::random_sequence(256, 5),
                                 problems::random_sequence(256, 6));
  RunConfig with_pool;
  with_pool.mode = Mode::kHeterogeneous;
  with_pool.pool = &pool_;
  RunConfig without = with_pool;
  without.pool = nullptr;
  EXPECT_DOUBLE_EQ(solve(p, with_pool).stats.sim_seconds,
                   solve(p, without).stats.sim_seconds);
}

TEST_F(PoolExecutionTest, PoolReusedAcrossManySolves) {
  problems::MinNwNProblem p(128, 128, 1);
  RunConfig cfg;
  cfg.pool = &pool_;
  cfg.mode = Mode::kHeterogeneous;
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (int round = 0; round < 20; ++round)
    ASSERT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid()) << round;
}

TEST_F(PoolExecutionTest, AllContributingSetsWithPool) {
  for (int mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    const auto p = problems::make_function_problem<std::uint64_t>(
        64, 80, deps, 3ULL,
        [deps](std::size_t i, std::size_t j,
               const Neighbors<std::uint64_t>& nb) {
          std::uint64_t r = i * 73 + j * 7 + 11;
          if (deps.has_w()) r = r * 131 ^ nb.w;
          if (deps.has_nw()) r = r * 137 ^ nb.nw;
          if (deps.has_n()) r = r * 139 ^ nb.n;
          if (deps.has_ne()) r = r * 149 ^ nb.ne;
          return r;
        });
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    const auto ref = solve(p, serial);
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    cfg.pool = &pool_;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << deps.to_string();
  }
}

}  // namespace
}  // namespace lddp
