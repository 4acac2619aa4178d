#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/dtw.h"

namespace lddp::problems {
namespace {

TEST(DtwTest, IdenticalSeriesCostZero) {
  const auto s = random_walk_series(50, 1);
  EXPECT_DOUBLE_EQ(dtw_reference(s, s), 0.0);
}

TEST(DtwTest, KnownSmallCase) {
  // a = [0, 1, 2], b = [0, 2]: optimal warp aligns 0-0, 1-2?, 2-2.
  const std::vector<double> a{0, 1, 2}, b{0, 2};
  EXPECT_DOUBLE_EQ(dtw_reference(a, b), 1.0);
}

TEST(DtwTest, SymmetricInArguments) {
  const auto a = random_walk_series(40, 2);
  const auto b = random_walk_series(35, 3);
  EXPECT_DOUBLE_EQ(dtw_reference(a, b), dtw_reference(b, a));
}

TEST(DtwTest, ShiftInvarianceUpperBound) {
  // DTW of a series against a constant-shifted copy is at most len * shift.
  auto a = random_walk_series(60, 4);
  auto b = a;
  for (auto& x : b) x += 0.25;
  EXPECT_LE(dtw_reference(a, b), 60 * 0.25 + 1e-9);
}

TEST(DtwTest, AllModesMatchReference) {
  const auto a = random_walk_series(120, 5);
  const auto b = random_walk_series(140, 6);
  DtwProblem p(a, b);
  EXPECT_EQ(classify(p.deps()), Pattern::kAntiDiagonal);
  const double expected = dtw_reference(a, b);
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_DOUBLE_EQ(solve(p, cfg).table.at(a.size(), b.size()), expected)
        << to_string(mode);
  }
}

TEST(DtwTest, EmptySeriesRejected) {
  EXPECT_THROW(DtwProblem({}, {1.0}), CheckError);
  EXPECT_THROW(DtwProblem({1.0}, {}), CheckError);
}

TEST(DtwTest, WideBandEqualsUnbanded) {
  const auto a = random_walk_series(60, 7);
  const auto b = random_walk_series(70, 8);
  DtwProblem unbanded(a, b);
  DtwProblem banded(a, b, /*band=*/200);  // wider than the table
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  EXPECT_EQ(solve(unbanded, cfg).table.to_grid(),
            solve(banded, cfg).table.to_grid());
}

TEST(DtwTest, BandConstrainsAndNeverImproves) {
  const auto a = random_walk_series(80, 9);
  const auto b = random_walk_series(80, 10);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  double prev = std::numeric_limits<double>::infinity();
  // Widening the Sakoe-Chiba band can only lower (or keep) the warp cost.
  for (std::size_t band : {2u, 5u, 10u, 40u, 80u}) {
    DtwProblem p(a, b, band);
    const double cost = solve(p, cfg).table.at(80, 80);
    EXPECT_LE(cost, prev) << "band " << band;
    prev = cost;
  }
  EXPECT_DOUBLE_EQ(prev, dtw_reference(a, b));  // full band == unbanded
}

TEST(DtwTest, BandedCellsOutsideBandAreInfinite) {
  const auto a = random_walk_series(30, 11);
  const auto b = random_walk_series(30, 12);
  DtwProblem p(a, b, /*band=*/3);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const auto t = solve(p, cfg).table;
  for (std::size_t i = 1; i <= 30; ++i)
    for (std::size_t j = 1; j <= 30; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      if (d > 3) {
        EXPECT_TRUE(std::isinf(t.at(i, j))) << i << "," << j;
      }
    }
}

}  // namespace
}  // namespace lddp::problems
