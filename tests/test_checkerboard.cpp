#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/checkerboard.h"

namespace lddp::problems {
namespace {

TEST(CheckerboardTest, ClassifiesHorizontalCase2) {
  CheckerboardProblem p(random_cost_board(8, 8, 1));
  EXPECT_EQ(classify(p.deps()), Pattern::kHorizontal);
  EXPECT_TRUE(is_horizontal_case2(p.deps()));
  EXPECT_EQ(transfer_need(p.deps()), TransferNeed::kTwoWay);
}

TEST(CheckerboardTest, HandComputedBoard) {
  // 3x3 board:
  //   1 9 9      row 0 costs
  //   9 1 9      best path: (0,0) -> (1,1) -> (2,2)? costs 1+1+1 = 3
  //   9 9 1
  Grid<std::int32_t> costs(3, 3, 9);
  costs.at(0, 0) = 1;
  costs.at(1, 1) = 1;
  costs.at(2, 2) = 1;
  const auto t = checkerboard_reference(costs);
  EXPECT_EQ(t.at(2, 2), 3);
  EXPECT_EQ(checkerboard_best(t), 3);
}

TEST(CheckerboardTest, FirstRowIsItsOwnCost) {
  const auto costs = random_cost_board(6, 7, 2);
  const auto t = checkerboard_reference(costs);
  for (std::size_t j = 0; j < 7; ++j) EXPECT_EQ(t.at(0, j), costs.at(0, j));
}

TEST(CheckerboardTest, AllModesMatchReference) {
  const auto costs = random_cost_board(90, 110, 3);
  CheckerboardProblem p(costs);
  const auto ref = checkerboard_reference(costs);
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref) << to_string(mode);
  }
}

TEST(CheckerboardTest, BestCostBoundedByColumnWalk) {
  // Any straight-down walk is a valid path, so the optimum can't exceed
  // the cheapest straight column.
  const auto costs = random_cost_board(30, 30, 4);
  const auto t = checkerboard_reference(costs);
  std::int64_t cheapest_column = std::numeric_limits<std::int64_t>::max();
  for (std::size_t j = 0; j < 30; ++j) {
    std::int64_t col = 0;
    for (std::size_t i = 0; i < 30; ++i) col += costs.at(i, j);
    cheapest_column = std::min(cheapest_column, col);
  }
  EXPECT_LE(checkerboard_best(t), cheapest_column);
}

TEST(CheckerboardTest, MonotoneUnderCostIncrease) {
  auto costs = random_cost_board(20, 20, 5);
  const auto before = checkerboard_best(checkerboard_reference(costs));
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 20; ++j) costs.at(i, j) += 1;
  const auto after = checkerboard_best(checkerboard_reference(costs));
  EXPECT_EQ(after, before + 20);  // every path crosses exactly 20 rows
}

}  // namespace
}  // namespace lddp::problems
