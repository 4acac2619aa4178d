#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"

namespace lddp::problems {
namespace {

TEST(ColumnMinTest, ClassifiesVertical) {
  ColumnMinPathProblem p(random_cost_board(5, 5, 1));
  EXPECT_EQ(classify(p.deps()), Pattern::kVertical);
  EXPECT_EQ(transfer_need(p.deps()), TransferNeed::kOneWay);
}

TEST(ColumnMinTest, FirstColumnIsItsOwnCost) {
  const auto costs = random_cost_board(7, 6, 2);
  const auto t = column_min_reference(costs);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(t.at(i, 0), costs.at(i, 0));
}

TEST(ColumnMinTest, MatchesTransposedCheckerboardVariant) {
  // column-min path uses moves {W, NW}; on the transposed board that is a
  // 2-choice checkerboard: recompute directly to cross-check.
  const auto costs = random_cost_board(12, 15, 3);
  const auto t = column_min_reference(costs);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 1; j < 15; ++j) {
      std::int64_t best = t.at(i, j - 1);
      if (i > 0) best = std::min(best, t.at(i - 1, j - 1));
      EXPECT_EQ(t.at(i, j), best + costs.at(i, j));
    }
  }
}

TEST(ColumnMinTest, AllModesMatchReference) {
  const auto costs = random_cost_board(80, 95, 4);
  ColumnMinPathProblem p(costs);
  const auto ref = column_min_reference(costs);
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref) << to_string(mode);
  }
}

}  // namespace
}  // namespace lddp::problems
