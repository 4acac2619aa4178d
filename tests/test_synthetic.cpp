#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/synthetic.h"

namespace lddp::problems {
namespace {

TEST(SyntheticTest, MaxNwClassifiesInvertedL) {
  MaxNwProblem p(random_input_grid(8, 8, 1), 5);
  EXPECT_EQ(classify(p.deps()), Pattern::kInvertedL);
}

TEST(SyntheticTest, MinNwNClassifiesHorizontalCase1) {
  MinNwNProblem p(8, 8, 3);
  EXPECT_EQ(classify(p.deps()), Pattern::kHorizontal);
  EXPECT_FALSE(is_horizontal_case2(p.deps()));
  EXPECT_EQ(transfer_need(p.deps()), TransferNeed::kOneWay);
}

TEST(SyntheticTest, MaxNwAllModesAgree) {
  MaxNwProblem p(random_input_grid(70, 90, 2), 7);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(SyntheticTest, MinNwNAllModesAgree) {
  MinNwNProblem p(80, 100, 2);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(SyntheticTest, MaxNwDiagonalMonotone) {
  // Along any diagonal, values are non-decreasing: each cell takes the max
  // of its input and the previous diagonal value, plus positive c.
  MaxNwProblem p(random_input_grid(30, 30, 3), 1);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto r = solve(p, cfg);
  for (std::size_t i = 1; i < 30; ++i)
    for (std::size_t j = 1; j < 30; ++j)
      EXPECT_GE(r.table.at(i, j), r.table.at(i - 1, j - 1));
}

TEST(SyntheticTest, FunctionProblemSatisfiesConcept) {
  const auto p = make_function_problem<int>(
      3, 3, ContributingSet{Dep::kN}, 0,
      [](std::size_t, std::size_t, const Neighbors<int>& nb) {
        return nb.n + 1;
      });
  static_assert(LddpProblem<decltype(p)>);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.table.at(2, 1), 3);  // three rows of +1 over boundary 0
}

TEST(SyntheticTest, RandomInputGridRespectsBounds) {
  const auto g = random_input_grid(20, 20, 4, -5, 5);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_GE(g.at(i, j), -5);
      EXPECT_LE(g.at(i, j), 5);
    }
}

}  // namespace
}  // namespace lddp::problems
