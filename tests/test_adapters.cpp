#include <gtest/gtest.h>

#include "core/adapters.h"
#include "core/framework.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

TEST(AdaptersTest, TransposeMapsVerticalDepsToHorizontal) {
  const auto probe = problems::make_function_problem<std::uint64_t>(
      4, 6, ContributingSet{Dep::kW, Dep::kNW}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>&) {
        return 1ULL;
      });
  TransposedProblem t(probe);
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(classify(t.deps()), Pattern::kHorizontal);
  EXPECT_TRUE(t.deps().has_n());
  EXPECT_TRUE(t.deps().has_nw());
  EXPECT_FALSE(t.deps().has_w());
}

TEST(AdaptersTest, TransposeRejectsNe) {
  const auto probe = problems::make_function_problem<std::uint64_t>(
      4, 6, ContributingSet{Dep::kNE}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>&) {
        return 1ULL;
      });
  EXPECT_THROW(TransposedProblem{probe}, CheckError);
}

TEST(AdaptersTest, MirrorMapsNeToNw) {
  const auto probe = problems::make_function_problem<std::uint64_t>(
      4, 6, ContributingSet{Dep::kNE}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>&) {
        return 1ULL;
      });
  MirroredProblem m(probe);
  EXPECT_EQ(classify(m.deps()), Pattern::kInvertedL);
}

TEST(AdaptersTest, MirrorRejectsW) {
  const auto probe = problems::make_function_problem<std::uint64_t>(
      4, 6, ContributingSet{Dep::kW}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>&) {
        return 1ULL;
      });
  EXPECT_THROW(MirroredProblem{probe}, CheckError);
}

TEST(AdaptersTest, TransposeGridRoundTrip) {
  Grid<int> g(2, 3);
  int v = 0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) g.at(i, j) = v++;
  const Grid<int> t = transpose_grid(g);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(t.at(j, i), g.at(i, j));
  EXPECT_EQ(transpose_grid(t), g);
}

TEST(AdaptersTest, MirrorGridRoundTrip) {
  Grid<int> g(2, 4);
  int v = 0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 4; ++j) g.at(i, j) = v++;
  const Grid<int> m = mirror_grid(g);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m.at(i, 3 - j), g.at(i, j));
  EXPECT_EQ(mirror_grid(m), g);
}

TEST(AdaptersTest, VerticalProblemSolvesThroughTranspose) {
  const auto costs = problems::random_cost_board(9, 13, 99);
  problems::ColumnMinPathProblem p(costs);
  ASSERT_EQ(classify(p.deps()), Pattern::kVertical);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.pattern, Pattern::kVertical);
    EXPECT_EQ(r.table.to_grid(), problems::column_min_reference(costs))
        << to_string(mode);
  }
}

}  // namespace
}  // namespace lddp
