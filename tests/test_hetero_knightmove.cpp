// Behavioural tests of the knight-move heterogeneous strategy: three-phase
// structure, two-way mapped-pinned boundaries, Floyd-Steinberg end-to-end.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/floyd_steinberg.h"

namespace lddp {
namespace {

problems::FloydSteinbergProblem make_problem(std::size_t n, std::size_t m,
                                             std::uint64_t seed) {
  return problems::FloydSteinbergProblem(problems::plasma_image(n, m, seed));
}

Grid<problems::FsCell> serial_solution(
    const problems::FloydSteinbergProblem& p) {
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  return solve(p, cfg).table.to_grid();
}

bool tables_equal(const Grid<problems::FsCell>& a,
                  const Grid<problems::FsCell>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a.at(i, j).err != b.at(i, j).err ||
          a.at(i, j).out != b.at(i, j).out)
        return false;
  return true;
}

TEST(HeteroKnightMoveTest, MatchesSerialAcrossSplits) {
  const auto p = make_problem(64, 96, 1);
  const auto ref = serial_solution(p);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  for (HeteroParams hp :
       {HeteroParams{-1, -1}, HeteroParams{0, 0}, HeteroParams{0, 32},
        HeteroParams{17, 13}, HeteroParams{50, 96}, HeteroParams{9999, 9999}}) {
    cfg.hetero = hp;
    EXPECT_TRUE(tables_equal(solve(p, cfg).table.to_grid(), ref))
        << hp.t_switch << "/" << hp.t_share;
  }
}

TEST(HeteroKnightMoveTest, TwoWayMappedBoundaryUsesNoPerFrontCopies) {
  const auto p = make_problem(48, 48, 2);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {10, 16};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kTwoWay);
  // One bulk upload at phase-2 entry plus the input upload; one bulk
  // download at phase-3 entry plus the final download. No per-front ops.
  EXPECT_LE(r.stats.h2d_copies, 2u);
  EXPECT_LE(r.stats.d2h_copies, 2u);
}

TEST(HeteroKnightMoveTest, StatsShape) {
  const auto p = make_problem(40, 56, 3);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {8, 20};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.pattern, Pattern::kKnightMove);
  EXPECT_EQ(r.stats.fronts, 2 * (40 - 1) + 56);
  EXPECT_EQ(r.stats.t_switch, 8);
  EXPECT_EQ(r.stats.t_share, 20);
  EXPECT_GT(r.stats.cpu_busy_seconds, 0.0);
  EXPECT_GT(r.stats.gpu_busy_seconds, 0.0);
}

TEST(HeteroKnightMoveTest, DitherOutputIsBinary) {
  const auto p = make_problem(32, 32, 4);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto r = solve(p, cfg);
  const auto img = problems::dithered_image(r.table);
  for (std::size_t i = 0; i < img.rows(); ++i)
    for (std::size_t j = 0; j < img.cols(); ++j)
      EXPECT_TRUE(img.at(i, j) == 0 || img.at(i, j) == 255);
}

TEST(HeteroKnightMoveTest, TinyAndSkinnyImages) {
  for (auto [n, m] : {std::pair<std::size_t, std::size_t>{1, 1},
                      {1, 40},
                      {40, 1},
                      {2, 3},
                      {3, 2}}) {
    const auto p = make_problem(n, m, n * 100 + m);
    const auto ref = serial_solution(p);
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    EXPECT_TRUE(tables_equal(solve(p, cfg).table.to_grid(), ref))
        << n << "x" << m;
  }
}

}  // namespace
}  // namespace lddp
