// Behavioural tests of the inverted-L executions: one-way transfers, the
// row-major storage penalty (Section V-B), and the horizontal-case-1
// alternative beating it — the paper's Fig 8 conclusion.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/strategies/hetero_invertedl.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

problems::MaxNwProblem make_problem(std::size_t n, std::uint64_t seed) {
  return problems::MaxNwProblem(problems::random_input_grid(n, n, seed), 3);
}

TEST(HeteroInvertedLTest, MatchesSerialReference) {
  const auto p = make_problem(120, 1);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(p, cfg);
  cfg.mode = Mode::kHeterogeneous;
  for (HeteroParams hp : {HeteroParams{-1, -1}, HeteroParams{0, 0},
                          HeteroParams{10, 30}, HeteroParams{5, 200}}) {
    cfg.hetero = hp;
    EXPECT_EQ(solve(p, cfg).table, ref.table)
        << hp.t_switch << "/" << hp.t_share;
  }
}

TEST(HeteroInvertedLTest, TransfersAreOneWay) {
  const auto p = make_problem(100, 2);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {10, 40};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kOneWay);
  EXPECT_GT(r.stats.h2d_copies, 10u);
  EXPECT_LE(r.stats.d2h_copies, 3u);  // phase-B entry + final download
}

TEST(HeteroInvertedLTest, RowMajorStoragePenalizesGpu) {
  // The paper's framework runs inverted-L on row-major storage; the
  // shell-contiguous layout (generic solve_gpu over ShellLayout) removes
  // the column-part coalescing penalty and must be faster in simulation.
  // (Needs shells big enough to leave the launch-latency floor.)
  const auto p = make_problem(2048, 3);
  sim::Platform strided(sim::PlatformSpec::hetero_high());
  SolveStats strided_stats;
  const auto a = solve_gpu_invertedl(p, strided, &strided_stats);

  sim::Platform coalesced(sim::PlatformSpec::hetero_high());
  SolveStats coalesced_stats;
  const ShellLayout shells(p.rows(), p.cols());
  FullStore<problems::MaxNwProblem::Value, ShellLayout> store(
      shells, &coalesced.gpu());
  const auto b = solve_gpu(p, store, coalesced, &coalesced_stats);

  EXPECT_EQ(a, b);  // identical results, different layouts
  EXPECT_GT(strided_stats.sim_seconds, coalesced_stats.sim_seconds);
}

TEST(HeteroInvertedLTest, Figure8HorizontalCase1Wins) {
  // Section V-B: a {NW}-dependent problem can also be run as horizontal
  // case-1; uniform fronts and a coalescing-friendly layout make that the
  // better choice on the GPU.
  const auto p = make_problem(1024, 4);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const double il_seconds = solve(p, cfg).stats.sim_seconds;

  // The same function forced through the horizontal machinery: declare the
  // dependency as {NW, N} (a superset — f simply ignores N).
  const auto grid = problems::random_input_grid(1024, 1024, 4);
  auto as_h1 = problems::make_function_problem<std::int64_t>(
      1024, 1024, ContributingSet{Dep::kNW, Dep::kN}, 0LL,
      [&grid](std::size_t i, std::size_t j,
              const Neighbors<std::int64_t>& nb) {
        const std::int64_t v = grid.at(i, j);
        return (v > nb.nw ? v : nb.nw) + 3;
      });
  as_h1.set_result_bytes(1024 * sizeof(std::int64_t));  // match iL's result
  const double h1_seconds = solve(as_h1, cfg).stats.sim_seconds;
  EXPECT_LT(h1_seconds, il_seconds);
}

TEST(HeteroInvertedLTest, MirroredVariantViaSymmetry) {
  // {NE}-dependent problem: mirrored inverted-L solved through the mirror
  // adapter. Values must match the serial scan.
  const auto grid = problems::random_input_grid(60, 90, 5);
  const auto p = problems::make_function_problem<std::int64_t>(
      60, 90, ContributingSet{Dep::kNE}, 0LL,
      [&grid](std::size_t i, std::size_t j,
              const Neighbors<std::int64_t>& nb) {
        const std::int64_t v = grid.at(i, j);
        return (v > nb.ne ? v : nb.ne) + 1;
      });
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(p, cfg);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    cfg.mode = mode;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.table, ref.table) << to_string(mode);
    EXPECT_EQ(r.stats.pattern, Pattern::kMirroredInvertedL);
  }
}

TEST(HeteroInvertedLTest, RectangularShapes) {
  for (auto [n, m] : {std::pair<std::size_t, std::size_t>{30, 150},
                      {150, 30},
                      {2, 40},
                      {40, 2}}) {
    problems::MaxNwProblem p(problems::random_input_grid(n, m, n * 1000 + m),
                             2);
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    const auto ref = solve(p, cfg);
    cfg.mode = Mode::kHeterogeneous;
    EXPECT_EQ(solve(p, cfg).table, ref.table) << n << "x" << m;
  }
}

}  // namespace
}  // namespace lddp
