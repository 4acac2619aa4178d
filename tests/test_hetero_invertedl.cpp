// Behavioural tests of the inverted-L executions: one-way transfers, the
// row-major storage penalty (Section V-B), and the horizontal-case-1
// alternative beating it — the paper's Fig 8 conclusion. Correctness runs
// on both storage tiers: solve() and solve_frontier(), whose table is
// read cell by cell through at().
#include <gtest/gtest.h>

#include <string>

#include "core/framework.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

problems::MaxNwProblem make_problem(std::size_t n, std::uint64_t seed) {
  return problems::MaxNwProblem(problems::random_input_grid(n, n, seed), 3);
}

/// solve_frontier of `p` under `cfg` (frontier tier, a small checkpoint
/// interval so rematerialized bands are read) against the reference grid,
/// every cell through at().
template <typename P, typename V>
void expect_frontier_matches(const P& p, RunConfig cfg, const Grid<V>& ref,
                             const std::string& what) {
  cfg.storage = Storage::kFrontier;
  cfg.checkpoint_interval = 3;
  const auto r = solve_frontier(p, cfg);
  ASSERT_TRUE(r.table.frontier()) << what;
  ASSERT_EQ(r.table.rows(), ref.rows()) << what;
  ASSERT_EQ(r.table.cols(), ref.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(r.table.at(i, j), ref.at(i, j))
          << what << " cell (" << i << ", " << j << ")";
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
    const std::string what =
        std::to_string(hp.t_switch) + "/" + std::to_string(hp.t_share);
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid()) << what;
    expect_frontier_matches(p, cfg, ref.table.to_grid(), what);
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
  // The paper's framework runs inverted-L on row-major storage, which is
  // how solve() prices it; solve_gpu over ShellLayout without the strided
  // pricing is the shell-contiguous layout, which removes the column-part
  // coalescing penalty and must be faster in simulation. (Needs shells
  // big enough to leave the launch-latency floor.)
  const auto p = make_problem(2048, 3);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  cfg.platform = sim::PlatformSpec::hetero_high();
  const auto strided = solve(p, cfg);
  const auto& a = strided.table;
  const SolveStats& strided_stats = strided.stats;

  sim::Platform coalesced(sim::PlatformSpec::hetero_high());
  SolveStats coalesced_stats;
  const ShellLayout shells(p.rows(), p.cols());
  FullStore<problems::MaxNwProblem::Value, ShellLayout> store(shells);
  const auto b = solve_gpu(p, store, coalesced, &coalesced_stats);

  EXPECT_EQ(a.to_grid(), b.to_grid());  // identical results, different layouts
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
    EXPECT_EQ(r.table.to_grid(), ref.table.to_grid()) << to_string(mode);
    EXPECT_EQ(r.stats.pattern, Pattern::kMirroredInvertedL);
    expect_frontier_matches(p, cfg, ref.table.to_grid(), to_string(mode));
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
    const std::string what = std::to_string(n) + "x" + std::to_string(m);
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid()) << what;
    expect_frontier_matches(p, cfg, ref.table.to_grid(), what);
  }
}

}  // namespace
}  // namespace lddp
