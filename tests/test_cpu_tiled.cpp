// Tiled CPU execution: correctness across tile sizes, shapes and patterns,
// and the modeled benefit over the per-cell baseline.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/column_min.h"
#include "problems/checkerboard.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

TEST(CpuTiledTest, MatchesSerialAcrossTileSizes) {
  problems::LevenshteinProblem p(problems::random_sequence(150, 1),
                                 problems::random_sequence(190, 2));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (std::size_t tile : {1u, 2u, 7u, 16u, 64u, 1000u}) {
    RunConfig cfg;
    cfg.mode = Mode::kCpuTiled;
    cfg.cpu_tile = tile;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.table.to_grid(), ref.table.to_grid()) << "tile " << tile;
    EXPECT_EQ(r.stats.mode_used, Mode::kCpuTiled);
  }
}

TEST(CpuTiledTest, WorksForEveryContributingSet) {
  // Including NE-bearing sets, which get skewed parallelogram tiles.
  for (int mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    const auto p = problems::make_function_problem<std::uint64_t>(
        37, 53, deps, 5ULL,
        [deps](std::size_t i, std::size_t j, const Neighbors<std::uint64_t>& nb) {
          std::uint64_t r = i * 131 + j * 17 + 1;
          if (deps.has_w()) r = r * 31 + nb.w;
          if (deps.has_nw()) r = r * 37 + nb.nw;
          if (deps.has_n()) r = r * 41 + nb.n;
          if (deps.has_ne()) r = r * 43 + nb.ne;
          return r;
        });
    RunConfig serial;
    serial.mode = Mode::kCpuSerial;
    const auto ref = solve(p, serial);
    RunConfig cfg;
    cfg.mode = Mode::kCpuTiled;
    cfg.cpu_tile = 8;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << deps.to_string();
  }
}

TEST(CpuTiledTest, VerticalAndMirroredGoThroughAdapters) {
  const auto costs = problems::random_cost_board(60, 45, 3);
  problems::ColumnMinPathProblem p(costs);
  RunConfig cfg;
  cfg.mode = Mode::kCpuTiled;
  cfg.cpu_tile = 16;
  EXPECT_EQ(solve(p, cfg).table.to_grid(),
            problems::column_min_reference(costs));
}

TEST(CpuTiledTest, SolvesKnightMove) {
  // Horizontal case-2 has NE; skewed tiles handle it bit-identically.
  problems::CheckerboardProblem cb(problems::random_cost_board(16, 16, 1));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(cb, serial);
  RunConfig cfg;
  cfg.mode = Mode::kCpuTiled;
  const auto r = solve(cb, cfg);
  EXPECT_EQ(r.table.to_grid(), ref.table.to_grid());
  EXPECT_EQ(r.stats.mode_used, Mode::kCpuTiled);
}

TEST(CpuTiledTest, RejectsZeroTile) {
  problems::LevenshteinProblem p("ab", "cd");
  RunConfig cfg;
  cfg.mode = Mode::kCpuTiled;
  cfg.cpu_tile = 0;
  EXPECT_THROW(solve(p, cfg), CheckError);
}

TEST(CpuTiledTest, FasterThanPerCellBaselineAtScale) {
  // Fewer, fatter synchronization points and cache-resident tiles: the
  // tiled mapping must beat the per-front fork/join baseline on a large
  // anti-diagonal table (in simulated time).
  problems::LevenshteinProblem p(problems::random_sequence(2048, 5),
                                 problems::random_sequence(2048, 6));
  RunConfig tiled;
  tiled.mode = Mode::kCpuTiled;
  tiled.cpu_tile = 64;
  RunConfig baseline;
  baseline.mode = Mode::kCpuParallel;
  EXPECT_LT(solve(p, tiled).stats.sim_seconds,
            solve(p, baseline).stats.sim_seconds);
}

TEST(CpuTiledTest, FrontCountShrinksWithTileSize) {
  problems::LevenshteinProblem p(problems::random_sequence(256, 7),
                                 problems::random_sequence(256, 8));
  RunConfig cfg;
  cfg.mode = Mode::kCpuTiled;
  cfg.cpu_tile = 32;
  const auto r32 = solve(p, cfg);
  cfg.cpu_tile = 64;
  const auto r64 = solve(p, cfg);
  EXPECT_GT(r32.stats.fronts, r64.stats.fronts);
  // ceil(257/32) = 9 tiles per side -> 17 tile-fronts.
  EXPECT_EQ(r32.stats.fronts, 17u);
}

TEST(CpuTiledCostModelTest, TiledBeatsAmplifiedFrontsOnBigFronts) {
  const cpu::CpuSpec spec = cpu::CpuSpec::i7_980();
  const cpu::WorkProfile work{};
  // One 4096-cell anti-diagonal front, amplified walk...
  const double per_cell =
      cpu::cpu_front_seconds(spec, work, 4096, true, 4.0);
  // ...vs 64 tiles of 64x64 handled tile-per-thread (same cell count is
  // 64 * 4096; compare per-cell throughput instead).
  const double tiled = cpu::cpu_tiled_front_seconds(spec, work, 64, 64 * 64);
  EXPECT_LT(tiled / (64.0 * 64 * 64), per_cell / 4096.0);
}

}  // namespace
}  // namespace lddp
