// Tile-granular execution layer: bit-identity of the tiled GPU and tiled
// heterogeneous strategies against the serial reference across all 15
// contributing sets, ragged shapes, degenerate tables and tile sizes
// (including tile = 1 and tile >= table), plus TileScheduler geometry
// invariants.
#include <gtest/gtest.h>

#include <string>

#include "core/framework.h"
#include "core/tile_scheduler.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/image.h"
#include "problems/floyd_steinberg.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

auto hash_problem(std::size_t rows, std::size_t cols, ContributingSet deps) {
  return problems::make_function_problem<std::uint64_t>(
      rows, cols, deps, 5ULL,
      [deps](std::size_t i, std::size_t j,
             const Neighbors<std::uint64_t>& nb) {
        std::uint64_t r = i * 131 + j * 17 + 1;
        if (deps.has_w()) r = r * 31 + nb.w;
        if (deps.has_nw()) r = r * 37 + nb.nw;
        if (deps.has_n()) r = r * 41 + nb.n;
        if (deps.has_ne()) r = r * 43 + nb.ne;
        return r;
      });
}

bool cell_equal(const problems::FsCell& a, const problems::FsCell& b) {
  return a.err == b.err && a.out == b.out;
}
template <typename T>
bool cell_equal(const T& a, const T& b) {
  return a == b;
}

template <typename T>
void expect_tables_equal(const Grid<T>& got, const Grid<T>& want,
                         const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      ASSERT_TRUE(cell_equal(got.at(i, j), want.at(i, j)))
          << what << " at (" << i << ", " << j << ")";
}

template <typename P>
void expect_tiled_matches_serial(const P& p, const char* what) {
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (const Mode mode : {Mode::kGpu, Mode::kHeterogeneous}) {
    for (const bool fused : {true, false}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.tile = 8;
      cfg.fused_launches = fused;
      const auto r = solve(p, cfg);
      expect_tables_equal(r.table.to_grid(), ref.table.to_grid(),
                          std::string(what) + " mode=" + to_string(mode) +
                              " fused=" + (fused ? "1" : "0"));
      EXPECT_EQ(r.stats.mode_used, mode);
    }
  }
}

TEST(TiledCorrectnessTest, AllContributingSetsRaggedTable) {
  for (int mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    const auto p = hash_problem(37, 53, deps);
    expect_tiled_matches_serial(p, deps.to_string().c_str());
  }
}

TEST(TiledCorrectnessTest, TileSizeSweep) {
  // tile = 1 (every cell its own tile), a ragged odd size, a typical size,
  // and tiles at least as large as the table (single-tile degenerate case).
  const ContributingSet deps{Dep::kW, Dep::kN, Dep::kNE};
  const auto p = hash_problem(41, 29, deps);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (const long long tile : {1LL, 7LL, 64LL, 4096LL}) {
    for (const Mode mode : {Mode::kGpu, Mode::kHeterogeneous}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.tile = tile;
      const auto r = solve(p, cfg);
      EXPECT_EQ(r.table.to_grid(), ref.table.to_grid())
          << "tile=" << tile << " mode=" << to_string(mode);
    }
  }
}

TEST(TiledCorrectnessTest, DegenerateShapes) {
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 64},
        std::pair<std::size_t, std::size_t>{64, 1},
        std::pair<std::size_t, std::size_t>{1, 1},
        std::pair<std::size_t, std::size_t>{3, 200},
        std::pair<std::size_t, std::size_t>{200, 3}}) {
    for (const std::uint8_t mask : {0b1111, 0b1000, 0b0001}) {
      const ContributingSet deps(mask);
      const auto p = hash_problem(rows, cols, deps);
      expect_tiled_matches_serial(
          p, (std::to_string(rows) + "x" + std::to_string(cols)).c_str());
    }
  }
}

TEST(TiledCorrectnessTest, ExplicitHeteroParams) {
  const auto p = hash_problem(96, 80, ContributingSet{Dep::kW, Dep::kNW});
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (const long long t_switch : {0LL, 16LL, 48LL}) {
    for (const long long t_share : {0LL, 24LL, 96LL}) {
      RunConfig cfg;
      cfg.mode = Mode::kHeterogeneous;
      cfg.tile = 16;
      cfg.hetero.t_switch = t_switch;
      cfg.hetero.t_share = t_share;
      const auto r = solve(p, cfg);
      EXPECT_EQ(r.table.to_grid(), ref.table.to_grid())
          << "t_switch=" << t_switch << " t_share=" << t_share;
    }
  }
}

TEST(TiledCorrectnessTest, AutoTileMatchesSerial) {
  const auto p = hash_problem(120, 77, ContributingSet{Dep::kW, Dep::kNE});
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (const Mode mode : {Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.tile = -1;  // model-based default
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(TiledCorrectnessTest, RealProblems) {
  problems::LevenshteinProblem lev(problems::random_sequence(150, 11),
                                   problems::random_sequence(190, 12));
  expect_tiled_matches_serial(lev, "levenshtein");

  problems::FloydSteinbergProblem fs(problems::plasma_image(96, 128, 3));
  expect_tiled_matches_serial(fs, "floyd-steinberg");

  problems::CheckerboardProblem cb(problems::random_cost_board(48, 64, 9));
  expect_tiled_matches_serial(cb, "checkerboard");
}

TEST(TiledCorrectnessTest, TiledFasterThanUntiledAtScale) {
  // The acceptance bar of the tile layer: on a large anti-diagonal table
  // the tiled GPU path (fewer launches, shared-memory staging) must beat
  // the fused untiled baseline in simulated time.
  problems::LevenshteinProblem p(problems::random_sequence(2048, 21),
                                 problems::random_sequence(2048, 22));
  RunConfig untiled;
  untiled.mode = Mode::kGpu;
  RunConfig tiled = untiled;
  tiled.tile = 64;
  EXPECT_LT(solve(p, tiled).stats.sim_seconds,
            solve(p, untiled).stats.sim_seconds);
}

TEST(TileSchedulerTest, GeometryInvariants) {
  for (const std::uint8_t mask : {0b0111, 0b1111, 0b1000}) {
    const ContributingSet deps(mask);
    const TileScheduler sched(37, 53, 8, deps);
    // Every cell is visited exactly once across all tiles.
    Grid<int> seen(37, 53);
    std::size_t cells = 0;
    for (std::size_t g = 0; g < sched.num_fronts(); ++g) {
      for (std::size_t k = 0; k < sched.front_tiles(g); ++k) {
        const TileScheduler::TileCoord t = sched.front_tile(g, k);
        sched.for_each_cell(t.tu, t.tv, [&](std::size_t i, std::size_t j) {
          ++seen.at(i, j);
          ++cells;
        });
      }
    }
    EXPECT_EQ(cells, 37u * 53u) << deps.to_string();
    for (std::size_t i = 0; i < 37; ++i)
      for (std::size_t j = 0; j < 53; ++j)
        ASSERT_EQ(seen.at(i, j), 1) << deps.to_string();
    EXPECT_EQ(sched.skewed(), deps.has_ne());
  }
}

TEST(TileSchedulerTest, CrossTileDependenciesPointToEarlierFronts) {
  // The scheduling invariant behind bit-identity: every dependency of a
  // cell in tile front g lives in a tile of front <= g (same tile or an
  // earlier front).
  for (int mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    const TileScheduler sched(23, 31, 4, deps);
    // Map each cell to its tile front.
    Grid<std::size_t> front_of(23, 31);
    for (std::size_t g = 0; g < sched.num_fronts(); ++g)
      for (std::size_t k = 0; k < sched.front_tiles(g); ++k) {
        const TileScheduler::TileCoord t = sched.front_tile(g, k);
        sched.for_each_cell(t.tu, t.tv,
                            [&](std::size_t i, std::size_t j) {
                              front_of.at(i, j) = g;
                            });
      }
    for (std::size_t i = 0; i < 23; ++i)
      for (std::size_t j = 0; j < 31; ++j) {
        const std::size_t g = front_of.at(i, j);
        if (deps.has_w() && j > 0) {
          ASSERT_LE(front_of.at(i, j - 1), g);
        }
        if (i > 0) {
          if (deps.has_nw() && j > 0) {
            ASSERT_LE(front_of.at(i - 1, j - 1), g);
          }
          if (deps.has_n()) {
            ASSERT_LE(front_of.at(i - 1, j), g);
          }
          if (deps.has_ne() && j + 1 < 31) {
            ASSERT_LE(front_of.at(i - 1, j + 1), g);
          }
        }
      }
  }
}

}  // namespace
}  // namespace lddp
