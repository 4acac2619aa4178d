#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/max_square.h"

namespace lddp::problems {
namespace {

TEST(MaxSquareTest, AllOnesAndAllZeros) {
  {
    MaxSquareProblem p(Grid<std::uint8_t>(5, 7, 1));
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    EXPECT_EQ(max_square_side(solve(p, cfg).table), 5);
  }
  {
    MaxSquareProblem p(Grid<std::uint8_t>(5, 7, 0));
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    EXPECT_EQ(max_square_side(solve(p, cfg).table), 0);
  }
}

TEST(MaxSquareTest, MatchesBruteForceOnRandomGrids) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto bits = random_bit_grid(12 + seed, 15 - seed % 4, seed, 0.75);
    MaxSquareProblem p(bits);
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    EXPECT_EQ(max_square_side(solve(p, cfg).table),
              max_square_brute_force(bits))
        << "seed " << seed;
  }
}

TEST(MaxSquareTest, ClassifiesAntiDiagonal) {
  MaxSquareProblem p(random_bit_grid(4, 4, 1));
  EXPECT_EQ(classify(p.deps()), Pattern::kAntiDiagonal);
}

TEST(MaxSquareTest, AllModesAgree) {
  const auto bits = random_bit_grid(90, 120, 9, 0.8);
  MaxSquareProblem p(bits);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kCpuTiled, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(MaxSquareTest, PlantedSquareIsFound) {
  auto bits = random_bit_grid(40, 40, 10, 0.3);  // sparse background
  for (std::size_t i = 12; i < 12 + 9; ++i)
    for (std::size_t j = 20; j < 20 + 9; ++j) bits.at(i, j) = 1;
  MaxSquareProblem p(bits);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  EXPECT_GE(max_square_side(solve(p, cfg).table), 9);
}

}  // namespace
}  // namespace lddp::problems
