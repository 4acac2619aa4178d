// The framework's central correctness property: for EVERY one of the 15
// contributing sets, every execution mode (multicore wavefronts, simulated
// GPU, heterogeneous with assorted t_switch/t_share splits) produces a
// table bit-identical to the serial row-major reference scan.
//
// The probe problem mixes i, j and exactly the declared neighbour values
// with multiplicative hashing, so any misrouted, stale, or skipped cell
// anywhere in the table changes downstream values and is detected.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

using V = std::uint64_t;

struct Case {
  int mask;           // contributing set (1..15)
  std::size_t rows, cols;
};

class AllSetsTest : public ::testing::TestWithParam<Case> {};

auto make_probe(const Case& c) {
  const ContributingSet deps(static_cast<std::uint8_t>(c.mask));
  return problems::make_function_problem<V>(
      c.rows, c.cols, deps, /*bound=*/0x9e3779b97f4a7c15ULL,
      [deps](std::size_t i, std::size_t j, const Neighbors<V>& nb) {
        V r = 0xcbf29ce484222325ULL;
        r = (r ^ (static_cast<V>(i) + 1)) * 0x100000001b3ULL;
        r = (r ^ (static_cast<V>(j) + 3)) * 0x100000001b3ULL;
        if (deps.has_w()) r = (r ^ nb.w) * 0x100000001b3ULL;
        if (deps.has_nw()) r = (r ^ nb.nw) * 0x100000001b3ULL;
        if (deps.has_n()) r = (r ^ nb.n) * 0x100000001b3ULL;
        if (deps.has_ne()) r = (r ^ nb.ne) * 0x100000001b3ULL;
        return r;
      });
}

TEST_P(AllSetsTest, AllModesMatchSerialReference) {
  const Case c = GetParam();
  const auto probe = make_probe(c);

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);

  cfg.mode = Mode::kCpuParallel;
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid())
      << "cpu-parallel";

  cfg.mode = Mode::kGpu;
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid()) << "gpu";

  const HeteroParams sweeps[] = {
      {-1, -1},       // model defaults
      {0, 0},         // pure-GPU high-work path
      {0, 1000000},   // clamped: everything on the CPU strip
      {1000000, 0},   // clamped: maximal low-work region
      {1, 1},  {2, 3}, {3, 2}, {5, 5}, {7, 2},
  };
  for (const HeteroParams& hp : sweeps) {
    cfg.mode = Mode::kHeterogeneous;
    cfg.hetero = hp;
    EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid())
        << "hetero t_switch=" << hp.t_switch << " t_share=" << hp.t_share;
  }

  cfg.mode = Mode::kAuto;
  cfg.hetero = HeteroParams{};
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid()) << "auto";
}

// Fused graph submission is a pure timing-model change: for every
// contributing set and shape, fused and unfused runs must produce tables
// bit-identical to the serial reference — with and without a host pool and
// a shared buffer pool (the arenas repeated solves reuse).
TEST_P(AllSetsTest, FusedMatchesUnfusedAndSerial) {
  const Case c = GetParam();
  const auto probe = make_probe(c);

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);

  cpu::ThreadPool pool(3);
  sim::BufferPool buffers;
  const HeteroParams sweeps[] = {{-1, -1}, {0, 0}, {2, 3}, {5, 5}};
  for (const bool fused : {true, false}) {
    cfg.fused_launches = fused;
    cfg.pool = &pool;
    cfg.buffer_pool = &buffers;

    cfg.mode = Mode::kGpu;
    cfg.hetero = HeteroParams{};
    EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid())
        << "gpu fused=" << fused;

    cfg.mode = Mode::kHeterogeneous;
    for (const HeteroParams& hp : sweeps) {
      cfg.hetero = hp;
      EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid())
          << "hetero fused=" << fused << " t_switch=" << hp.t_switch
          << " t_share=" << hp.t_share;
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const std::size_t shapes[][2] = {{1, 1},  {1, 9},  {9, 1},  {2, 2},
                                   {6, 6},  {5, 11}, {11, 5}, {17, 17},
                                   {23, 8}, {8, 23}};
  for (int mask = 1; mask <= 15; ++mask)
    for (const auto& s : shapes) cases.push_back(Case{mask, s[0], s[1]});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, AllSetsTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const ContributingSet cs(static_cast<std::uint8_t>(info.param.mask));
      std::string name = cs.to_string() + "_" +
                         std::to_string(info.param.rows) + "x" +
                         std::to_string(info.param.cols);
      for (char& ch : name)
        if (ch == '+') ch = '_';
      return name;
    });

// Larger spot checks: one bigger shape per canonical pattern so the split
// strategies run deep phase-2 regions with realistic front counts.
TEST(AllSetsLargeTest, AntiDiagonalLarge) {
  const Case c{0b0111 /*W+NW+N*/, 97, 139};
  const auto probe = make_probe(c);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {17, 23};
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid());
}

TEST(AllSetsLargeTest, KnightMoveLarge) {
  const Case c{0b1111, 83, 127};
  const auto probe = make_probe(c);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {31, 19};
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid());
}

TEST(AllSetsLargeTest, HorizontalCase2Large) {
  const Case c{0b1110 /*NW+N+NE*/, 71, 111};
  const auto probe = make_probe(c);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 37};
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid());
}

TEST(AllSetsLargeTest, InvertedLLarge) {
  const Case c{0b0010 /*NW*/, 89, 67};
  const auto probe = make_probe(c);
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, cfg);
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {11, 29};
  EXPECT_EQ(solve(probe, cfg).table.to_grid(), ref.table.to_grid());
}

}  // namespace
}  // namespace lddp
