// Multi-accelerator (CPU + N devices) horizontal execution.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/framework.h"
#include "core/multi.h"
#include "problems/checkerboard.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

std::vector<sim::GpuSpec> two_gpus() {
  return {sim::GpuSpec::tesla_k20(), sim::GpuSpec::gt650m()};
}

TEST(MultiAcceleratorTest, PlatformHoldsSeveralDevices) {
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  EXPECT_EQ(platform.num_gpus(), 2u);
  EXPECT_EQ(platform.gpu(0).spec().sm_count, 13);
  EXPECT_EQ(platform.gpu(1).spec().sm_count, 2);
  EXPECT_THROW(platform.gpu(2), CheckError);
}

TEST(MultiAcceleratorTest, DevicesGetDistinctTimelineResources) {
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  auto& tl = platform.timeline();
  std::set<std::string> names;
  for (sim::Timeline::ResourceId r = 0; r < tl.resource_count(); ++r)
    names.insert(tl.resource_name(r));
  EXPECT_TRUE(names.count("cpu"));
  EXPECT_TRUE(names.count("gpu0.compute"));
  EXPECT_TRUE(names.count("gpu1.compute"));
  EXPECT_TRUE(names.count("gpu0.copy.h2d"));
  EXPECT_TRUE(names.count("gpu0.copy.d2h"));  // K20: two engines
  EXPECT_TRUE(names.count("gpu1.copy.h2d"));
  EXPECT_FALSE(names.count("gpu1.copy.d2h"));  // GT650M: one engine
}

TEST(MultiAcceleratorTest, Case1MatchesReference) {
  problems::MinNwNProblem p(130, 170, 1);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  SolveStats stats;
  const auto table = solve_multi_horizontal(p, platform, MultiSplit{}, &stats);
  EXPECT_EQ(table.to_grid(), ref.table.to_grid());
  EXPECT_GT(stats.gpu_busy_seconds, 0.0);
  // Every unit writes one host-visible table, the result grid itself.
  EXPECT_EQ(stats.peak_table_bytes,
            130 * 170 * sizeof(problems::MinNwNProblem::Value));
}

TEST(MultiAcceleratorTest, Case2MatchesReference) {
  const auto costs = problems::random_cost_board(120, 150, 3);
  problems::CheckerboardProblem p(costs);
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  SolveStats stats;
  const auto table = solve_multi_horizontal(p, platform, MultiSplit{}, &stats);
  EXPECT_EQ(table.to_grid(), problems::checkerboard_reference(costs));
  EXPECT_EQ(stats.transfer, TransferNeed::kTwoWay);
}

TEST(MultiAcceleratorTest, ExplicitSplitsStayCorrect) {
  const auto costs = problems::random_cost_board(60, 90, 4);
  problems::CheckerboardProblem p(costs);
  const auto ref = problems::checkerboard_reference(costs);
  const std::vector<std::vector<std::size_t>> splits = {
      {0, 45, 45},   // no CPU strip
      {88, 1, 1},    // almost everything on the CPU
      {30, 30, 30},  // even thirds
  };
  for (const auto& widths : splits) {
    sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
    const auto table =
        solve_multi_horizontal(p, platform, MultiSplit{widths}, nullptr);
    EXPECT_EQ(table.to_grid(), ref)
        << widths[0] << "/" << widths[1] << "/" << widths[2];
  }
}

TEST(MultiAcceleratorTest, ThreeDevices) {
  problems::MinNwNProblem p(100, 240, 2);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  sim::Platform platform(
      cpu::CpuSpec::i7_980(),
      {sim::GpuSpec::tesla_k20(), sim::GpuSpec::gt650m(),
       sim::GpuSpec::xeon_phi_5110p()});
  const auto table = solve_multi_horizontal(p, platform, MultiSplit{}, nullptr);
  EXPECT_EQ(table.to_grid(), ref.table.to_grid());
}

TEST(MultiAcceleratorTest, SecondDeviceHelpsOneWayPatternsAtScale) {
  // One-way boundary traffic (case-1) pipelines: the second device trails
  // by a constant transfer lag, so doubling devices nearly halves time.
  problems::MinNwNProblem p(4096, 16384, 1);
  SolveStats one, two;
  {
    sim::Platform platform(cpu::CpuSpec::i7_980(),
                           {sim::GpuSpec::tesla_k20()});
    solve_multi_horizontal(p, platform, MultiSplit{}, &one);
  }
  {
    sim::Platform platform(
        cpu::CpuSpec::i7_980(),
        {sim::GpuSpec::tesla_k20(), sim::GpuSpec::tesla_k20()});
    solve_multi_horizontal(p, platform, MultiSplit{}, &two);
  }
  EXPECT_LT(two.sim_seconds, one.sim_seconds);
}

TEST(MultiAcceleratorTest, TwoWayPingPongEatsTheSecondDevicesGain) {
  // Case-2 needs boundary cells in both directions every row; the staged
  // device<->device round trip lands on the critical path and (at widths
  // where one device is already efficient) makes two devices *slower* —
  // the honest flip side of fine-grained multi-accelerator splitting.
  problems::CheckerboardProblem p(problems::random_cost_board(2048, 2048, 5));
  SolveStats one, two;
  {
    sim::Platform platform(cpu::CpuSpec::i7_980(),
                           {sim::GpuSpec::tesla_k20()});
    solve_multi_horizontal(p, platform, MultiSplit{}, &one);
  }
  {
    sim::Platform platform(
        cpu::CpuSpec::i7_980(),
        {sim::GpuSpec::tesla_k20(), sim::GpuSpec::tesla_k20()});
    solve_multi_horizontal(p, platform, MultiSplit{}, &two);
  }
  EXPECT_GT(two.sim_seconds, one.sim_seconds);
}

TEST(MultiAcceleratorTest, InvalidSplitsRejected) {
  problems::MinNwNProblem p(20, 30, 1);
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  EXPECT_THROW(
      solve_multi_horizontal(p, platform, MultiSplit{{30}}, nullptr),
      CheckError);  // wrong arity
  EXPECT_THROW(
      solve_multi_horizontal(p, platform, MultiSplit{{10, 10, 5}}, nullptr),
      CheckError);  // doesn't sum to the width
}

TEST(MultiAcceleratorTest, RejectsNonHorizontalPattern) {
  const auto probe = problems::make_function_problem<std::uint64_t>(
      8, 8, ContributingSet{Dep::kW, Dep::kN}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>& nb) {
        return nb.w + nb.n;
      });
  sim::Platform platform(cpu::CpuSpec::i7_980(), two_gpus());
  EXPECT_THROW(solve_multi_horizontal(probe, platform, MultiSplit{}, nullptr),
               CheckError);
  // Vertical ({W, NW}): canonically Horizontal, but its rows are W chains
  // that the row strips would cross unpriced.
  const auto vertical = problems::make_function_problem<std::uint64_t>(
      8, 8, ContributingSet{Dep::kW, Dep::kNW}, 0ULL,
      [](std::size_t, std::size_t, const Neighbors<std::uint64_t>& nb) {
        return nb.w + nb.nw;
      });
  ASSERT_EQ(classify(vertical.deps()), Pattern::kVertical);
  EXPECT_THROW(
      solve_multi_horizontal(vertical, platform, MultiSplit{}, nullptr),
      CheckError);
}

TEST(MultiAcceleratorTest, EmptyDeviceListRejected) {
  EXPECT_THROW(sim::Platform(cpu::CpuSpec::i7_980(), {}), CheckError);
}

}  // namespace
}  // namespace lddp
