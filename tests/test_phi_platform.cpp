// The Xeon Phi accelerator preset — the paper's conclusion asks "how does
// a heterogeneous approach impact the implementation if the system has
// some other accelerators like Intel Xeon-Phi"; the framework answers by
// treating the Phi as another simulated device.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/levenshtein.h"

namespace lddp {
namespace {

TEST(PhiPlatformTest, PresetSanity) {
  const sim::GpuSpec phi = sim::GpuSpec::xeon_phi_5110p();
  EXPECT_EQ(phi.sm_count, 60);
  EXPECT_EQ(phi.cores_per_sm, 16);
  EXPECT_EQ(phi.warp_size, 16);
  EXPECT_GT(phi.launch_overhead_us,
            sim::GpuSpec::tesla_k20().launch_overhead_us);
  const sim::PlatformSpec p = sim::PlatformSpec::hetero_phi();
  EXPECT_EQ(p.name, "Hetero-Phi");
  EXPECT_EQ(p.cpu.cores, 6);  // same host as Hetero-High
}

TEST(PhiPlatformTest, ResultsAreIdenticalAcrossAccelerators) {
  problems::LevenshteinProblem p(problems::random_sequence(150, 3),
                                 problems::random_sequence(170, 4));
  RunConfig k20;
  k20.mode = Mode::kHeterogeneous;
  k20.platform = sim::PlatformSpec::hetero_high();
  RunConfig phi = k20;
  phi.platform = sim::PlatformSpec::hetero_phi();
  EXPECT_EQ(solve(p, k20).table.to_grid(), solve(p, phi).table.to_grid());
}

TEST(PhiPlatformTest, PhiSitsBetweenTheTwoGpusAtScale) {
  // The Phi's offload latency makes it launch-bound (and slower than even
  // the GT 650M) on small fronts; its memory bandwidth wins once every
  // front moves real traffic. The checkerboard's constant full-width
  // fronts at 6k are past that crossover: K20 < Phi < GT 650M.
  problems::CheckerboardProblem p(problems::random_cost_board(6144, 6144, 9));
  auto time_with = [&](sim::PlatformSpec spec) {
    RunConfig cfg;
    cfg.mode = Mode::kGpu;
    cfg.platform = std::move(spec);
    return solve(p, cfg).stats.sim_seconds;
  };
  const double k20 = time_with(sim::PlatformSpec::hetero_high());
  const double phi = time_with(sim::PlatformSpec::hetero_phi());
  const double gt = time_with(sim::PlatformSpec::hetero_low());
  EXPECT_LT(k20, phi);
  EXPECT_LT(phi, gt);
}

TEST(PhiPlatformTest, OffloadLatencyHurtsSmallTables) {
  // The flip side: on a small table the GT 650M's cheaper launches win.
  problems::LevenshteinProblem p(problems::random_sequence(600, 9),
                                 problems::random_sequence(600, 10));
  RunConfig phi_cfg;
  phi_cfg.mode = Mode::kGpu;
  phi_cfg.platform = sim::PlatformSpec::hetero_phi();
  RunConfig gt_cfg = phi_cfg;
  gt_cfg.platform = sim::PlatformSpec::hetero_low();
  EXPECT_GT(solve(p, phi_cfg).stats.sim_seconds,
            solve(p, gt_cfg).stats.sim_seconds);
}

TEST(PhiPlatformTest, HeterogeneousStillBeatsPureModesOnPhi) {
  problems::LevenshteinProblem p(problems::random_sequence(2048, 7),
                                 problems::random_sequence(2048, 8));
  RunConfig cfg;
  cfg.platform = sim::PlatformSpec::hetero_phi();
  cfg.mode = Mode::kHeterogeneous;
  const double het = solve(p, cfg).stats.sim_seconds;
  cfg.mode = Mode::kGpu;
  const double acc = solve(p, cfg).stats.sim_seconds;
  EXPECT_LT(het, acc);
}

}  // namespace
}  // namespace lddp
