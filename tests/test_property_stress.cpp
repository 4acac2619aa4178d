// Randomized end-to-end stress: random shapes, contributing sets, modes,
// platforms and split parameters, always compared against the serial scan.
// Complements the exhaustive-but-structured sweeps in
// test_strategies_correctness with irregular combinations.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/framework.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace lddp {
namespace {

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, RandomConfigurationMatchesSerial) {
  Rng rng(GetParam() * 0x9e37 + 17);
  const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 120));
  const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 120));
  const ContributingSet deps(
      static_cast<std::uint8_t>(rng.uniform_int(1, 15)));
  const std::uint64_t salt = rng();

  const auto p = problems::make_function_problem<std::uint64_t>(
      rows, cols, deps, salt ^ 0xabcdef,
      [deps, salt](std::size_t i, std::size_t j,
                   const Neighbors<std::uint64_t>& nb) {
        std::uint64_t r = salt + i * 1000003 + j * 10007;
        if (deps.has_w()) r = (r << 1) ^ nb.w;
        if (deps.has_nw()) r = (r >> 1) + nb.nw;
        if (deps.has_n()) r = r * 31 + nb.n;
        if (deps.has_ne()) r ^= nb.ne + 0x517cc1b727220a95ULL;
        return r;
      });

  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);

  RunConfig cfg;
  const int mode_pick = static_cast<int>(rng.uniform_int(0, 3));
  cfg.mode = mode_pick == 0   ? Mode::kCpuParallel
             : mode_pick == 1 ? Mode::kGpu
             : mode_pick == 2 ? Mode::kHeterogeneous
                              : Mode::kAuto;
  cfg.platform = rng.uniform_int(0, 2) == 0
                     ? sim::PlatformSpec::hetero_low()
                     : (rng.uniform_int(0, 1) ? sim::PlatformSpec::hetero_high()
                                              : sim::PlatformSpec::hetero_phi());
  if (rng.uniform_int(0, 1)) {
    cfg.hetero.t_switch = rng.uniform_int(0, 200);
    cfg.hetero.t_share = rng.uniform_int(0, 200);
  }
  const auto got = solve(p, cfg);
  EXPECT_EQ(got.table.to_grid(), ref.table.to_grid())
      << "deps=" << deps.to_string() << " " << rows << "x" << cols
      << " mode=" << to_string(cfg.mode)
      << " ts=" << cfg.hetero.t_switch << " sh=" << cfg.hetero.t_share;

  // Stats invariants that hold for every run.
  EXPECT_EQ(got.stats.cells, rows * cols);
  EXPECT_GE(got.stats.sim_seconds, 0.0);
  EXPECT_LE(got.stats.cpu_busy_seconds, got.stats.sim_seconds + 1e-12);
  EXPECT_LE(got.stats.gpu_busy_seconds, got.stats.sim_seconds + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<std::uint64_t>(0, 48));

}  // namespace
}  // namespace lddp
