#include <gtest/gtest.h>

#include "cpu/calibrate.h"
#include "problems/alignment.h"
#include "problems/levenshtein.h"

namespace lddp::cpu {
namespace {

TEST(CalibrateTest, ProducesPositiveSaneCosts) {
  problems::LevenshteinProblem p(problems::random_sequence(400, 1),
                                 problems::random_sequence(400, 2));
  const CalibrationResult r =
      calibrate_work_profile(p, CpuSpec::i7_980(), 2);
  EXPECT_GT(r.ns_per_cell, 0.0);
  EXPECT_LT(r.ns_per_cell, 10000.0);  // < 10 us/cell on any machine
  EXPECT_NEAR(r.cycles_per_cell, r.ns_per_cell * 3.33, 1e-9);
  EXPECT_GE(r.suggested.cpu_cycles_per_cell, 1.0);
  // Non-calibrated fields come from the problem's own profile.
  EXPECT_DOUBLE_EQ(r.suggested.gpu_cycles_per_cell, p.work().gpu_cycles_per_cell);
  EXPECT_DOUBLE_EQ(r.suggested.bytes_per_cell, p.work().bytes_per_cell);
}

TEST(CalibrateTest, HeavierFunctionsMeasureSlower) {
  struct Light {
    using Value = std::int64_t;
    std::size_t rows() const { return 256; }
    std::size_t cols() const { return 256; }
    ContributingSet deps() const { return ContributingSet{Dep::kN}; }
    Value boundary() const { return 0; }
    Value compute(std::size_t i, std::size_t j,
                  const Neighbors<Value>& nb) const {
      return nb.n + static_cast<Value>(i + j);
    }
  };
  struct Heavy : Light {
    Value compute(std::size_t i, std::size_t j,
                  const Neighbors<Value>& nb) const {
      // Unsigned, so the LCG wraps instead of overflowing.
      std::uint64_t v = static_cast<std::uint64_t>(nb.n);
      for (int k = 0; k < 64; ++k)
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<Value>(v + i * j);
    }
  };
  const auto spec = CpuSpec::i7_980();
  const double light =
      calibrate_work_profile(Light{}, spec, 3).ns_per_cell;
  const double heavy =
      calibrate_work_profile(Heavy{}, spec, 3).ns_per_cell;
  EXPECT_GT(heavy, light * 2);
}

TEST(CalibrateTest, SampleCapKeepsCalibrationCheap) {
  problems::LevenshteinProblem p(problems::random_sequence(20000, 3),
                                 problems::random_sequence(2000, 4));
  Stopwatch sw;
  calibrate_work_profile(p, CpuSpec::i7_980(), 1, /*max_cells=*/1 << 18);
  EXPECT_LT(sw.seconds(), 2.0);  // sampled, not the full 40M-cell table
}

}  // namespace
}  // namespace lddp::cpu
