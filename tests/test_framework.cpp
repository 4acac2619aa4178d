// API-level tests of lddp::solve: mode resolution, platform selection,
// stats consistency, and input validation.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

TEST(FrameworkTest, AutoPicksCpuForSmallTables) {
  problems::LevenshteinProblem p("kitten", "sitting");
  const auto r = solve(p);
  EXPECT_EQ(r.stats.mode_used, Mode::kCpuParallel);
  EXPECT_EQ(r.table.at(6, 7), 3);  // the classic answer
}

TEST(FrameworkTest, AutoPicksHeteroForLargeTables) {
  problems::LevenshteinProblem p(problems::random_sequence(700, 1),
                                 problems::random_sequence(700, 2));
  const auto r = solve(p);
  EXPECT_EQ(r.stats.mode_used, Mode::kHeterogeneous);
}

TEST(FrameworkTest, ExplicitModesAreHonoured) {
  problems::LevenshteinProblem p("abcdefgh", "aXcdeYgh");
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.mode_used, mode);
    EXPECT_EQ(r.table.at(8, 8), 2);
  }
}

TEST(FrameworkTest, PlatformsProduceDifferentSimTimes) {
  problems::LevenshteinProblem p(problems::random_sequence(600, 3),
                                 problems::random_sequence(600, 4));
  RunConfig high;
  high.mode = Mode::kGpu;
  high.platform = sim::PlatformSpec::hetero_high();
  RunConfig low = high;
  low.platform = sim::PlatformSpec::hetero_low();
  const double t_high = solve(p, high).stats.sim_seconds;
  const double t_low = solve(p, low).stats.sim_seconds;
  EXPECT_LT(t_high, t_low);  // K20 beats GT650M
}

TEST(FrameworkTest, SimTimesAreDeterministic) {
  problems::LevenshteinProblem p(problems::random_sequence(300, 5),
                                 problems::random_sequence(300, 6));
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto a = solve(p, cfg);
  const auto b = solve(p, cfg);
  EXPECT_DOUBLE_EQ(a.stats.sim_seconds, b.stats.sim_seconds);
  EXPECT_EQ(a.table.to_grid(), b.table.to_grid());
}

TEST(FrameworkTest, StatsClassificationFields) {
  problems::LevenshteinProblem p("hello", "world");
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.pattern, Pattern::kAntiDiagonal);
  EXPECT_EQ(r.stats.cells, 6u * 6u);
  EXPECT_EQ(r.stats.fronts, 11u);
}

TEST(FrameworkTest, GpuModeTransfersInputAndResult) {
  problems::LevenshteinProblem p(problems::random_sequence(100, 7),
                                 problems::random_sequence(100, 8));
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.h2d_bytes, 200u);  // both sequences
  // The distance consumer downloads the last row (result_bytes hook).
  EXPECT_EQ(r.stats.d2h_bytes, 101u * sizeof(std::int32_t));
}

TEST(FrameworkTest, CpuModesTouchNoPcie) {
  problems::LevenshteinProblem p(problems::random_sequence(64, 9),
                                 problems::random_sequence(64, 10));
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel}) {
    RunConfig cfg;
    cfg.mode = mode;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.h2d_bytes, 0u) << to_string(mode);
    EXPECT_EQ(r.stats.d2h_bytes, 0u) << to_string(mode);
    EXPECT_DOUBLE_EQ(r.stats.gpu_busy_seconds, 0.0) << to_string(mode);
  }
}

TEST(FrameworkTest, RealSecondsArePopulated) {
  problems::LevenshteinProblem p(problems::random_sequence(128, 11),
                                 problems::random_sequence(128, 12));
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  EXPECT_GT(solve(p, cfg).stats.real_seconds, 0.0);
}

TEST(FrameworkTest, ModeToString) {
  EXPECT_EQ(to_string(Mode::kCpuSerial), "cpu-serial");
  EXPECT_EQ(to_string(Mode::kHeterogeneous), "heterogeneous");
  EXPECT_EQ(to_string(Mode::kAuto), "auto");
}

TEST(FrameworkTest, WorkProfileHookIsOptional) {
  // A minimal problem without work()/input_bytes() still solves.
  struct Minimal {
    using Value = int;
    std::size_t rows() const { return 5; }
    std::size_t cols() const { return 5; }
    ContributingSet deps() const { return ContributingSet{Dep::kN}; }
    Value boundary() const { return 0; }
    Value compute(std::size_t i, std::size_t j,
                  const Neighbors<int>& nb) const {
      return static_cast<int>(i + j) + nb.n;
    }
  };
  static_assert(LddpProblem<Minimal>);
  Minimal p;
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto r = solve(p, cfg);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  EXPECT_EQ(r.table.to_grid(), solve(p, serial).table.to_grid());
}

}  // namespace
}  // namespace lddp
