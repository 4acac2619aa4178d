#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"

namespace lddp::problems {
namespace {

TEST(NeedlemanWunschTest, IdenticalSequencesScorePerfectly) {
  NeedlemanWunschProblem p("ACGT", "ACGT");
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.table.at(4, 4), 8);  // 4 matches x +2
}

TEST(NeedlemanWunschTest, AllGapsBaseline) {
  NeedlemanWunschProblem p("AAAA", "");
  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.table.at(4, 0), -8);  // 4 gaps x -2
}

TEST(NeedlemanWunschTest, TracebackReconstructsValidAlignment) {
  const std::string a = random_sequence(60, 51);
  const std::string b = random_sequence(70, 52);
  NeedlemanWunschProblem p(a, b);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto r = solve(p, cfg);
  const Alignment al = nw_traceback(p, r.table);
  // Same length, gaps never aligned to gaps, stripped strings recover the
  // inputs, and the recomputed score equals the table's corner.
  ASSERT_EQ(al.a.size(), al.b.size());
  std::string sa, sb;
  std::int32_t score = 0;
  for (std::size_t k = 0; k < al.a.size(); ++k) {
    ASSERT_FALSE(al.a[k] == '-' && al.b[k] == '-');
    if (al.a[k] != '-') sa += al.a[k];
    if (al.b[k] != '-') sb += al.b[k];
    if (al.a[k] == '-' || al.b[k] == '-')
      score += p.scores().gap;
    else
      score += al.a[k] == al.b[k] ? p.scores().match : p.scores().mismatch;
  }
  EXPECT_EQ(sa, a);
  EXPECT_EQ(sb, b);
  EXPECT_EQ(score, r.table.at(a.size(), b.size()));
  EXPECT_EQ(al.score, r.table.at(a.size(), b.size()));
}

TEST(NeedlemanWunschTest, AllModesAgree) {
  NeedlemanWunschProblem p(random_sequence(100, 53),
                           random_sequence(120, 54));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(SmithWatermanTest, NonNegativeEverywhere) {
  SmithWatermanProblem p(random_sequence(80, 61), random_sequence(90, 62));
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto r = solve(p, cfg);
  for (std::size_t i = 0; i < r.table.rows(); ++i)
    for (std::size_t j = 0; j < r.table.cols(); ++j)
      EXPECT_GE(r.table.at(i, j), 0);
}

TEST(SmithWatermanTest, FindsEmbeddedMotif) {
  // Plant a strong common substring inside two otherwise-random sequences.
  const std::string motif = "ACGTACGTACGTACGT";
  const std::string a = random_sequence(40, 63) + motif +
                        random_sequence(40, 64);
  const std::string b = random_sequence(30, 65) + motif +
                        random_sequence(30, 66);
  SmithWatermanProblem p(a, b);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const auto r = solve(p, cfg);
  EXPECT_GE(sw_best_score(r.table),
            static_cast<std::int32_t>(motif.size()) * p.scores().match);
}

TEST(SmithWatermanTest, LocalScoreAtLeastZeroForDisjointAlphabets) {
  SmithWatermanProblem p(random_sequence(50, 67, "AC"),
                         random_sequence(50, 68, "GT"));
  RunConfig cfg;
  cfg.mode = Mode::kCpuParallel;
  const auto r = solve(p, cfg);
  EXPECT_EQ(sw_best_score(r.table), 0);
}

TEST(SmithWatermanTest, TracebackRecoversPlantedMotif) {
  const std::string motif = "ACGTACGTACGTACGT";
  const std::string a = random_sequence(30, 91, "AC") + motif +
                        random_sequence(30, 92, "AC");
  const std::string b = random_sequence(25, 93, "GT") + motif +
                        random_sequence(25, 94, "GT");
  SmithWatermanProblem p(a, b);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto table = solve(p, cfg).table;
  const Alignment al = sw_traceback(p, table);
  EXPECT_EQ(al.score, sw_best_score(table));
  // The local alignment must contain the planted motif.
  EXPECT_NE(al.a.find(motif), std::string::npos);
  EXPECT_NE(al.b.find(motif), std::string::npos);
  // And rescoring the path reproduces the score.
  std::int32_t score = 0;
  for (std::size_t k = 0; k < al.a.size(); ++k) {
    if (al.a[k] == '-' || al.b[k] == '-')
      score += p.scores().gap;
    else
      score += al.a[k] == al.b[k] ? p.scores().match : p.scores().mismatch;
  }
  EXPECT_EQ(score, al.score);
}

TEST(SmithWatermanTest, AllModesAgree) {
  SmithWatermanProblem p(random_sequence(90, 71), random_sequence(85, 72));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.to_grid(), ref.table.to_grid())
        << to_string(mode);
  }
}

TEST(RandomSequenceTest, DeterministicAndAlphabetBound) {
  const std::string a = random_sequence(100, 7);
  const std::string b = random_sequence(100, 7);
  EXPECT_EQ(a, b);
  for (char c : a) EXPECT_NE(std::string("ACGT").find(c), std::string::npos);
  EXPECT_NE(a, random_sequence(100, 8));
}

}  // namespace
}  // namespace lddp::problems
