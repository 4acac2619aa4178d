#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/levenshtein.h"

namespace lddp::problems {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(levenshtein_reference("kitten", "sitting"), 3);
  EXPECT_EQ(levenshtein_reference("", ""), 0);
  EXPECT_EQ(levenshtein_reference("abc", ""), 3);
  EXPECT_EQ(levenshtein_reference("", "abcd"), 4);
  EXPECT_EQ(levenshtein_reference("same", "same"), 0);
  EXPECT_EQ(levenshtein_reference("flaw", "lawn"), 2);
}

TEST(LevenshteinTest, ProblemClassifiesAntiDiagonal) {
  LevenshteinProblem p("abc", "de");
  EXPECT_EQ(classify(p.deps()), Pattern::kAntiDiagonal);
  EXPECT_EQ(p.rows(), 4u);
  EXPECT_EQ(p.cols(), 3u);
  EXPECT_EQ(p.input_bytes(), 5u);
}

TEST(LevenshteinTest, FrameworkMatchesReferenceAllModes) {
  const std::string a = random_sequence(160, 21, "abcdef");
  const std::string b = random_sequence(190, 22, "abcdef");
  LevenshteinProblem p(a, b);
  const auto expected = levenshtein_reference(a, b);
  for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                    Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(solve(p, cfg).table.at(a.size(), b.size()), expected)
        << to_string(mode);
  }
}

TEST(LevenshteinTest, DistancePropertiesHold) {
  // Metric sanity on random pairs: symmetry and triangle inequality.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::string a = random_sequence(30 + seed * 7, seed * 3 + 1, "ab");
    const std::string b = random_sequence(25 + seed * 5, seed * 3 + 2, "ab");
    const std::string c = random_sequence(28 + seed * 3, seed * 3 + 3, "ab");
    const auto ab = levenshtein_reference(a, b);
    const auto ba = levenshtein_reference(b, a);
    const auto ac = levenshtein_reference(a, c);
    const auto cb = levenshtein_reference(c, b);
    EXPECT_EQ(ab, ba);
    EXPECT_LE(ab, ac + cb);
    EXPECT_GE(ab, std::abs(static_cast<long>(a.size()) -
                           static_cast<long>(b.size())));
  }
}

TEST(LevenshteinTest, FullTableMatchesSerialScan) {
  LevenshteinProblem p(random_sequence(90, 31), random_sequence(70, 32));
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  const auto ref = solve(p, serial);
  RunConfig hetero;
  hetero.mode = Mode::kHeterogeneous;
  hetero.hetero = {9, 17};
  EXPECT_EQ(solve(p, hetero).table.to_grid(), ref.table.to_grid());
}

}  // namespace
}  // namespace lddp::problems
