// Front-major table addressing (tables/front_major.h) and the full-table
// solves built on it: every diagonal-order solve() fills a front-major
// table and unpacks it once into the row-major grid. Checks the padded
// index geometry, the unpack against flat() for every layout, bit-identity
// of solve() against the serial scan for the anti-diagonal and knight-move
// patterns in every front-major mode, and that the transfer accounting of
// the heterogeneous strategies (shared table, no mirrored cells) is the
// same as before the tables were shared.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/floyd_steinberg.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"
#include "tables/front_major.h"

namespace lddp {
namespace {

using Shape = std::pair<std::size_t, std::size_t>;

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {{1, 1},  {1, 37}, {37, 1},  {2, 3},
                                       {3, 2},  {5, 17}, {17, 5},  {33, 33},
                                       {64, 130}, {130, 64}};
  return s;
}

std::int32_t code(std::size_t i, std::size_t j) {
  return static_cast<std::int32_t>(i * 100003 + j * 7 + 1);
}

template <typename Layout>
void check_index(const Layout& L, std::size_t value_bytes) {
  SCOPED_TRACE(::testing::Message()
               << L.rows() << "x" << L.cols() << " bytes=" << value_bytes);
  const FrontMajorIndex<Layout> idx(L, value_bytes);
  const FrontMajorIndex<Layout> dense(L);
  EXPECT_EQ(dense.size(), L.size());
  EXPECT_GE(idx.size(), L.size());
  const bool aligned = 64 % value_bytes == 0;
  std::set<std::size_t> seen;
  for (std::size_t f = 0; f < L.num_fronts(); ++f) {
    if (aligned) {
      EXPECT_EQ(idx.front_offset(f) * value_bytes % 64, 0u) << f;
    }
    EXPECT_LE(idx.front_offset(f) + L.front_size(f),
              f + 1 < L.num_fronts() ? idx.front_offset(f + 1) : idx.size());
    for (std::size_t p = 0; p < L.front_size(f); ++p) {
      const CellIndex c = L.cell(f, p);
      EXPECT_EQ(idx.flat(c.i, c.j), idx.front_offset(f) + p);
      EXPECT_EQ(dense.flat(c.i, c.j), L.flat(c.i, c.j));
      seen.insert(idx.flat(c.i, c.j));
    }
  }
  EXPECT_EQ(seen.size(), L.size());
}

TEST(FrontMajorIndexTest, FrontsAreContiguousPaddedAndDisjoint) {
  for (const auto& [n, m] : shapes()) {
    for (std::size_t bytes : {1u, 4u, 8u, 16u, 24u}) {
      check_index(RowMajorLayout(n, m), bytes);
      check_index(AntiDiagonalLayout(n, m), bytes);
      check_index(KnightMoveLayout(n, m), bytes);
      check_index(ShellLayout(n, m), bytes);
      check_index(MirrorShellLayout(n, m), bytes);
    }
  }
}

TEST(FrontMajorIndexTest, EqualFrontsNeverStartAPageMultipleApart) {
  // 1024 int32 cells are exactly 4 KiB: the middle fronts of this table
  // would all alias in the L1 sets without the one-line skew.
  const AntiDiagonalLayout L(1024, 3000);
  const FrontMajorIndex<AntiDiagonalLayout> idx(L, sizeof(std::int32_t));
  const std::size_t f = 1500;
  ASSERT_EQ(L.front_size(f), 1024u);
  ASSERT_EQ(L.front_size(f + 1), 1024u);
  const std::size_t step = idx.front_offset(f + 1) - idx.front_offset(f);
  EXPECT_NE(step * sizeof(std::int32_t) % 4096, 0u);
}

template <typename Layout>
void check_unpack(const Layout& L) {
  SCOPED_TRACE(::testing::Message() << L.rows() << "x" << L.cols());
  const FrontMajorIndex<Layout> idx(L, sizeof(std::int32_t));
  std::vector<std::int32_t> src(idx.size(), -1);
  for (std::size_t i = 0; i < L.rows(); ++i)
    for (std::size_t j = 0; j < L.cols(); ++j) src[idx.flat(i, j)] = code(i, j);
  const Grid<std::int32_t> g = unpack_front_major(src.data(), idx);
  for (std::size_t i = 0; i < L.rows(); ++i)
    for (std::size_t j = 0; j < L.cols(); ++j)
      ASSERT_EQ(g.at(i, j), code(i, j)) << i << "," << j;
  // A column range writes exactly those columns.
  Grid<std::int32_t> part(L.rows(), L.cols(), -7);
  const std::size_t j0 = L.cols() / 3, j1 = L.cols() - L.cols() / 4;
  unpack_front_major(src.data(), idx, part, j0, j1);
  for (std::size_t i = 0; i < L.rows(); ++i)
    for (std::size_t j = 0; j < L.cols(); ++j)
      ASSERT_EQ(part.at(i, j), j >= j0 && j < j1 ? code(i, j) : -7)
          << i << "," << j;
}

TEST(FrontMajorUnpackTest, MatchesFlatForEveryLayout) {
  for (const auto& [n, m] : shapes()) {
    check_unpack(RowMajorLayout(n, m));
    check_unpack(AntiDiagonalLayout(n, m));
    check_unpack(KnightMoveLayout(n, m));
    check_unpack(ShellLayout(n, m));
    check_unpack(MirrorShellLayout(n, m));
  }
}

TEST(FrontMajorUnpackTest, DenseUnpackTableMatchesLayoutFlat) {
  const KnightMoveLayout L(45, 70);
  std::vector<std::int32_t> src(L.size());
  for (std::size_t i = 0; i < L.rows(); ++i)
    for (std::size_t j = 0; j < L.cols(); ++j) src[L.flat(i, j)] = code(i, j);
  Grid<std::int32_t> g(L.rows(), L.cols());
  detail::unpack_table(src.data(), L, g, 0, L.cols());
  for (std::size_t i = 0; i < L.rows(); ++i)
    for (std::size_t j = 0; j < L.cols(); ++j)
      ASSERT_EQ(g.at(i, j), code(i, j));
}

// --- solve() bit-identity on the front-major paths ---------------------

template <typename P, typename Eq>
void check_modes(const P& p, Eq eq) {
  RunConfig ref_cfg;
  ref_cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(p, ref_cfg).table;
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    for (bool batch : {true, false}) {
      for (cpu::ThreadPool* pool :
           {static_cast<cpu::ThreadPool*>(nullptr),
            &cpu::shared_stealing_pool()}) {
        RunConfig cfg;
        cfg.mode = mode;
        cfg.batch_kernels = batch;
        cfg.pool = pool;
        const auto r = solve(p, cfg);
        EXPECT_TRUE(eq(r.table, ref))
            << p.rows() << "x" << p.cols() << " " << to_string(mode)
            << " batch=" << batch;
      }
    }
  }
}

TEST(FrontMajorSolveTest, AntiDiagonalMatchesSerial) {
  for (const auto& [n, m] : shapes()) {
    const problems::LevenshteinProblem lev(
        problems::random_sequence(n, n + 11), problems::random_sequence(m, m));
    check_modes(lev, [](const auto& a, const auto& b) { return a == b; });
    const problems::LcsProblem lcs(problems::random_sequence(n, 3 * n),
                                   problems::random_sequence(m, 5 * m));
    check_modes(lcs, [](const auto& a, const auto& b) { return a == b; });
  }
}

TEST(FrontMajorSolveTest, KnightMoveMatchesSerial) {
  auto eq = [](const Grid<problems::FsCell>& a,
               const Grid<problems::FsCell>& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j)
        if (std::memcmp(&a.at(i, j).err, &b.at(i, j).err, sizeof(double)) !=
                0 ||
            a.at(i, j).out != b.at(i, j).out)
          return false;
    return true;
  };
  for (const auto& [n, m] : shapes()) {
    const problems::FloydSteinbergProblem p(
        problems::plasma_image(n, m, n * 31 + m));
    check_modes(p, eq);
  }
}

// Fronts of 4096+ cells are the first the simulated device splits across
// host workers: chunks of one front write disjoint ranges of one
// front-major table.
TEST(FrontMajorSolveTest, WideFrontsOnTheStealingExecutorMatchSerial) {
  const problems::LevenshteinProblem p(problems::random_sequence(4099, 7),
                                       problems::random_sequence(4400, 8));
  RunConfig ref_cfg;
  ref_cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(p, ref_cfg).table;
  for (Mode mode : {Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.pool = &cpu::shared_stealing_pool();
    EXPECT_TRUE(solve(p, cfg).table == ref) << to_string(mode);
  }
}

TEST(FrontMajorSolveTest, DiagonalCpuWavefrontsReportTheStagingTable) {
  const problems::LevenshteinProblem p(problems::random_sequence(99, 1),
                                       problems::random_sequence(149, 2));
  RunConfig cfg;
  cfg.mode = Mode::kCpuParallel;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.peak_table_bytes, 2 * 100 * 150 * sizeof(int));
}

// Full-tier table high-water per mode x pattern, as reported by the store
// or the full-table strategy: the result grid (1x), plus the front-major
// table it is unpacked from or the device twin (2x). Row fronts on the
// host — CPU wavefronts and the heterogeneous row split — fill the grid
// in place.
TEST(FrontMajorSolveTest, PeakTableBytesPerModeAndPattern) {
  constexpr std::size_t n = 40, m = 70;
  struct Row {
    int mask;
    Pattern pattern;
    int serial, cpu, tiled, gpu, hetero;  // multiples of the grid
  };
  const Row rows[] = {
      {0b0101, Pattern::kAntiDiagonal, 1, 2, 1, 2, 2},  // W + N
      {0b0100, Pattern::kHorizontal, 1, 1, 1, 2, 1},    // N
      {0b1001, Pattern::kKnightMove, 1, 2, 1, 2, 2},    // W + NE
      {0b0010, Pattern::kInvertedL, 1, 1, 1, 2, 2},     // NW
  };
  for (const Row& row : rows) {
    const ContributingSet deps(static_cast<std::uint8_t>(row.mask));
    ASSERT_EQ(classify(deps), row.pattern);
    const auto p = problems::make_function_problem<int>(
        n, m, deps, 1,
        [](std::size_t i, std::size_t j, const Neighbors<int>& nb) {
          return static_cast<int>(i * 31 + j) ^ nb.w ^ nb.nw ^ nb.n ^ nb.ne;
        });
    const std::pair<Mode, int> expected[] = {
        {Mode::kCpuSerial, row.serial}, {Mode::kCpuParallel, row.cpu},
        {Mode::kCpuTiled, row.tiled},   {Mode::kGpu, row.gpu},
        {Mode::kHeterogeneous, row.hetero}};
    for (const auto& [mode, times] : expected) {
      RunConfig cfg;
      cfg.mode = mode;
      EXPECT_EQ(solve(p, cfg).stats.peak_table_bytes,
                static_cast<std::size_t>(times) * n * m * sizeof(int))
          << to_string(row.pattern) << " " << to_string(mode);
    }
  }
}

// Transfer accounting of the heterogeneous strategies: the byte and copy
// counts recorded when host and device each kept their own copy of the
// table. They depend only on the shape and the split.
constexpr std::size_t kLevH2d = 1704, kLevD2h = 1536, kLevH2dCopies = 302,
                      kLevD2hCopies = 2;
constexpr std::size_t kDitherH2d = 26000, kDitherD2h = 40784,
                      kDitherH2dCopies = 1, kDitherD2hCopies = 2;

TEST(FrontMajorSolveTest, HeteroTransferAccountingIsUnchanged) {
  {
    const problems::LevenshteinProblem p(problems::random_sequence(300, 1),
                                         problems::random_sequence(300, 2));
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    cfg.hetero = {40, 50};
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.h2d_bytes, kLevH2d);
    EXPECT_EQ(r.stats.d2h_bytes, kLevD2h);
    EXPECT_EQ(r.stats.h2d_copies, kLevH2dCopies);
    EXPECT_EQ(r.stats.d2h_copies, kLevD2hCopies);
  }
  {
    const problems::FloydSteinbergProblem p(problems::plasma_image(200, 200, 5));
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    cfg.hetero = {30, 70};
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.h2d_bytes, kDitherH2d);
    EXPECT_EQ(r.stats.d2h_bytes, kDitherD2h);
    EXPECT_EQ(r.stats.h2d_copies, kDitherH2dCopies);
    EXPECT_EQ(r.stats.d2h_copies, kDitherD2hCopies);
  }
}

}  // namespace
}  // namespace lddp
