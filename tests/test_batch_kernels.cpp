// Differential and property tests for the batch-front (SIMD) cell
// kernels: RunConfig::batch_kernels = true must produce bit-identical
// tables to the scalar per-cell path across every contributing set,
// execution mode, tiling setting and table shape — and the front runner
// must hand every interior cell to the hook exactly once with a valid
// span, covering the rest through the scalar fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/front_runner.h"
#include "cpu/thread_pool.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/gotoh.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/max_square.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "tables/layout.h"
#include "util/rng.h"
#include "util/simd.h"

namespace lddp {
namespace {

// ---------------------------------------------------------------------
// A configurable-deps problem whose batch hook accepts *any* span shape
// with a scalar lane loop — so every layout's packing path (unit-stride
// rows, strided anti-diagonal gathers, two-run shells) is exercised.
class SyntheticBatchProblem {
 public:
  using Value = std::int32_t;

  SyntheticBatchProblem(std::size_t rows, std::size_t cols,
                        ContributingSet deps)
      : rows_(rows), cols_(cols), deps_(deps) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  ContributingSet deps() const { return deps_; }
  Value boundary() const { return 12345; }

  Value combine(std::size_t i, std::size_t j, Value w, Value nw, Value n,
                Value ne) const {
    Value v = static_cast<Value>((i * 31 + j * 17) % 257);
    if (deps_.has_w()) v += 3 * (w & 0xffff);
    if (deps_.has_nw()) v += 5 * (nw & 0xffff);
    if (deps_.has_n()) v += 7 * (n & 0xffff);
    if (deps_.has_ne()) v += 9 * (ne & 0xffff);
    return v;
  }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    return combine(i, j, nb.w, nb.nw, nb.n, nb.ne);
  }

  bool compute_front(const FrontSpan<Value>& s) const {
    for (std::size_t k = 0; k < s.len; ++k) {
      const auto i = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.i0) +
          static_cast<std::int64_t>(k) * s.di);
      const auto j = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.j0) +
          static_cast<std::int64_t>(k) * s.dj);
      s.out[k] = combine(i, j, deps_.has_w() ? s.w[k] : 0,
                         deps_.has_nw() ? s.nw[k] : 0,
                         deps_.has_n() ? s.n[k] : 0,
                         deps_.has_ne() ? s.ne[k] : 0);
    }
    return true;
  }

 private:
  std::size_t rows_, cols_;
  ContributingSet deps_;
};
static_assert(has_batch_front_v<SyntheticBatchProblem>);

// gtest's ASSERT_* only works in void functions; emulate for bool.
#define ASSERT_LT_OR_RETURN(a, b)  \
  if (!((a) < (b))) {              \
    ADD_FAILURE() << #a " >= " #b; \
    return false;                  \
  }

// Wraps SyntheticBatchProblem with per-cell bookkeeping: which cells the
// hook computed, which the scalar fallback computed, and whether every
// span handed to the hook was interior and in-range.
class RecordingProblem {
 public:
  using Value = std::int32_t;

  RecordingProblem(const SyntheticBatchProblem& base, Grid<std::int32_t>* hook,
                   Grid<std::int32_t>* scalar)
      : base_(base), hook_(hook), scalar_(scalar) {}

  std::size_t rows() const { return base_.rows(); }
  std::size_t cols() const { return base_.cols(); }
  ContributingSet deps() const { return base_.deps(); }
  Value boundary() const { return base_.boundary(); }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    ++scalar_->at(i, j);
    return base_.compute(i, j, nb);
  }

  bool compute_front(const FrontSpan<Value>& s) const {
    EXPECT_GE(s.len, detail::kMinBatchRun);
    const ContributingSet d = base_.deps();
    for (std::size_t k = 0; k < s.len; ++k) {
      const auto i = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.i0) +
          static_cast<std::int64_t>(k) * s.di);
      const auto j = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.j0) +
          static_cast<std::int64_t>(k) * s.dj);
      ASSERT_LT_OR_RETURN(i, rows());
      ASSERT_LT_OR_RETURN(j, cols());
      EXPECT_GE(i, 1u) << "span reaches the top boundary row";
      EXPECT_GE(j, 1u) << "span reaches the left boundary column";
      if (d.has_ne()) {
        EXPECT_LT(j + 1, cols()) << "NE span reaches the right edge";
      }
      ++hook_->at(i, j);
    }
    return base_.compute_front(s);
  }

 private:
  const SyntheticBatchProblem& base_;
  Grid<std::int32_t>* hook_;
  Grid<std::int32_t>* scalar_;
};

// ---------------------------------------------------------------------
// Differential: batch on == batch off, bit for bit.

template <typename P>
void expect_batch_identical(const P& p, RunConfig cfg,
                            const std::string& what) {
  cfg.batch_kernels = false;
  const auto off = solve(p, cfg);
  cfg.batch_kernels = true;
  const auto on = solve(p, cfg);
  ASSERT_EQ(on.table.rows(), off.table.rows());
  ASSERT_EQ(on.table.cols(), off.table.cols());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < on.table.rows() && bad < 5; ++i)
    for (std::size_t j = 0; j < on.table.cols() && bad < 5; ++j)
      if (!(on.table.at(i, j) == off.table.at(i, j))) {
        ADD_FAILURE() << what << ": mismatch at (" << i << ", " << j << ")";
        ++bad;
      }
  // The knob must not change anything the stats derive from the table.
  EXPECT_EQ(on.stats.cells, off.stats.cells) << what;
}

struct Shape {
  std::size_t rows, cols;
};
constexpr Shape kShapes[] = {{1, 1},   {1, 64},  {64, 1},
                             {64, 64}, {33, 77}, {128, 5}};

TEST(BatchKernels, DifferentialAllContributingSets) {
  for (std::uint8_t mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps{mask};
    for (const Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                            Mode::kHeterogeneous}) {
      for (const long long tile : {0LL, 32LL}) {
        for (const Shape& sh : kShapes) {
          SyntheticBatchProblem p(sh.rows, sh.cols, deps);
          RunConfig cfg;
          cfg.mode = mode;
          cfg.tile = tile;
          expect_batch_identical(
              p, cfg,
              "deps=" + deps.to_string() + " mode=" + to_string(mode) +
                  " tile=" + std::to_string(tile) + " " +
                  std::to_string(sh.rows) + "x" + std::to_string(sh.cols));
        }
      }
    }
    // CPU tiling handles NE-free sets only.
    if (!deps.has_ne()) {
      for (const Shape& sh : kShapes) {
        SyntheticBatchProblem p(sh.rows, sh.cols, deps);
        RunConfig cfg;
        cfg.mode = Mode::kCpuTiled;
        cfg.cpu_tile = 16;
        expect_batch_identical(p, cfg,
                               "deps=" + deps.to_string() + " cpu_tiled " +
                                   std::to_string(sh.rows) + "x" +
                                   std::to_string(sh.cols));
      }
    }
  }
}

TEST(BatchKernels, DifferentialWithThreadPool) {
  cpu::ThreadPool pool(4);
  for (const std::uint8_t mask :
       {std::uint8_t{0b0111}, std::uint8_t{0b1110}, std::uint8_t{0b0010}}) {
    const ContributingSet deps{mask};
    SyntheticBatchProblem p(128, 128, deps);
    for (const Mode mode : {Mode::kCpuParallel, Mode::kHeterogeneous}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.pool = &pool;
      expect_batch_identical(p, cfg,
                             "pooled deps=" + deps.to_string() +
                                 " mode=" + to_string(mode));
    }
  }
}

std::string random_seq(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlpha[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) s[i] = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

TEST(BatchKernels, DifferentialRealProblems) {
  const std::string a = random_seq(91, 7), b = random_seq(57, 9);
  const problems::LevenshteinProblem lev(a, b);
  const problems::LcsProblem lcs(a, b);
  const problems::GotohProblem gotoh(a, b);
  const problems::NeedlemanWunschProblem nw(a, b);
  const problems::SmithWatermanProblem sw(a, b);
  const problems::MaxSquareProblem sq(problems::random_bit_grid(80, 70, 21));
  const problems::CheckerboardProblem chk(
      problems::random_cost_board(60, 90, 22));
  const problems::SeamCarveProblem seam(
      problems::random_cost_board(90, 60, 23));
  const problems::MaxNwProblem maxnw(problems::random_input_grid(70, 70, 24),
                                     3);
  problems::MinNwNProblem minnwn(64, 96, 1);

  for (const Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                          Mode::kHeterogeneous}) {
    for (const long long tile : {0LL, 32LL}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.tile = tile;
      const std::string tag =
          " mode=" + to_string(mode) + " tile=" + std::to_string(tile);
      expect_batch_identical(lev, cfg, "levenshtein" + tag);
      expect_batch_identical(lcs, cfg, "lcs" + tag);
      expect_batch_identical(gotoh, cfg, "gotoh" + tag);
      expect_batch_identical(nw, cfg, "nw" + tag);
      expect_batch_identical(sw, cfg, "sw" + tag);
      expect_batch_identical(sq, cfg, "max_square" + tag);
      expect_batch_identical(chk, cfg, "checkerboard" + tag);
      expect_batch_identical(seam, cfg, "seam" + tag);
      expect_batch_identical(maxnw, cfg, "maxnw" + tag);
      expect_batch_identical(minnwn, cfg, "minnwn" + tag);
    }
  }
}

// ---------------------------------------------------------------------
// Span level: each sequence problem's compute_front must equal its
// per-cell compute lane for lane, on anti-diagonal spans of every length
// 1..37 (so every vector-loop count and every 1-3 lane tail), with
// unaligned neighbour spans and arbitrary neighbour values — including
// gotoh's kNegInf "unreachable" sentinels in any state field.

std::int32_t random_score(Rng& rng) {
  return static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
}
problems::GotohCell random_value(Rng& rng, const problems::GotohCell*) {
  auto field = [&rng] {
    return rng.uniform_int(0, 3) == 0 ? problems::GotohCell::kNegInf
                                      : random_score(rng);
  };
  problems::GotohCell c;
  c.m = field();
  c.x = field();
  c.y = field();
  return c;
}
std::int32_t random_value(Rng& rng, const std::int32_t*) {
  return random_score(rng);
}

template <typename P>
void expect_spans_match_compute(const P& p, const std::string& what,
                                std::uint64_t seed) {
  using V = typename P::Value;
  Rng rng(seed);
  const std::size_t n = p.rows() - 1, m = p.cols() - 1;  // interior extent
  for (std::size_t len = 1; len <= 37; ++len) {
    ASSERT_LE(len, std::min(n, m)) << what;
    // A random start, and a random misalignment of every span.
    const std::size_t i0 = 1 + static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(n - len)));
    const std::size_t j0 =
        len + static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(m - len)));
    std::vector<V> buf[4];
    const V* in[3];
    for (std::size_t s = 0; s < 4; ++s) {
      const std::size_t skew = static_cast<std::size_t>(rng.uniform_int(0, 3));
      buf[s].resize(skew + len);
      for (V& v : buf[s]) v = random_value(rng, &v);
      if (s < 3) in[s] = buf[s].data() + skew;
    }
    V* const out = buf[3].data() + (buf[3].size() - len);
    FrontSpan<V> span;
    span.i0 = i0;
    span.j0 = j0;
    span.di = 1;
    span.dj = -1;
    span.len = len;
    span.w = in[0];
    span.nw = in[1];
    span.n = in[2];
    span.out = out;
    ASSERT_TRUE(p.compute_front(span)) << what << " len " << len;
    for (std::size_t k = 0; k < len; ++k) {
      const Neighbors<V> nb{in[0][k], in[1][k], in[2][k], p.boundary()};
      EXPECT_TRUE(out[k] == p.compute(i0 + k, j0 - k, nb))
          << what << " len " << len << " lane " << k;
    }
  }
}

TEST(BatchKernels, SpansMatchPerCellCompute) {
  const std::string a = random_seq(53, 31), b = random_seq(47, 32);
  expect_spans_match_compute(problems::LevenshteinProblem(a, b),
                             "levenshtein", 1);
  expect_spans_match_compute(problems::LcsProblem(a, b), "lcs", 2);
  expect_spans_match_compute(problems::NeedlemanWunschProblem(a, b), "nw",
                             3);
  expect_spans_match_compute(problems::SmithWatermanProblem(a, b), "sw", 4);
  expect_spans_match_compute(problems::GotohProblem(a, b), "gotoh", 5);
  // Non-default scores, so no lane can pass by a constant coincidence.
  const problems::AlignmentScores nw_scores{5, -3, -7}, sw_scores{3, -2, -4};
  expect_spans_match_compute(problems::NeedlemanWunschProblem(a, b, nw_scores),
                             "nw scored", 6);
  expect_spans_match_compute(problems::SmithWatermanProblem(a, b, sw_scores),
                             "sw scored", 7);
  expect_spans_match_compute(
      problems::GotohProblem(a, b, problems::AffineScores{3, -2, -6, -2}),
      "gotoh scored", 8);
}

// The SIMD 3-field (de)interleave the gotoh kernel is built on: a round
// trip through registers is the identity, and each register holds one
// field of the 4 records.
TEST(BatchKernels, ThreeFieldInterleaveRoundTrip) {
  std::int32_t in[12], out[12];
  for (int k = 0; k < 12; ++k) in[k] = 100 * (k % 3) + k / 3;
  simd::I32x4 f[3];
  simd::load3_deinterleave(in, f[0], f[1], f[2]);
  for (int c = 0; c < 3; ++c) {
    std::int32_t lanes[4];
    f[c].store(lanes);
    for (int k = 0; k < 4; ++k) EXPECT_EQ(lanes[k], 100 * c + k);
  }
  simd::store3_interleave(out, f[0], f[1], f[2]);
  for (int k = 0; k < 12; ++k) EXPECT_EQ(out[k], in[k]);
}

// ---------------------------------------------------------------------
// Property: over every layout, running fronts through run_front_range in
// arbitrary [lo, hi) chunks computes each cell exactly once (hook or
// scalar, never both), hands the hook only valid interior spans, and
// reproduces the plain row-major reference table.

template <typename Layout>
void run_layout_property(const Layout& layout, ContributingSet deps,
                         std::uint64_t seed) {
  const std::size_t rows = layout.rows(), cols = layout.cols();
  SyntheticBatchProblem base(rows, cols, deps);
  Grid<std::int32_t> hook_counts(rows, cols, 0);
  Grid<std::int32_t> scalar_counts(rows, cols, 0);
  RecordingProblem p(base, &hook_counts, &scalar_counts);

  std::vector<std::int32_t> storage(layout.size(), 0);
  auto addr = [&](std::size_t i, std::size_t j) {
    return storage.data() + layout.flat(i, j);
  };
  Rng rng(seed);
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    const std::size_t fs = layout.front_size(f);
    std::size_t lo = 0;
    while (lo < fs) {
      const std::size_t hi = std::min<std::size_t>(
          fs, lo + static_cast<std::size_t>(rng.uniform_int(
                      1, static_cast<std::int64_t>(fs))));
      detail::run_front_range(p, deps, p.boundary(), layout, f, lo, hi, addr,
                              /*batch=*/true);
      lo = hi;
    }
  }

  // Reference: plain row-major scalar sweep (valid for every set here —
  // all four offsets point to earlier rows or earlier columns).
  Grid<std::int32_t> ref(rows, cols, 0);
  auto read_ref = [&](std::size_t i, std::size_t j) { return ref.at(i, j); };
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      ref.at(i, j) = detail::compute_cell(base, deps, base.boundary(), i, j,
                                          cols, read_ref);

  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows && bad < 5; ++i) {
    for (std::size_t j = 0; j < cols && bad < 5; ++j) {
      const std::int32_t times =
          hook_counts.at(i, j) + scalar_counts.at(i, j);
      if (times != 1) {
        ADD_FAILURE() << "cell (" << i << ", " << j << ") computed "
                      << times << " times";
        ++bad;
      }
      if (storage[layout.flat(i, j)] != ref.at(i, j)) {
        ADD_FAILURE() << "value mismatch at (" << i << ", " << j << ")";
        ++bad;
      }
    }
  }
}

TEST(BatchKernels, FrontRunTilingProperty) {
  constexpr Shape kPropShapes[] = {{1, 1},   {1, 37},  {37, 1}, {17, 23},
                                   {40, 9},  {9, 40},  {64, 64}};
  std::uint64_t seed = 1000;
  for (const Shape& sh : kPropShapes) {
    const std::size_t n = sh.rows, m = sh.cols;
    run_layout_property(RowMajorLayout(n, m),
                        ContributingSet{Dep::kNW, Dep::kN, Dep::kNE},
                        ++seed);
    run_layout_property(ColumnMajorLayout(n, m),
                        ContributingSet{Dep::kW, Dep::kNW}, ++seed);
    run_layout_property(AntiDiagonalLayout(n, m),
                        ContributingSet{Dep::kW, Dep::kNW, Dep::kN}, ++seed);
    run_layout_property(
        KnightMoveLayout(n, m),
        ContributingSet{Dep::kW, Dep::kNW, Dep::kN, Dep::kNE}, ++seed);
    run_layout_property(ShellLayout(n, m), ContributingSet{Dep::kNW},
                        ++seed);
    run_layout_property(MirrorShellLayout(n, m), ContributingSet{Dep::kNE},
                        ++seed);
  }
}

}  // namespace
}  // namespace lddp
