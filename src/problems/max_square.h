// Maximal all-ones square — the classic "largest square sub-matrix"
// DP: side(i,j) = grid(i,j) ? 1 + min(side(W), side(NW), side(N)) : 0.
// Contributing set {W, NW, N} — anti-diagonal pattern.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/front_span.h"
#include "core/lane_kernels.h"
#include "core/problem.h"
#include "tables/grid.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace lddp::problems {

class MaxSquareProblem {
 public:
  using Value = std::int32_t;

  explicit MaxSquareProblem(Grid<std::uint8_t> bits)
      : bits_(std::move(bits)) {}

  std::size_t rows() const { return bits_.rows(); }
  std::size_t cols() const { return bits_.cols(); }

  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};
  }

  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    if (!bits_.at(i, j)) return 0;
    if (i == 0 || j == 0) return 1;
    return 1 + std::min(nb.w, std::min(nb.nw, nb.n));
  }

  /// Batch-front hook for anti-diagonal spans: a branchless lane loop
  /// over the packed neighbour spans (the bit grid is strided along the
  /// diagonal, so the win is the hoisted interior/boundary split and the
  /// dense min over three unit-stride spans, not SIMD).
  bool compute_front(const FrontSpan<Value>& s) const {
    if (s.lanes != 1) return false;  // interleaved spans: lane kernels
    if (s.di != 1 || s.dj != -1) return false;
    const std::uint8_t* const bit = &bits_.at(s.i0, s.j0);
    const std::ptrdiff_t stride =
        static_cast<std::ptrdiff_t>(bits_.cols()) - 1;
    for (std::size_t k = 0; k < s.len; ++k) {
      const Value mn = std::min(s.w[k], std::min(s.nw[k], s.n[k]));
      s.out[k] =
          bit[static_cast<std::ptrdiff_t>(k) * stride] != 0 ? mn + 1 : 0;
    }
    return true;
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{10.0, 40.0, 17.0}; }
  std::size_t input_bytes() const { return bits_.size(); }
  std::size_t result_bytes() const { return cols() * sizeof(Value); }

  const Grid<std::uint8_t>& bits() const { return bits_; }

 private:
  Grid<std::uint8_t> bits_;
};

/// Random 0/1 grid with the given fill probability.
inline Grid<std::uint8_t> random_bit_grid(std::size_t rows, std::size_t cols,
                                          std::uint64_t seed,
                                          double p_one = 0.7) {
  Grid<std::uint8_t> g(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      g.at(i, j) = rng.uniform01() < p_one ? 1 : 0;
  return g;
}

/// Largest square side from a solved table (a Grid or a FrontierTable).
template <typename Table>
std::int32_t max_square_side(const Table& t) {
  std::int32_t best = 0;
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      best = std::max(best, t.at(i, j));
  return best;
}

/// Brute-force reference: checks every candidate square (small inputs).
inline std::int32_t max_square_brute_force(const Grid<std::uint8_t>& g) {
  const std::size_t n = g.rows(), m = g.cols();
  std::int32_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t limit = std::min(n - i, m - j);
      for (std::size_t side = static_cast<std::size_t>(best) + 1;
           side <= limit; ++side) {
        bool all_ones = true;
        for (std::size_t di = 0; di < side && all_ones; ++di)
          for (std::size_t dj = 0; dj < side && all_ones; ++dj)
            all_ones = g.at(i + di, j + dj) != 0;
        if (!all_ones) break;
        best = static_cast<std::int32_t>(side);
      }
    }
  }
  return best;
}

}  // namespace lddp::problems

namespace lddp::lanes {

/// Inter-solve lane execution: the kMaxSquare kernel over each row's
/// occupancy bits widened to interleaved int32 (0 / 1). Interior cells
/// only (i, j >= 1), so the kernel's branchless form matches the scalar
/// recurrence exactly.
template <>
struct LaneTraits<problems::MaxSquareProblem> {
  static constexpr bool enabled = true;

  struct State {
    RowKernelFn fn = nullptr;
    std::size_t min_cols = 0;
    AlignedBuf<std::int32_t> bits;  ///< row i's bits, widened + interleaved
  };

  static State make(const problems::MaxSquareProblem* const* /*lanes*/,
                    std::size_t width, std::size_t /*min_rows*/,
                    std::size_t min_cols) {
    State st;
    st.fn = row_kernel(RowOp::kMaxSquare, width);
    st.min_cols = min_cols;
    st.bits.ensure(min_cols * width);
    return st;
  }

  static void fill_row(State& st,
                       const problems::MaxSquareProblem* const* lanes,
                       std::size_t width, std::size_t i) {
    std::int32_t* const b = st.bits.data();
    for (std::size_t j = 1; j < st.min_cols; ++j)
      for (std::size_t s = 0; s < width; ++s)
        b[j * width + s] = lanes[s]->bits().at(i, j) != 0 ? 1 : 0;
  }

  static void run(const State& st, RowCtx<std::int32_t> ctx) {
    ctx.col_b = st.bits.data();
    st.fn(ctx);
  }
};

}  // namespace lddp::lanes
