// Floyd–Steinberg error-diffusion dithering (Section VI-B, Fig 12) —
// knight-move pattern, the paper's reproduction of Deshpande et al.
//
// The classic algorithm pushes each pixel's quantization error forward to
// (i, j+1), (i+1, j-1), (i+1, j), (i+1, j+1) with weights 7/16, 3/16,
// 5/16, 1/16. The equivalent *pull* (gather) formulation used here — and
// required by any wavefront parallelization — computes each cell from the
// errors of its W, NW, N, NE neighbours (Figure 11's scheduling
// constraint):
//
//   acc(i,j) = in(i,j) + 7/16 err(i,j-1) + 1/16 err(i-1,j-1)
//                      + 5/16 err(i-1,j) + 3/16 err(i-1,j+1)
//   out(i,j) = acc < threshold ? 0 : 255;   err(i,j) = acc - out(i,j)
//
// The contributing set is the full {W, NW, N, NE} — knight-move.
#pragma once

#include <cstdint>

#include "core/problem.h"
#include "problems/image.h"
#include "tables/grid.h"

namespace lddp::problems {

/// Per-pixel state carried through the table: the signed residual error
/// and the quantized output level.
struct FsCell {
  double err = 0.0;
  std::uint8_t out = 0;
};
static_assert(std::is_trivially_copyable_v<FsCell>);

class FloydSteinbergProblem {
 public:
  using Value = FsCell;

  explicit FloydSteinbergProblem(GrayImage input, double threshold = 128.0)
      : input_(std::move(input)), threshold_(threshold) {}

  std::size_t rows() const { return input_.rows(); }
  std::size_t cols() const { return input_.cols(); }

  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN, Dep::kNE};
  }

  /// Out-of-image neighbours contribute zero error.
  Value boundary() const { return FsCell{0.0, 0}; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    const double acc = static_cast<double>(input_.at(i, j)) +
                       (7.0 / 16.0) * nb.w.err + (1.0 / 16.0) * nb.nw.err +
                       (5.0 / 16.0) * nb.n.err + (3.0 / 16.0) * nb.ne.err;
    FsCell cell;
    cell.out = acc < threshold_ ? 0 : 255;
    cell.err = acc - static_cast<double>(cell.out);
    return cell;
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{18.0, 60.0, 28.0}; }
  std::size_t input_bytes() const { return input_.size(); }
  /// The consumer wants the dithered bitmap: one byte per pixel.
  std::size_t result_bytes() const { return rows() * cols(); }

  const GrayImage& input() const { return input_; }
  double threshold() const { return threshold_; }

 private:
  GrayImage input_;
  double threshold_;
};

/// Extracts the dithered bitmap from a solved table (a Grid or a
/// FrontierTable).
template <typename Table>
GrayImage dithered_image(const Table& table) {
  GrayImage out(table.rows(), table.cols());
  for (std::size_t i = 0; i < table.rows(); ++i)
    for (std::size_t j = 0; j < table.cols(); ++j)
      out.at(i, j) = table.at(i, j).out;
  return out;
}

/// Classic serial *push* implementation — an independent reference. Its
/// floating-point accumulation order differs from the pull form, so
/// accumulated values match only up to rounding; tests compare `acc` with a
/// tolerance and allow output flips only on near-threshold ties.
struct FsPushResult {
  GrayImage out;
  Grid<double> acc;  ///< pre-quantization corrected intensity per pixel
};

inline FsPushResult floyd_steinberg_push_reference(const GrayImage& input,
                                                   double threshold = 128.0) {
  const std::size_t n = input.rows(), m = input.cols();
  Grid<double> carry(n, m, 0.0);
  FsPushResult r{GrayImage(n, m), Grid<double>(n, m, 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double acc = static_cast<double>(input.at(i, j)) + carry.at(i, j);
      const std::uint8_t out = acc < threshold ? 0 : 255;
      const double err = acc - static_cast<double>(out);
      r.out.at(i, j) = out;
      r.acc.at(i, j) = acc;
      if (j + 1 < m) carry.at(i, j + 1) += err * (7.0 / 16.0);
      if (i + 1 < n) {
        if (j > 0) carry.at(i + 1, j - 1) += err * (3.0 / 16.0);
        carry.at(i + 1, j) += err * (5.0 / 16.0);
        if (j + 1 < m) carry.at(i + 1, j + 1) += err * (1.0 / 16.0);
      }
    }
  }
  return r;
}

}  // namespace lddp::problems
