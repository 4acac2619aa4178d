// Symmetry adapters (Section III): the Vertical pattern is Horizontal on
// the transposed table, and the mirrored Inverted-L is Inverted-L on the
// left-right mirrored table. Wrapping the problem (rather than writing two
// more strategies) is exactly the paper's "addressed by appealing to
// symmetry".
#pragma once

#include "core/problem.h"
#include "tables/grid.h"

namespace lddp {

/// Transpose adapter: (i, j) <-> (j, i). Valid only when NE is not in the
/// contributing set (NE has no representative-set image under transpose);
/// the Vertical sets {W} and {W, NW} satisfy this. W maps to N and back.
template <LddpProblem P>
class TransposedProblem {
 public:
  using Value = typename P::Value;

  explicit TransposedProblem(const P& inner) : inner_(&inner) {
    LDDP_CHECK_MSG(!inner.deps().has_ne(),
                   "transpose adapter cannot represent an NE dependency");
  }

  std::size_t rows() const { return inner_->cols(); }
  std::size_t cols() const { return inner_->rows(); }

  ContributingSet deps() const {
    const ContributingSet d = inner_->deps();
    std::uint8_t mask = 0;
    if (d.has_w()) mask |= static_cast<std::uint8_t>(Dep::kN);
    if (d.has_n()) mask |= static_cast<std::uint8_t>(Dep::kW);
    if (d.has_nw()) mask |= static_cast<std::uint8_t>(Dep::kNW);
    return ContributingSet(mask);
  }

  Value boundary() const { return inner_->boundary(); }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    return inner_->compute(j, i, Neighbors<Value>{nb.n, nb.nw, nb.w, nb.ne});
  }

  cpu::WorkProfile work() const { return work_profile_of(*inner_); }
  std::size_t input_bytes() const { return input_bytes_of(*inner_); }

 private:
  const P* inner_;
};

/// Mirror adapter: j <-> cols-1-j. Valid only when W is not in the
/// contributing set (W has no image); the mirrored-Inverted-L set {NE}
/// satisfies this. NW and NE swap, N is fixed.
template <LddpProblem P>
class MirroredProblem {
 public:
  using Value = typename P::Value;

  explicit MirroredProblem(const P& inner) : inner_(&inner) {
    LDDP_CHECK_MSG(!inner.deps().has_w(),
                   "mirror adapter cannot represent a W dependency");
  }

  std::size_t rows() const { return inner_->rows(); }
  std::size_t cols() const { return inner_->cols(); }

  ContributingSet deps() const {
    const ContributingSet d = inner_->deps();
    std::uint8_t mask = 0;
    if (d.has_nw()) mask |= static_cast<std::uint8_t>(Dep::kNE);
    if (d.has_ne()) mask |= static_cast<std::uint8_t>(Dep::kNW);
    if (d.has_n()) mask |= static_cast<std::uint8_t>(Dep::kN);
    return ContributingSet(mask);
  }

  Value boundary() const { return inner_->boundary(); }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    return inner_->compute(i, inner_->cols() - 1 - j,
                           Neighbors<Value>{nb.w, nb.ne, nb.n, nb.nw});
  }

  cpu::WorkProfile work() const { return work_profile_of(*inner_); }
  std::size_t input_bytes() const { return input_bytes_of(*inner_); }

 private:
  const P* inner_;
};

}  // namespace lddp
