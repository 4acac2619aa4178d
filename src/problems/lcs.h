// Longest common subsequence — anti-diagonal pattern; the workload of the
// paper's Fig 7 tuning curve (LCS on a 4k x 4k table).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/front_span.h"
#include "core/lane_kernels.h"
#include "core/problem.h"
#include "util/aligned.h"
#include "util/simd.h"

namespace lddp::problems {

class LcsProblem {
 public:
  using Value = std::int32_t;

  LcsProblem(std::string a, std::string b)
      : a_(std::move(a)), b_(std::move(b)) {}

  std::size_t rows() const { return a_.size() + 1; }
  std::size_t cols() const { return b_.size() + 1; }

  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};
  }

  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    if (i == 0 || j == 0) return 0;
    if (a_[i - 1] == b_[j - 1]) return nb.nw + 1;
    return nb.w > nb.n ? nb.w : nb.n;
  }

  /// Batch-front hook for anti-diagonal spans (see LevenshteinProblem):
  /// packed byte compare for the match test, max for the mismatch case.
  bool compute_front(const FrontSpan<Value>& s) const {
    if (s.lanes != 1) return false;  // interleaved spans: lane kernels
    if (s.di != 1 || s.dj != -1) return false;
    const char* const pa = a_.data() + (s.i0 - 1);
    const char* const pb = b_.data() + (s.j0 - 1);
    const simd::I32x4 one = simd::I32x4::broadcast(1);
    std::size_t k = 0;
    for (; k + 4 <= s.len; k += 4) {
      const simd::I32x4 w = simd::I32x4::load(s.w + k);
      const simd::I32x4 nw = simd::I32x4::load(s.nw + k);
      const simd::I32x4 n = simd::I32x4::load(s.n + k);
      const simd::I32x4 eq =
          simd::byte_eq_mask(simd::load4(pa + k), simd::load4_reversed(pb - k));
      simd::blend(eq, simd::add(nw, one), simd::max(w, n)).store(s.out + k);
    }
    for (; k < s.len; ++k) {
      if (pa[k] == pb[-static_cast<std::ptrdiff_t>(k)]) {
        s.out[k] = s.nw[k] + 1;
      } else {
        s.out[k] = s.w[k] > s.n[k] ? s.w[k] : s.n[k];
      }
    }
    return true;
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{12.0, 48.0, 20.0}; }
  std::size_t input_bytes() const { return a_.size() + b_.size(); }
  /// The LCS length is the bottom-right cell; one row comes back.
  std::size_t result_bytes() const { return cols() * sizeof(Value); }

  const std::string& a() const { return a_; }
  const std::string& b() const { return b_; }

 private:
  std::string a_, b_;
};

/// Recovers one longest common subsequence from a solved table (any
/// table type with at(i, j): a Grid or a solve's FrontierTable).
template <typename Table>
std::string lcs_traceback(const LcsProblem& p, const Table& t) {
  std::string out;
  std::size_t i = p.rows() - 1, j = p.cols() - 1;
  while (i > 0 && j > 0) {
    if (p.a()[i - 1] == p.b()[j - 1]) {
      out += p.a()[i - 1];
      --i;
      --j;
    } else if (t.at(i - 1, j) >= t.at(i, j - 1)) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// True if `sub` is a subsequence of `s`.
inline bool is_subsequence(const std::string& sub, const std::string& s) {
  std::size_t k = 0;
  for (char c : s)
    if (k < sub.size() && c == sub[k]) ++k;
  return k == sub.size();
}

/// Independent two-row serial reference for the LCS length.
inline std::int32_t lcs_reference(const std::string& a, const std::string& b) {
  std::vector<std::int32_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      cur[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1
                                    : std::max(prev[j], cur[j - 1]);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace lddp::problems

namespace lddp::lanes {

/// Inter-solve lane execution — same staging as LevenshteinProblem's
/// traits, with the kLcs row recurrence.
template <>
struct LaneTraits<problems::LcsProblem> {
  static constexpr bool enabled = true;

  struct State {
    RowKernelFn fn = nullptr;
    AlignedBuf<std::int32_t> a;  ///< this row's a[i-1], one per lane
    AlignedBuf<std::int32_t> b;  ///< widened b[j-1], interleaved per column
  };

  static State make(const problems::LcsProblem* const* lanes,
                    std::size_t width, std::size_t /*min_rows*/,
                    std::size_t min_cols) {
    State st;
    st.fn = row_kernel(RowOp::kLcs, width);
    st.a.ensure(width);
    std::int32_t* const b = st.b.ensure(min_cols * width);
    for (std::size_t j = 1; j < min_cols; ++j)
      for (std::size_t s = 0; s < width; ++s)
        b[j * width + s] = static_cast<std::int32_t>(lanes[s]->b()[j - 1]);
    return st;
  }

  static void fill_row(State& st, const problems::LcsProblem* const* lanes,
                       std::size_t width, std::size_t i) {
    for (std::size_t s = 0; s < width; ++s)
      st.a.data()[s] = static_cast<std::int32_t>(lanes[s]->a()[i - 1]);
  }

  static void run(const State& st, RowCtx<std::int32_t> ctx) {
    ctx.lane_a = st.a.data();
    ctx.col_b = st.b.data();
    st.fn(ctx);
  }
};

}  // namespace lddp::lanes
