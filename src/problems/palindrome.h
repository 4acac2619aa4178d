// Longest palindromic subsequence — a textbook interval DP,
//
//   P(l, r) = s_l == s_r ? P(l+1, r-1) + (l == r ? 1 : 2)
//                        : max(P(l+1, r), P(l, r-1))
//
// which becomes a regular LDDP-Plus anti-diagonal problem under the index
// substitution i = n-1-l (so the "l+1" dependencies become "i-1"):
// contributing set {W, NW, N}. Demonstrates how interval DPs map onto the
// framework.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"
#include "tables/grid.h"

namespace lddp::problems {

class PalindromeProblem {
 public:
  using Value = std::int32_t;

  explicit PalindromeProblem(std::string s) : s_(std::move(s)) {
    LDDP_CHECK_MSG(!s_.empty(), "palindrome needs a non-empty string");
  }

  // Table cell (i, r) holds P(l, r) with l = n-1-i. Cells with l > r
  // (empty intervals) are 0.
  std::size_t rows() const { return s_.size(); }
  std::size_t cols() const { return s_.size(); }

  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};
  }

  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    const std::size_t n = s_.size();
    const std::size_t l = n - 1 - i;
    const std::size_t r = j;
    if (l > r) return 0;   // empty interval
    if (l == r) return 1;  // single character
    if (s_[l] == s_[r]) {
      // P(l+1, r-1) lives at (i-1, j-1) = NW; +2 for the matched ends.
      return nb.nw + 2;
    }
    // P(l+1, r) = N; P(l, r-1) = W.
    return std::max(nb.n, nb.w);
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{14.0, 52.0, 20.0}; }
  std::size_t input_bytes() const { return s_.size(); }
  std::size_t result_bytes() const { return cols() * sizeof(Value); }

  /// The answer: P(0, n-1) = table cell (n-1, n-1).
  template <typename Table>
  static Value answer(const Table& t) {
    return t.at(t.rows() - 1, t.cols() - 1);
  }

  const std::string& s() const { return s_; }

 private:
  std::string s_;
};

/// Independent interval-order serial reference.
inline std::int32_t palindrome_reference(const std::string& s) {
  const std::size_t n = s.size();
  if (n == 0) return 0;
  std::vector<std::vector<std::int32_t>> p(n,
                                           std::vector<std::int32_t>(n, 0));
  for (std::size_t l = n; l-- > 0;) {
    p[l][l] = 1;
    for (std::size_t r = l + 1; r < n; ++r) {
      if (s[l] == s[r])
        p[l][r] = (r > l + 1 ? p[l + 1][r - 1] : 0) + 2;
      else
        p[l][r] = std::max(p[l + 1][r], p[l][r - 1]);
    }
  }
  return p[0][n - 1];
}

}  // namespace lddp::problems
