// Global alignment with affine gap costs (Gotoh's algorithm) — the
// "pairwise sequence alignment with affine gap cost" workload the paper's
// introduction cites from Chowdhury & Ramachandran [8].
//
// Three mutually-recursive tables (M: match/mismatch ending, X: gap in b,
// Y: gap in a) are fused into one LDDP-Plus table whose Value carries all
// three scores; the cell update reads W, NW and N exactly once each, so
// the problem is a regular anti-diagonal LDDP-Plus instance:
//
//   M(i,j) = max(M, X, Y)(i-1, j-1) + sub(a_i, b_j)
//   X(i,j) = max(M(i, j-1) - open,  X(i, j-1) - extend)
//   Y(i,j) = max(M(i-1, j) - open,  Y(i-1, j) - extend)
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/front_span.h"
#include "core/problem.h"
#include "tables/grid.h"
#include "util/check.h"
#include "util/simd.h"

namespace lddp::problems {

struct AffineScores {
  std::int32_t match = 2;
  std::int32_t mismatch = -1;
  std::int32_t gap_open = -4;    ///< charged on the first residue of a gap
  std::int32_t gap_extend = -1;  ///< charged on each further residue
};

/// The three Gotoh states; kNegInf stands for "state unreachable".
struct GotohCell {
  std::int32_t m;
  std::int32_t x;  ///< gap in b (horizontal move)
  std::int32_t y;  ///< gap in a (vertical move)

  static constexpr std::int32_t kNegInf = INT32_MIN / 4;

  std::int32_t best() const { return std::max(m, std::max(x, y)); }
  bool operator==(const GotohCell&) const = default;
};
static_assert(std::is_trivially_copyable_v<GotohCell>);
// The batch kernel reads and writes cells as 3 packed int32 fields.
static_assert(sizeof(GotohCell) == 3 * sizeof(std::int32_t) &&
              std::is_standard_layout_v<GotohCell>);

class GotohProblem {
 public:
  using Value = GotohCell;

  GotohProblem(std::string a, std::string b, AffineScores scores = {})
      : a_(std::move(a)), b_(std::move(b)), s_(scores) {}

  std::size_t rows() const { return a_.size() + 1; }
  std::size_t cols() const { return b_.size() + 1; }

  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};  // anti-diagonal
  }

  Value boundary() const {
    return GotohCell{GotohCell::kNegInf, GotohCell::kNegInf,
                     GotohCell::kNegInf};
  }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    GotohCell c;
    if (i == 0 && j == 0) return GotohCell{0, GotohCell::kNegInf,
                                           GotohCell::kNegInf};
    if (i == 0) {
      // Only a gap in a can reach the top edge.
      c.m = GotohCell::kNegInf;
      c.y = GotohCell::kNegInf;
      c.x = s_.gap_open +
            static_cast<std::int32_t>(j - 1) * s_.gap_extend;
      return c;
    }
    if (j == 0) {
      c.m = GotohCell::kNegInf;
      c.x = GotohCell::kNegInf;
      c.y = s_.gap_open +
            static_cast<std::int32_t>(i - 1) * s_.gap_extend;
      return c;
    }
    return interior(a_[i - 1] == b_[j - 1], nb.w, nb.nw, nb.n);
  }

  /// Batch-front hook for anti-diagonal spans (lane k is cell (i0+k,
  /// j0-k)), 4 cells per step. Each neighbour span is 3 loads of packed
  /// GotohCells, shuffled into one register per state (m, x, y); the states
  /// are computed with add/max (exact on int32, so every lane equals the
  /// scalar `compute`) and interleaved back into 3 stores. A scalar tail
  /// finishes the last 1-3 cells. Other span shapes (the W dependency is
  /// sequential along rows) fall back to scalar.
  bool compute_front(const FrontSpan<Value>& s) const {
    if (s.lanes != 1) return false;  // interleaved spans: lane kernels
    if (s.di != 1 || s.dj != -1) return false;
    const char* const pa = a_.data() + (s.i0 - 1);
    const char* const pb = b_.data() + (s.j0 - 1);
    const simd::I32x4 match = simd::I32x4::broadcast(s_.match);
    const simd::I32x4 mismatch = simd::I32x4::broadcast(s_.mismatch);
    const simd::I32x4 open = simd::I32x4::broadcast(s_.gap_open);
    const simd::I32x4 extend = simd::I32x4::broadcast(s_.gap_extend);
    auto fields = [](const GotohCell* c) {
      return reinterpret_cast<const std::int32_t*>(c);
    };
    std::size_t k = 0;
    for (; k + 4 <= s.len; k += 4) {
      simd::I32x4 wm, wx, wy, dm, dx, dy, nm, nx, ny;
      simd::load3_deinterleave(fields(s.w + k), wm, wx, wy);
      simd::load3_deinterleave(fields(s.nw + k), dm, dx, dy);
      simd::load3_deinterleave(fields(s.n + k), nm, nx, ny);
      const simd::I32x4 eq =
          simd::byte_eq_mask(simd::load4(pa + k), simd::load4_reversed(pb - k));
      const simd::I32x4 m = simd::add(simd::max(dm, simd::max(dx, dy)),
                                      simd::blend(eq, match, mismatch));
      const simd::I32x4 x = simd::max(simd::add(simd::max(wm, wy), open),
                                      simd::add(wx, extend));
      const simd::I32x4 y = simd::max(simd::add(simd::max(nm, nx), open),
                                      simd::add(ny, extend));
      simd::store3_interleave(reinterpret_cast<std::int32_t*>(s.out + k), m,
                              x, y);
    }
    for (; k < s.len; ++k)
      s.out[k] = interior(pa[k] == pb[-static_cast<std::ptrdiff_t>(k)],
                          s.w[k], s.nw[k], s.n[k]);
    return true;
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{26.0, 90.0, 56.0}; }
  std::size_t input_bytes() const { return a_.size() + b_.size(); }
  std::size_t result_bytes() const { return cols() * sizeof(Value); }

  const std::string& a() const { return a_; }
  const std::string& b() const { return b_; }
  const AffineScores& scores() const { return s_; }

 private:
  /// The three-state update of an interior cell.
  GotohCell interior(bool eq, const GotohCell& w, const GotohCell& nw,
                     const GotohCell& n) const {
    GotohCell c;
    c.m = nw.best() + (eq ? s_.match : s_.mismatch);
    c.x = std::max(std::max(w.m, w.y) + s_.gap_open, w.x + s_.gap_extend);
    c.y = std::max(std::max(n.m, n.x) + s_.gap_open, n.y + s_.gap_extend);
    return c;
  }

  std::string a_, b_;
  AffineScores s_;
};

/// Alignment score from a solved table (Grid or FrontierTable).
template <typename Table>
std::int32_t gotoh_score(const Table& t) {
  return t.at(t.rows() - 1, t.cols() - 1).best();
}

/// Gapped alignment reconstructed from a solved Gotoh table by replaying
/// the three-state recurrence backwards.
struct GotohAlignment {
  std::string a, b;  ///< with '-' gaps
  std::int32_t score = 0;
};

/// `Table` is the solved Grid or a FrontierTable; at() values are bound
/// to lifetime-extended copies, so band eviction between reads is safe.
template <typename Table>
GotohAlignment gotoh_traceback(const GotohProblem& p, const Table& t) {
  const AffineScores& s = p.scores();
  GotohAlignment out;
  std::size_t i = p.rows() - 1, j = p.cols() - 1;
  const GotohCell corner = t.at(i, j);
  out.score = corner.best();
  // Current state: 0 = M, 1 = X (gap in a's row, consumes b), 2 = Y.
  int state = corner.m >= corner.x && corner.m >= corner.y ? 0
              : corner.x >= corner.y                       ? 1
                                                           : 2;
  while (i > 0 || j > 0) {
    if (state == 0) {
      LDDP_CHECK_MSG(i > 0 && j > 0, "traceback: M state at table edge");
      out.a += p.a()[i - 1];
      out.b += p.b()[j - 1];
      const GotohCell prev = t.at(i - 1, j - 1);
      const std::int32_t need =
          t.at(i, j).m -
          (p.a()[i - 1] == p.b()[j - 1] ? s.match : s.mismatch);
      state = prev.m == need ? 0 : prev.x == need ? 1 : 2;
      LDDP_CHECK_MSG(prev.best() == need || prev.m == need ||
                         prev.x == need || prev.y == need,
                     "traceback: inconsistent M predecessor");
      --i;
      --j;
    } else if (state == 1) {
      LDDP_CHECK_MSG(j > 0, "traceback: X state at left edge");
      out.a += '-';
      out.b += p.b()[j - 1];
      const GotohCell prev = t.at(i, j - 1);
      const std::int32_t x = t.at(i, j).x;
      state = prev.x + s.gap_extend == x ? 1
              : prev.m + s.gap_open == x ? 0
                                         : 2;
      --j;
    } else {
      LDDP_CHECK_MSG(i > 0, "traceback: Y state at top edge");
      out.a += p.a()[i - 1];
      out.b += '-';
      const GotohCell prev = t.at(i - 1, j);
      const std::int32_t y = t.at(i, j).y;
      state = prev.y + s.gap_extend == y ? 2
              : prev.m + s.gap_open == y ? 0
                                         : 1;
      --i;
    }
  }
  std::reverse(out.a.begin(), out.a.end());
  std::reverse(out.b.begin(), out.b.end());
  return out;
}

/// Independent full-table serial reference (classic three-matrix Gotoh).
///
/// Kept as explicit full tables rather than three parallel rolling rows:
/// the rolling-row form has a loop-carried dependence through cx[j-1] that
/// GCC 12's -O3 loop-distribution pass splits incorrectly, yielding wrong
/// scores. The full-table form carries the same recurrence without
/// tempting that transformation and is what the tests diff against.
inline std::int32_t gotoh_reference(const std::string& a,
                                    const std::string& b,
                                    AffineScores s = {}) {
  constexpr std::int32_t kNegInf = GotohCell::kNegInf;
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<std::int32_t>> M(
      n + 1, std::vector<std::int32_t>(m + 1, kNegInf));
  auto X = M, Y = M;
  M[0][0] = 0;
  for (std::size_t j = 1; j <= m; ++j)
    X[0][j] = s.gap_open + static_cast<std::int32_t>(j - 1) * s.gap_extend;
  for (std::size_t i = 1; i <= n; ++i)
    Y[i][0] = s.gap_open + static_cast<std::int32_t>(i - 1) * s.gap_extend;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const std::int32_t sub = a[i - 1] == b[j - 1] ? s.match : s.mismatch;
      M[i][j] = std::max(M[i - 1][j - 1],
                         std::max(X[i - 1][j - 1], Y[i - 1][j - 1])) +
                sub;
      X[i][j] = std::max(std::max(M[i][j - 1], Y[i][j - 1]) + s.gap_open,
                         X[i][j - 1] + s.gap_extend);
      Y[i][j] = std::max(std::max(M[i - 1][j], X[i - 1][j]) + s.gap_open,
                         Y[i - 1][j] + s.gap_extend);
    }
  }
  return std::max(M[n][m], std::max(X[n][m], Y[n][m]));
}

}  // namespace lddp::problems
