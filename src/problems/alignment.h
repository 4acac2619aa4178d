// Sequence-alignment problems beyond the paper's case studies — the
// bioinformatics workloads its introduction motivates (pairwise alignment):
// Needleman–Wunsch global alignment and Smith–Waterman local alignment,
// both anti-diagonal, with host-side traceback for the example programs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/front_span.h"
#include "core/problem.h"
#include "tables/grid.h"
#include "util/rng.h"
#include "util/simd.h"

namespace lddp::problems {

struct AlignmentScores {
  std::int32_t match = 2;
  std::int32_t mismatch = -1;
  std::int32_t gap = -2;
};

namespace alignment_detail {

/// One linear-gap cell: the best of the diagonal move (match or mismatch),
/// the vertical and the horizontal gap; Smith–Waterman (kLocal) also
/// clamps at zero.
template <bool kLocal>
std::int32_t linear_gap_cell(const AlignmentScores& s, bool eq,
                             std::int32_t w, std::int32_t nw,
                             std::int32_t n) {
  const std::int32_t diag = nw + (eq ? s.match : s.mismatch);
  const std::int32_t best = std::max(diag, std::max(n + s.gap, w + s.gap));
  return kLocal ? std::max<std::int32_t>(0, best) : best;
}

/// Batch-front kernel shared by both linear-gap alignments, for
/// anti-diagonal spans (lane k is cell (i0+k, j0-k)): 4 lanes per step,
/// the substitution score a blend on the packed byte compare (a
/// ascending, b descending along the diagonal). add/max are exact on
/// int32, so every lane equals linear_gap_cell. Other span shapes (the W
/// dependency is sequential along rows) fall back to scalar.
template <bool kLocal>
bool linear_gap_front(const std::string& a, const std::string& b,
                      const AlignmentScores& sc,
                      const FrontSpan<std::int32_t>& s) {
  if (s.lanes != 1) return false;  // interleaved spans: lane kernels
  if (s.di != 1 || s.dj != -1) return false;
  const char* const pa = a.data() + (s.i0 - 1);
  const char* const pb = b.data() + (s.j0 - 1);
  const simd::I32x4 match = simd::I32x4::broadcast(sc.match);
  const simd::I32x4 mismatch = simd::I32x4::broadcast(sc.mismatch);
  const simd::I32x4 gap = simd::I32x4::broadcast(sc.gap);
  std::size_t k = 0;
  for (; k + 4 <= s.len; k += 4) {
    const simd::I32x4 eq =
        simd::byte_eq_mask(simd::load4(pa + k), simd::load4_reversed(pb - k));
    const simd::I32x4 diag = simd::add(simd::I32x4::load(s.nw + k),
                                       simd::blend(eq, match, mismatch));
    const simd::I32x4 up = simd::add(simd::I32x4::load(s.n + k), gap);
    const simd::I32x4 left = simd::add(simd::I32x4::load(s.w + k), gap);
    simd::I32x4 best = simd::max(diag, simd::max(up, left));
    if constexpr (kLocal) best = simd::max(simd::I32x4::broadcast(0), best);
    best.store(s.out + k);
  }
  for (; k < s.len; ++k)
    s.out[k] = linear_gap_cell<kLocal>(
        sc, pa[k] == pb[-static_cast<std::ptrdiff_t>(k)], s.w[k], s.nw[k],
        s.n[k]);
  return true;
}

}  // namespace alignment_detail

/// Global alignment with linear gap cost. deps {W, NW, N} — anti-diagonal.
class NeedlemanWunschProblem {
 public:
  using Value = std::int32_t;

  NeedlemanWunschProblem(std::string a, std::string b,
                         AlignmentScores scores = {})
      : a_(std::move(a)), b_(std::move(b)), s_(scores) {}

  std::size_t rows() const { return a_.size() + 1; }
  std::size_t cols() const { return b_.size() + 1; }
  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};
  }
  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    if (i == 0) return static_cast<Value>(j) * s_.gap;
    if (j == 0) return static_cast<Value>(i) * s_.gap;
    return alignment_detail::linear_gap_cell<false>(
        s_, a_[i - 1] == b_[j - 1], nb.w, nb.nw, nb.n);
  }

  /// Batch-front hook: the SIMD anti-diagonal kernel above.
  bool compute_front(const FrontSpan<Value>& s) const {
    return alignment_detail::linear_gap_front<false>(a_, b_, s_, s);
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{16.0, 60.0, 20.0}; }
  std::size_t input_bytes() const { return a_.size() + b_.size(); }

  const std::string& a() const { return a_; }
  const std::string& b() const { return b_; }
  const AlignmentScores& scores() const { return s_; }

 private:
  std::string a_, b_;
  AlignmentScores s_;
};

/// Local alignment (clamped at zero). deps {W, NW, N} — anti-diagonal.
class SmithWatermanProblem {
 public:
  using Value = std::int32_t;

  SmithWatermanProblem(std::string a, std::string b,
                       AlignmentScores scores = {})
      : a_(std::move(a)), b_(std::move(b)), s_(scores) {}

  std::size_t rows() const { return a_.size() + 1; }
  std::size_t cols() const { return b_.size() + 1; }
  ContributingSet deps() const {
    return ContributingSet{Dep::kW, Dep::kNW, Dep::kN};
  }
  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    if (i == 0 || j == 0) return 0;
    return alignment_detail::linear_gap_cell<true>(
        s_, a_[i - 1] == b_[j - 1], nb.w, nb.nw, nb.n);
  }

  /// Batch-front hook: the SIMD anti-diagonal kernel, clamped at zero.
  bool compute_front(const FrontSpan<Value>& s) const {
    return alignment_detail::linear_gap_front<true>(a_, b_, s_, s);
  }

  cpu::WorkProfile work() const { return cpu::WorkProfile{18.0, 64.0, 20.0}; }
  std::size_t input_bytes() const { return a_.size() + b_.size(); }

  const std::string& a() const { return a_; }
  const std::string& b() const { return b_; }
  const AlignmentScores& scores() const { return s_; }

 private:
  std::string a_, b_;
  AlignmentScores s_;
};

/// A pair of gapped strings reconstructed from a solved table.
struct Alignment {
  std::string a;      ///< first sequence with '-' gaps
  std::string b;      ///< second sequence with '-' gaps
  std::int32_t score = 0;
};

/// Traceback for Needleman–Wunsch from the bottom-right corner. `Table`
/// is any table with at(i, j) — the solved Grid, or a FrontierTable whose
/// band rematerialization serves the walked cells on demand.
template <typename Table>
Alignment nw_traceback(const NeedlemanWunschProblem& p, const Table& t) {
  const AlignmentScores& s = p.scores();
  Alignment out;
  std::size_t i = p.rows() - 1, j = p.cols() - 1;
  out.score = t.at(i, j);
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        t.at(i, j) == t.at(i - 1, j - 1) + (p.a()[i - 1] == p.b()[j - 1]
                                                ? s.match
                                                : s.mismatch)) {
      out.a += p.a()[i - 1];
      out.b += p.b()[j - 1];
      --i;
      --j;
    } else if (i > 0 && t.at(i, j) == t.at(i - 1, j) + s.gap) {
      out.a += p.a()[i - 1];
      out.b += '-';
      --i;
    } else {
      LDDP_CHECK_MSG(j > 0, "traceback stuck: inconsistent table");
      out.a += '-';
      out.b += p.b()[j - 1];
      --j;
    }
  }
  std::reverse(out.a.begin(), out.a.end());
  std::reverse(out.b.begin(), out.b.end());
  return out;
}

/// Maximum cell of a Smith–Waterman table (the local-alignment score).
/// The ascending scan order is kept for tie determinism across tiers; on
/// a FrontierTable it rematerializes bands at geometrically growing
/// widths (the table's doubling policy bounds the recompute).
template <typename Table>
std::int32_t sw_best_score(const Table& t) {
  std::int32_t best = 0;
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j) best = std::max(best, t.at(i, j));
  return best;
}

/// Local alignment reconstructed from a Smith–Waterman table: walk back
/// from the maximum cell until a zero cell.
template <typename Table>
Alignment sw_traceback(const SmithWatermanProblem& p, const Table& t) {
  const AlignmentScores& s = p.scores();
  // First maximum in ascending scan order. The running best is held by
  // value: re-reading (bi, bj) would make a FrontierTable swap bands on
  // every cell.
  std::size_t bi = 0, bj = 0;
  std::int32_t best = t.at(0, 0);
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      if (const std::int32_t v = t.at(i, j); v > best) {
        best = v;
        bi = i;
        bj = j;
      }
  Alignment out;
  out.score = best;
  std::size_t i = bi, j = bj;
  while (i > 0 && j > 0 && t.at(i, j) > 0) {
    // Values are read fresh each step (by value): a FrontierTable may
    // evict the band a previous read was served from.
    const std::int32_t v = t.at(i, j);
    if (v == t.at(i - 1, j - 1) +
                 (p.a()[i - 1] == p.b()[j - 1] ? s.match : s.mismatch)) {
      out.a += p.a()[i - 1];
      out.b += p.b()[j - 1];
      --i;
      --j;
    } else if (v == t.at(i - 1, j) + s.gap) {
      out.a += p.a()[i - 1];
      out.b += '-';
      --i;
    } else {
      LDDP_CHECK_MSG(v == t.at(i, j - 1) + s.gap,
                     "traceback: inconsistent SW table");
      out.a += '-';
      out.b += p.b()[j - 1];
      --j;
    }
  }
  std::reverse(out.a.begin(), out.a.end());
  std::reverse(out.b.begin(), out.b.end());
  return out;
}

/// Deterministic random sequence over the given alphabet.
inline std::string random_sequence(std::size_t length, std::uint64_t seed,
                                   const std::string& alphabet = "ACGT") {
  std::string s(length, 'A');
  Rng rng(seed);
  for (auto& c : s) c = alphabet[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
  return s;
}

}  // namespace lddp::problems
