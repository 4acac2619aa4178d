// Per-problem glue for CaseImpl: problem type, canonical layout, and the
// answer a caller extracts from the returned table (Grid or FrontierTable).
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/floyd_steinberg.h"
#include "problems/gotoh.h"
#include "problems/image.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/seam_carving.h"
#include "tables/layout.h"

namespace perfbench {

/// Bottom-right cell: the Levenshtein distance / LCS length.
template <typename P, int kId>
struct CornerOps {
  using Problem = P;
  using Layout = lddp::AntiDiagonalLayout;
  static constexpr int kTypeId = kId;
  template <typename T>
  static Answer extract(const P& p, const T& t) {
    Answer a;
    a.v[0] = t.at(p.rows() - 1, p.cols() - 1);
    return a;
  }
};

struct LevOps : CornerOps<lddp::problems::LevenshteinProblem, 1> {
  static constexpr const char* kName = "levenshtein";
};

struct LcsOps : CornerOps<lddp::problems::LcsProblem, 2> {
  static constexpr const char* kName = "lcs";
};

/// Cheapest cost of reaching the last row.
struct CheckerboardOps {
  using Problem = lddp::problems::CheckerboardProblem;
  using Layout = lddp::RowMajorLayout;
  static constexpr const char* kName = "checkerboard";
  static constexpr int kTypeId = 3;
  template <typename T>
  static Answer extract(const Problem&, const T& t) {
    Answer a;
    a.v[0] = lddp::problems::checkerboard_best(t);
    return a;
  }
};

/// The dithered bitmap the caller wants: digest and count of set pixels.
struct DitherOps {
  using Problem = lddp::problems::FloydSteinbergProblem;
  using Layout = lddp::KnightMoveLayout;
  static constexpr const char* kName = "dither";
  static constexpr int kTypeId = 4;
  template <typename T>
  static Answer extract(const Problem& p, const T& t) {
    Digest d;
    std::int64_t on = 0;
    for (std::size_t i = 0; i < p.rows(); ++i)
      for (std::size_t j = 0; j < p.cols(); ++j) {
        const std::uint8_t out = t.at(i, j).out;
        d.add(out);
        on += out != 0;
      }
    Answer a;
    a.v[0] = d.value();
    a.v[1] = on;
    return a;
  }
};

template <typename Aln>
Answer alignment_answer(const Aln& aln) {
  Digest d;
  for (char ch : aln.a) d.add(static_cast<unsigned char>(ch));
  for (char ch : aln.b) d.add(static_cast<unsigned char>(ch));
  Answer a;
  a.v[0] = aln.score;
  a.v[1] = static_cast<std::int64_t>(aln.a.size());
  a.v[2] = d.value();
  return a;
}

/// Needleman-Wunsch score and traceback.
struct NwOps {
  using Problem = lddp::problems::NeedlemanWunschProblem;
  using Layout = lddp::AntiDiagonalLayout;
  static constexpr const char* kName = "nw";
  static constexpr int kTypeId = 5;
  template <typename T>
  static Answer extract(const Problem& p, const T& t) {
    return alignment_answer(lddp::problems::nw_traceback(p, t));
  }
};

/// Gotoh affine-gap score and traceback.
struct GotohOps {
  using Problem = lddp::problems::GotohProblem;
  using Layout = lddp::AntiDiagonalLayout;
  static constexpr const char* kName = "gotoh";
  static constexpr int kTypeId = 6;
  template <typename T>
  static Answer extract(const Problem& p, const T& t) {
    return alignment_answer(lddp::problems::gotoh_traceback(p, t));
  }
};

/// Minimal vertical seam: its energy, end column and digest.
struct SeamOps {
  using Problem = lddp::problems::SeamCarveProblem;
  using Layout = lddp::RowMajorLayout;
  static constexpr const char* kName = "seam";
  static constexpr int kTypeId = 7;
  template <typename T>
  static Answer extract(const Problem& p, const T& t) {
    const std::vector<std::size_t> seam = lddp::problems::extract_seam(t);
    Digest d;
    for (std::size_t j : seam) d.add(j);
    Answer a;
    a.v[0] = lddp::problems::seam_energy(p.energy(), seam);
    a.v[1] = static_cast<std::int64_t>(seam.back());
    a.v[2] = d.value();
    return a;
  }
};

}  // namespace perfbench
