// Front-major table addressing and the one-pass unpack into a row-major
// Grid.
//
// Full-table solves on anti-diagonal fronts and Inverted-L shells compute
// into front-major storage — every front contiguous, fronts in execution
// order — so each neighbour span the batch front runner hands to
// compute_front is stride-one (a pointer, never a gather into scratch).
// The finished block is the result table: FrontierTable
// (tables/frontier.h) reads each cell where the sweep wrote it, through
// the block's FrontMajorCells; nothing is unpacked into a row-major Grid
// on the solve path. On diagonal-order patterns the alternative, walking
// fronts directly over the row-major grid, makes every neighbour of every
// span a stride-(cols - 1) gather and every output a strided scatter.
//
// FrontMajorIndex places front f at front_offset(f). Fronts are padded to
// whole 64-byte cache lines (a front's first element is line-aligned when
// the element size divides 64), and a front whose padded length is a
// multiple of 4 KiB gets one extra line: on a wide table consecutive
// diagonal fronts would otherwise start a multiple of the L1 set period
// apart, so the unpack's row walk — one element from each of ~100
// consecutive fronts — would thrash a handful of cache sets. The dense
// form (no padding) is exactly the layout's own flat() indexing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "tables/grid.h"
#include "tables/layout.h"
#include "util/simd.h"

namespace lddp {

template <typename Layout>
class FrontMajorIndex {
 public:
  /// Padded index for elements of `value_bytes` bytes.
  FrontMajorIndex(const Layout& layout, std::size_t value_bytes)
      : layout_(&layout) {
    const std::size_t line = value_bytes > 0 && value_bytes <= kLineBytes &&
                                     kLineBytes % value_bytes == 0
                                 ? kLineBytes / value_bytes
                                 : 1;
    offsets_.reserve(layout.num_fronts() + 1);
    std::size_t acc = 0;
    for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
      offsets_.push_back(acc);
      std::size_t len = (layout.front_size(f) + line - 1) / line * line;
      if (len > 0 && (len * value_bytes) % kSetPeriodBytes == 0) len += line;
      acc += len;
    }
    offsets_.push_back(acc);
  }

  /// Dense index: front_offset(f) == layout.front_offset(f).
  explicit FrontMajorIndex(const Layout& layout) : layout_(&layout) {
    offsets_.reserve(layout.num_fronts() + 1);
    for (std::size_t f = 0; f < layout.num_fronts(); ++f)
      offsets_.push_back(layout.front_offset(f));
    offsets_.push_back(layout.size());
  }

  const Layout& layout() const { return *layout_; }
  /// Elements the storage must hold (>= layout().size()).
  std::size_t size() const { return offsets_.back(); }
  std::size_t front_offset(std::size_t f) const { return offsets_[f]; }
  std::size_t flat(std::size_t i, std::size_t j) const {
    const std::size_t f = layout_->front_of(i, j);
    if constexpr (std::is_same_v<Layout, AntiDiagonalLayout>)
      return offsets_[f] + (i - layout_->i_min(f));
    else if constexpr (std::is_same_v<Layout, KnightMoveLayout>)
      return offsets_[f] + (layout_->i_max(f) - i);
    else
      return offsets_[f] + (layout_->flat(i, j) - layout_->front_offset(f));
  }

 private:
  static constexpr std::size_t kLineBytes = 64;
  static constexpr std::size_t kSetPeriodBytes = 4096;

  const Layout* layout_;
  std::vector<std::size_t> offsets_;
};

/// The addressing of a padded anti-diagonal or shell FrontMajorIndex
/// without its layout: cell (i, j) of an anti-diagonal table is element
/// base[i + j] + i; of a shell table, base[i] + j in shell i's row part
/// (j >= i) and col[j] - i in shell j's column part (i > j). One lookup
/// per read and no division, and the result table that keeps it needs no
/// layout type.
class FrontMajorCells {
 public:
  FrontMajorCells() = default;
  template <typename Layout>
  explicit FrontMajorCells(const FrontMajorIndex<Layout>& idx)
      : rows_(idx.layout().rows()),
        cols_(idx.layout().cols()),
        shells_(std::is_same_v<Layout, ShellLayout>) {
    static_assert(std::is_same_v<Layout, AntiDiagonalLayout> ||
                      std::is_same_v<Layout, ShellLayout>,
                  "FrontMajorCells: anti-diagonal or shell layouts only");
    const Layout& L = idx.layout();
    for (std::size_t f = 0; f < L.num_fronts(); ++f) {
      const auto off = static_cast<std::ptrdiff_t>(idx.front_offset(f));
      const auto sf = static_cast<std::ptrdiff_t>(f);
      if constexpr (std::is_same_v<Layout, ShellLayout>) {
        base_.push_back(
            off + static_cast<std::ptrdiff_t>(L.column_part_size(f)) - sf);
        col_.push_back(off + static_cast<std::ptrdiff_t>(rows_) - 1);
      } else {
        base_.push_back(off - static_cast<std::ptrdiff_t>(L.i_min(f)));
      }
    }
  }

  bool empty() const { return base_.empty(); }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t flat(std::size_t i, std::size_t j) const {
    const auto si = static_cast<std::ptrdiff_t>(i);
    const auto sj = static_cast<std::ptrdiff_t>(j);
    if (!shells_) return static_cast<std::size_t>(base_[i + j] + si);
    return static_cast<std::size_t>(i > j ? col_[j] - si : base_[i] + sj);
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  bool shells_ = false;
  std::vector<std::ptrdiff_t> base_;  ///< per front
  std::vector<std::ptrdiff_t> col_;   ///< per shell: its column part
};

/// Copies columns [j_begin, j_end) of a front-major table into the
/// row-major grid. Pure element-wise copy, so visit order cannot affect
/// results; it is chosen for the caches. Row fronts copy row segments.
/// Diagonal fronts (anti-diagonal, knight-move) are walked in blocks of
/// kRowBlock rows x kColBlock columns: a row of the block reads one
/// element from each of ~kColBlock consecutive fronts, and the next row
/// reads the neighbouring element of the same fronts — on the same cache
/// line. Per-front bases are hoisted so the inner loop is one lookup plus
/// an add. Inverted-L shells copy their row parts whole and their
/// column parts in column blocks. Other layouts fall back to a per-cell
/// flat() walk.
template <typename V, typename Layout>
void unpack_front_major(const V* src, const FrontMajorIndex<Layout>& idx,
                        Grid<V>& out, std::size_t j_begin,
                        std::size_t j_end) {
  const Layout& L = idx.layout();
  const std::size_t n = out.rows(), m = out.cols();
  if constexpr (std::is_same_v<Layout, RowMajorLayout>) {
    for (std::size_t i = 0; i < n; ++i) {
      const V* row = src + idx.front_offset(i);
      std::copy(row + j_begin, row + j_end, out.data() + i * m + j_begin);
    }
  } else if constexpr (std::is_same_v<Layout, AntiDiagonalLayout> ||
                       std::is_same_v<Layout, KnightMoveLayout>) {
    // Cell (i, j) lies on front c*i + j at position (+/-)i + k(front):
    // anti-diagonal c = 1, position i - i_min; knight-move c = 2,
    // position i_max - i.
    constexpr bool kAd = std::is_same_v<Layout, AntiDiagonalLayout>;
    constexpr std::size_t c = kAd ? 1 : 2;
    const std::size_t nf = L.num_fronts();
    std::vector<std::ptrdiff_t> base(nf);
    for (std::size_t f = 0; f < nf; ++f)
      base[f] = static_cast<std::ptrdiff_t>(idx.front_offset(f)) +
                (kAd ? -static_cast<std::ptrdiff_t>(L.i_min(f))
                     : static_cast<std::ptrdiff_t>(L.i_max(f)));
    // Row i, columns [c0, c1).
    auto row = [&](std::size_t i, std::size_t c0, std::size_t c1) {
      V* dst = out.data() + i * m + c0;
      const std::ptrdiff_t* b = base.data() + c * i + c0;
      const std::ptrdiff_t off = kAd ? static_cast<std::ptrdiff_t>(i)
                                     : -static_cast<std::ptrdiff_t>(i);
      for (std::size_t j = c0; j < c1; ++j) *dst++ = src[*b++ + off];
    };
    // Anti-diagonal tables of 4-byte cells copy 4 rows x 4 fronts at a
    // time: rows a..a+3 are 4 consecutive elements of each front, and
    // fronts d..d+3 are 4 consecutive columns of each row, so the block
    // is one in-register transpose.
    constexpr bool kQuads =
        kAd && sizeof(V) == 4 && std::is_trivially_copyable_v<V>;
    constexpr std::size_t kRowBlock = 16, kColBlock = 256;
    for (std::size_t i0 = 0; i0 < n; i0 += kRowBlock) {
      const std::size_t i1 = std::min(n, i0 + kRowBlock);
      for (std::size_t j0 = j_begin; j0 < j_end; j0 += kColBlock) {
        const std::size_t j1 = std::min(j_end, j0 + kColBlock);
        std::size_t a = i0;
        if constexpr (kQuads) {
          for (; a + 4 <= i1; a += 4) {
            // Fronts whose 4 cells all fall in [j0, j1): d - (a+3) >= j0
            // and d + 3 - a < j1.
            const std::size_t d0 = j0 + a + 3;
            std::size_t d = d0;
            for (; d + 4 <= j1 + a; d += 4) {
              const void* in[4];
              void* to[4];
              for (std::size_t k = 0; k < 4; ++k) {
                in[k] = src + base[d + k] + static_cast<std::ptrdiff_t>(a);
                to[k] = out.data() + (a + k) * m + (d - a - k);
              }
              simd::transpose4x4_copy32(in, to);
            }
            for (std::size_t i = a; i < a + 4; ++i) {
              const std::size_t v0 = std::min(d0 - i, j1);
              const std::size_t v1 = std::min(std::max(v0, d - i), j1);
              row(i, j0, v0);
              row(i, v1, j1);
            }
          }
        }
        for (std::size_t i = a; i < i1; ++i) row(i, j0, j1);
      }
    }
  } else if constexpr (std::is_same_v<Layout, ShellLayout>) {
    // Right of the diagonal, row i is shell i's row part: one contiguous
    // copy. Below it, column j is shell j's column part, stored bottom-up:
    // copied kColBlock columns at a time, row by row, so every front is
    // read sequentially and every row segment written whole.
    const std::size_t shells = L.num_fronts();
    for (std::size_t i = 0; i < std::min(n, shells); ++i) {
      const std::size_t lo = std::max(i, j_begin);
      if (lo >= j_end) continue;
      const V* row =
          src + idx.front_offset(i) + L.column_part_size(i) + (lo - i);
      std::copy(row, row + (j_end - lo), out.data() + i * m + lo);
    }
    constexpr std::size_t kColBlock = 16;
    const std::size_t col_end = std::min(j_end, shells);
    for (std::size_t j0 = j_begin; j0 < col_end; j0 += kColBlock) {
      const std::size_t j1 = std::min(col_end, j0 + kColBlock);
      for (std::size_t i = j0 + 1; i < n; ++i) {
        V* dst = out.data() + i * m;
        const std::size_t pos = n - 1 - i;
        for (std::size_t j = j0; j < std::min(j1, i); ++j)
          dst[j] = src[idx.front_offset(j) + pos];
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = j_begin; j < j_end; ++j)
        out.at(i, j) = src[idx.flat(i, j)];
  }
}

}  // namespace lddp
