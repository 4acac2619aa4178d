// The result table of every solve, on both storage tiers.
//
// One type serves three backings, all read through at(i, j) in user
// orientation:
//   * a row-major Grid — the serial scan, row and knight-move fronts and
//     the tiled layer fill it in place;
//   * a front-major block plus the addressing it was filled through
//     (FrontMajorCells, tables/front_major.h) — the full tier's
//     anti-diagonal fronts and Inverted-L shells; each cell is read where
//     the sweep wrote it, and nothing is unpacked unless a caller asks for
//     a dense Grid (to_grid());
//   * checkpoint rows — the frontier tier (Storage::kFrontier).
//
// A frontier-backed solve never materializes the O(rows x cols) grid: it
// retains one checkpoint row every K rows (plus the last row, where the
// answers of every bundled problem live) and rematerializes the K-row
// band between two checkpoints on demand when a consumer — a traceback,
// a best-score scan — reads an interior cell. The remat callback re-runs
// the problem's own recurrence from the band's upper checkpoint, so every
// served value is bit-identical to the full-table solve; transient memory
// is one band of scratch, O(K x width), instead of O(rows x cols).
//
// The band scratch holds the band in one of two orders, chosen when the
// callback is attached: row-major (row i at (i - band_lo) * width), or
// front-major — the anti-diagonal fronts of the (rows + 1) x width band
// whose row 0 is the upper checkpoint, addressed through that band's
// AntiDiagonalLayout. The second lets a W-dependent recurrence, whose rows
// are sequential, rematerialize a whole front per vector pass.
//
// Reads are column-pruned: a band is rematerialized only out to the
// requested column (plus a K-column guard when the contributing set has
// NE, whose reads drift right while walking up), and widened
// geometrically if a later read in the same band lands further right.
// Monotone backward walks — every traceback in problems/ — therefore
// rematerialize each band at most once.
//
// The symmetry reductions (Vertical, mirrored Inverted-L) solve a
// transposed or mirrored problem; the table undoes that with a coordinate
// view (Transform), never a copy.
//
// Full-tier reads touch no mutable state, so concurrent at() calls on one
// grid- or block-backed table are safe. A frontier table memoizes its
// cached band: concurrent reads of one must be externally synchronized.
// Its remat callback typically references the problem object by pointer —
// the problem must outlive the table unless keep_alive() holds it. A
// full-tier table owns its storage outright (host memory from the heap or
// the BlockCache) and points into no solve's platform, device or pool.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "tables/front_major.h"
#include "tables/grid.h"
#include "tables/layout.h"
#include "util/aligned.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace lddp {

template <typename V>
class FrontierTable {
 public:
  /// Rematerializes columns [0, width) of rows [row_lo, row_hi) into
  /// `out`, chaining from `prev_row` — the checkpoint row row_lo - 1,
  /// always full width. With `fronts` null, `out` is row-major with row
  /// stride `width`. Otherwise `out` is front-major over `*fronts`, the
  /// (row_hi - row_lo + 1) x width anti-diagonal layout whose row 0 is the
  /// checkpoint row (the callback copies it in): grid cell (i, j) lives at
  /// out[fronts->flat(i - row_lo + 1, j)].
  using RematFn =
      std::function<void(std::size_t row_lo, std::size_t row_hi,
                         std::size_t width, const V* prev_row, V* out,
                         const AntiDiagonalLayout* fronts)>;

  /// Coordinate view applied on top of the canonical storage: how the
  /// table undoes the symmetry adapters (core/adapters.h) — a view, not a
  /// transpose_grid / mirror_grid copy.
  enum class Transform { kIdentity, kTransposed, kMirrored };

  /// Rematerialization accounting (diagnostics and tests).
  struct RematStats {
    std::size_t bands = 0;  ///< band (re)materializations triggered
    std::size_t rows = 0;   ///< rows recomputed across them
    std::size_t cells = 0;  ///< cells recomputed across them
  };

  FrontierTable() = default;

  /// Full tier: wraps a filled row-major grid.
  static FrontierTable full(Grid<V> g) {
    FrontierTable t;
    t.crows_ = g.rows();
    t.ccols_ = g.cols();
    t.full_ = std::move(g);
    return t;
  }

  /// Full tier: takes a filled front-major block and the addressing it
  /// was filled through; cells are read in place.
  static FrontierTable front_major(AlignedBuf<V> block,
                                   FrontMajorCells cells) {
    FrontierTable t;
    t.crows_ = cells.rows();
    t.ccols_ = cells.cols();
    t.block_ = std::move(block);
    t.cells_ = std::move(cells);
    return t;
  }

  /// Frontier tier: checkpoint rows every `k` rows plus the last row,
  /// in canonical orientation. The engine fills checkpoint_row()/
  /// last_row() during the solve and attaches the remat callback.
  static FrontierTable checkpointed(std::size_t rows, std::size_t cols,
                                    std::size_t k) {
    LDDP_CHECK(rows > 0 && cols > 0 && k > 0);
    FrontierTable t;
    t.crows_ = rows;
    t.ccols_ = cols;
    t.k_ = k;
    t.ckpt_.resize(((rows - 1) / k + 1) * cols);
    t.last_.resize(cols);
    return t;
  }
  /// resident_bytes() of checkpointed(rows, cols, k).
  static std::size_t checkpointed_bytes(std::size_t rows, std::size_t cols,
                                        std::size_t k) {
    return (((rows - 1) / k + 1) * cols + cols) * sizeof(V);
  }

  bool frontier() const { return k_ != 0; }
  std::size_t checkpoint_interval() const { return k_; }
  std::size_t checkpoint_row_count() const {
    return frontier() ? (crows_ - 1) / k_ + 1 : 0;
  }

  std::size_t rows() const {
    return transform_ == Transform::kTransposed ? ccols_ : crows_;
  }
  std::size_t cols() const {
    return transform_ == Transform::kTransposed ? crows_ : ccols_;
  }

  /// Cell (i, j) in user orientation, by value (interior cells of a
  /// frontier table may be served from band scratch that a later read can
  /// evict).
  V at(std::size_t i, std::size_t j) const {
    switch (transform_) {
      case Transform::kIdentity:
        return canonical_at(i, j);
      case Transform::kTransposed:
        return canonical_at(j, i);
      case Transform::kMirrored:
        return canonical_at(i, ccols_ - 1 - j);
    }
    return canonical_at(i, j);
  }

  /// The whole table as a dense row-major Grid in user orientation: a
  /// copy (an unpack of a front-major block, a rematerializing scan of a
  /// frontier table). For callers that need contiguous rows; cell reads
  /// need no grid.
  Grid<V> to_grid() const {
    Grid<V> g = canonical_grid();
    switch (transform_) {
      case Transform::kIdentity:
        break;
      case Transform::kTransposed:
        return transpose_grid(g);
      case Transform::kMirrored:
        return mirror_grid(g);
    }
    return g;
  }

  // --- engine-facing (canonical orientation) ----------------------------

  /// Storage of checkpoint row i (i % k == 0), full width.
  V* checkpoint_row(std::size_t i) {
    LDDP_DCHECK(frontier() && i % k_ == 0 && i < crows_);
    return ckpt_.data() + (i / k_) * ccols_;
  }
  V* last_row() {
    LDDP_DCHECK(frontier());
    return last_.data();
  }

  /// `ne_reads` marks a contributing set with NE: reads drift right while
  /// walking up, so pruned bands carry a K-column guard on the right.
  /// `front_major` selects the band order the callback fills (see
  /// RematFn); it requires an NE-free set, whose anti-diagonals of the
  /// band depend only on earlier ones.
  void set_remat(RematFn fn, bool ne_reads, bool front_major) {
    LDDP_CHECK(!(ne_reads && front_major));
    remat_ = std::move(fn);
    ne_pad_ = ne_reads;
    front_major_ = front_major;
    cached_band_ = kNoBand;
  }
  void set_transform(Transform t) { transform_ = t; }
  /// Shares ownership of whatever the remat callback points into (the
  /// batch engine parks the problem here so tables outlive their jobs).
  void keep_alive(std::shared_ptr<const void> h) {
    keep_alive_ = std::move(h);
  }

  /// Bytes held for the lifetime of the table (checkpoints + last row,
  /// or the whole table on the full tier; a front-major block's line
  /// padding is not counted).
  std::size_t resident_bytes() const {
    if (!frontier()) return crows_ * ccols_ * sizeof(V);
    return checkpointed_bytes(crows_, ccols_, k_);
  }
  /// resident_bytes plus the largest band scratch materialized so far.
  std::size_t peak_bytes() const {
    return resident_bytes() + peak_scratch_bytes_;
  }
  const RematStats& remat_stats() const { return remat_stats_; }
  /// True when bands are rematerialized front-major (see set_remat).
  bool front_major_remat() const { return front_major_; }

 private:
  static constexpr std::size_t kNoBand = static_cast<std::size_t>(-1);

  V canonical_at(std::size_t i, std::size_t j) const {
    LDDP_DCHECK(i < crows_ && j < ccols_);
    if (!frontier()) {
      if (cells_.empty()) return full_.at(i, j);
      return block_.data()[cells_.flat(i, j)];
    }
    if (i == crows_ - 1) return last_[j];
    if (i % k_ == 0) return ckpt_[(i / k_) * ccols_ + j];
    const std::size_t c = i / k_;
    const std::size_t band_lo = c * k_ + 1;
    // A width-pruned band computes its last column with a clamped (bound)
    // NE read, and that wrongness erodes one column leftward per row
    // below the checkpoint — so with NE, row i of a pruned band is valid
    // only up to column cached_w_ - (i - band_lo + 1). A full-width band
    // has no pruning edge and serves every column.
    const std::size_t erosion =
        (ne_pad_ && cached_w_ < ccols_) ? i - band_lo + 1 : 0;
    if (cached_band_ != c || j + erosion >= cached_w_) load_band(c, j);
    if (front_major_)
      return scratch_.data()[band_fronts_->flat(i - band_lo + 1, j)];
    return scratch_.data()[(i - band_lo) * cached_w_ + j];
  }

  /// to_grid() before the transform: row by row, so a frontier table
  /// rematerializes each band once.
  Grid<V> canonical_grid() const {
    if (!frontier() && cells_.empty()) return full_;
    Grid<V> g = Grid<V>::uninitialized(crows_, ccols_);
    for (std::size_t i = 0; i < crows_; ++i)
      for (std::size_t j = 0; j < ccols_; ++j)
        g.at(i, j) = canonical_at(i, j);
    return g;
  }

  /// (Re)materializes band c — rows (c*k, min(c*k + k, rows-1)) — out to
  /// a width that serves column j now and any monotone backward walk
  /// continuing from (., j) later. LDDP_CHECKs that a remat callback was
  /// attached (full-tier tables never get here).
  void load_band(std::size_t c, std::size_t j) const {
    LDDP_CHECK_MSG(remat_ != nullptr,
                   "frontier read needs a rematerialization callback");
    const std::size_t band_lo = c * k_ + 1;
    const std::size_t band_hi = std::min(c * k_ + k_, crows_ - 1);
    LDDP_DCHECK(band_hi > band_lo - 1);
    // Width: the request plus the NE drift guard, doubled against the
    // previous width of the same band so ascending scans (best-score
    // sweeps) re-materialize O(log) times, not per column.
    std::size_t w = j + 1 + (ne_pad_ ? k_ : 1);
    if (cached_band_ == c) w = std::max(w, cached_w_ * 2);
    w = std::min(w, ccols_);
    // Chaos site: a deterministic injected fault aborts before any state
    // changes; the cache is also invalidated across the callback so a
    // mid-remat throw leaves the table clean for a retry.
    fault::maybe_throw(fault::Site::kRematerialize, c);
    cached_band_ = kNoBand;
    const std::size_t rows = band_hi - band_lo;
    std::size_t held = rows * w;  // scratch elements
    const AntiDiagonalLayout* fronts = nullptr;
    if (front_major_) {
      fronts = &band_fronts_.emplace(rows + 1, w);
      held = fronts->size();
    }
    remat_(band_lo, band_hi, w, ckpt_.data() + c * ccols_,
           scratch_.ensure(held), fronts);
    cached_band_ = c;
    cached_w_ = w;
    ++remat_stats_.bands;
    remat_stats_.rows += rows;
    remat_stats_.cells += rows * w;
    peak_scratch_bytes_ = std::max(peak_scratch_bytes_, held * sizeof(V));
  }

  std::size_t crows_ = 0, ccols_ = 0;  ///< canonical dimensions
  std::size_t k_ = 0;                  ///< 0 = full tier
  Grid<V> full_;                       ///< full tier, row-major backing
  AlignedBuf<V> block_;                ///< full tier, front-major backing
  FrontMajorCells cells_;              ///< block_'s addressing
  std::vector<V> ckpt_;                ///< rows 0, k, 2k, ... row-major
  std::vector<V> last_;                ///< row crows_ - 1
  RematFn remat_;
  bool ne_pad_ = false;
  bool front_major_ = false;
  Transform transform_ = Transform::kIdentity;
  std::shared_ptr<const void> keep_alive_;

  mutable AlignedBuf<V> scratch_;
  /// Front-major band geometry of the cached band (front_major_ only).
  mutable std::optional<AntiDiagonalLayout> band_fronts_;
  mutable std::size_t cached_band_ = kNoBand;
  mutable std::size_t cached_w_ = 0;
  mutable RematStats remat_stats_;
  mutable std::size_t peak_scratch_bytes_ = 0;
};

}  // namespace lddp
