// Linear-space result table for the frontier storage tier.
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
// The same type doubles as a facade over a fully materialized Grid
// (Storage::kFull, or layouts without a bounded window), so consumers are
// written once against FrontierTable and work on either tier.
//
// at() is const but memoizes the cached band internally: concurrent reads
// of one FrontierTable must be externally synchronized. The remat
// callback typically references the problem object by pointer — the
// problem must outlive the table unless keep_alive() holds it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

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

  /// Coordinate view applied on top of the canonical storage — the
  /// frontier analogue of transpose_grid / mirror_grid for the symmetry
  /// adapters (a frontier table cannot be re-materialized eagerly, so the
  /// undo is a view, not a copy).
  enum class Transform { kIdentity, kTransposed, kMirrored };

  /// Rematerialization accounting (diagnostics and tests).
  struct RematStats {
    std::size_t bands = 0;  ///< band (re)materializations triggered
    std::size_t rows = 0;   ///< rows recomputed across them
    std::size_t cells = 0;  ///< cells recomputed across them
  };

  FrontierTable() = default;

  /// Full tier: wraps an already materialized grid (user orientation).
  static FrontierTable full(Grid<V> g) {
    FrontierTable t;
    t.crows_ = g.rows();
    t.ccols_ = g.cols();
    t.full_ = std::move(g);
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

  /// Cell (i, j) in user orientation, by value (interior cells may be
  /// served from band scratch that a later read can evict).
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
  /// or the whole grid on the full tier).
  std::size_t resident_bytes() const {
    if (!frontier()) return crows_ * ccols_ * sizeof(V);
    return (ckpt_.size() + last_.size()) * sizeof(V);
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
    if (!frontier()) return full_.at(i, j);
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
  Grid<V> full_;                       ///< full tier storage
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
