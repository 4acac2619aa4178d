// Process-wide cache of large table blocks.
//
// A full-table solve at 4k x 4k allocates tens of MB per table (the result
// Grid, the front-major staging table, a device twin). glibc serves every
// block above its mmap ceiling with a fresh mapping and unmaps it on free,
// so back-to-back solves would fault every page of every table in again.
// Blocks at or above kBlockCacheThreshold go through this cache instead:
// a freed block stays mapped (and faulted in) and serves the next request
// of a similar size.
//
//   * Sizes round up to kBlockCacheGranule, so near-equal tables share
//     blocks. Requests below the threshold never reach the cache; callers
//     keep their own allocation call for those (see cached()).
//   * A hit takes the smallest cached block that fits, and only one within
//     1/8 of the rounded request, so a small table never pins a much
//     larger block.
//   * A miss first frees cached blocks, largest first, until the freed
//     bytes cover the request. Cached plus live bytes therefore never grow
//     past max(what they were, live + request): the cache never holds
//     more resident memory than the same allocation sequence reaches
//     without it (up to the granule rounding and the 1/8 slack above).
//   * Handed-out blocks are not zeroed — every user writes before it
//     reads. Debug builds (NDEBUG undefined) fill each handed-out block,
//     fresh or reused, with kBlockCachePoison so a read-before-write shows
//     up as a wrong answer instead of a previous solve's values.
//
// Thread-safe (one mutex; a solve takes only a few blocks). The instance
// is leaked on purpose, so tables destroyed during static destruction
// still find it alive.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace lddp {

/// Smallest block that goes through the cache: glibc's largest mmap
/// threshold. Below it glibc reuses freed heap memory on its own.
inline constexpr std::size_t kBlockCacheThreshold = std::size_t{32} << 20;
/// Cached sizes are multiples of this.
inline constexpr std::size_t kBlockCacheGranule = std::size_t{2} << 20;
/// Byte written over every handed-out block when NDEBUG is undefined.
inline constexpr unsigned char kBlockCachePoison = 0xA5;

class BlockCache {
 public:
  struct Stats {
    std::size_t hits = 0;       ///< requests served by a cached block
    std::size_t misses = 0;     ///< requests that mapped a new block
    std::size_t evictions = 0;  ///< cached blocks freed to make room
    std::size_t live_bytes = 0;    ///< handed-out blocks, rounded sizes
    std::size_t cached_bytes = 0;  ///< idle blocks kept mapped
    std::size_t cached_blocks = 0;
  };

  /// The process-wide cache.
  static BlockCache& instance();

  /// True when a request of `bytes` goes through the cache.
  static constexpr bool cached(std::size_t bytes) {
    return bytes >= kBlockCacheThreshold;
  }

  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  ~BlockCache() { trim(); }

  /// A block of at least `bytes` (>= kBlockCacheThreshold), aligned to
  /// kBlockAlign. Contents are unspecified (poisoned in Debug builds).
  void* allocate(std::size_t bytes);
  /// Returns a block from allocate(); `bytes` must be the size requested.
  void deallocate(void* p, std::size_t bytes);
  /// Frees every cached block (handed-out blocks are unaffected).
  void trim();
  Stats stats() const;

  static constexpr std::size_t kBlockAlign = 64;

 private:
  struct Block {
    void* data;
    std::size_t bytes;
  };

  mutable std::mutex mu_;
  std::vector<Block> free_;  // idle blocks; guarded by mu_
  std::vector<Block> live_;  // handed-out blocks; guarded by mu_
  Stats stats_;              // counters only; guarded by mu_
};

}  // namespace lddp
