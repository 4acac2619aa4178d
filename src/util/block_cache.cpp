#include "util/block_cache.h"

#include "util/check.h"

#include <algorithm>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
// Idle blocks are poisoned for AddressSanitizer, so a use of a table after
// it was freed still reports although the memory stays mapped.
#define LDDP_BLOCK_IDLE(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define LDDP_BLOCK_BUSY(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define LDDP_BLOCK_IDLE(p, n) ((void)(p), (void)(n))
#define LDDP_BLOCK_BUSY(p, n) ((void)(p), (void)(n))
#endif

namespace lddp {
namespace {

constexpr std::size_t round_up(std::size_t bytes) {
  return (bytes + kBlockCacheGranule - 1) / kBlockCacheGranule *
         kBlockCacheGranule;
}

void* map_block(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{BlockCache::kBlockAlign});
}

void unmap_block(void* p, std::size_t bytes) {
  LDDP_BLOCK_BUSY(p, bytes);
  ::operator delete(p, std::align_val_t{BlockCache::kBlockAlign});
}

}  // namespace

BlockCache& BlockCache::instance() {
  static BlockCache* const cache = new BlockCache;  // leaked, see header
  return *cache;
}

void* BlockCache::allocate(std::size_t bytes) {
  const std::size_t size = round_up(bytes);
  Block block{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_.reserve(live_.size() + 1);  // no throw between map and record
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it)
      if (it->bytes >= size && it->bytes - size <= size / 8 &&
          (best == free_.end() || it->bytes < best->bytes))
        best = it;
    if (best != free_.end()) {
      live_.push_back(*best);
      ++stats_.hits;
      *best = free_.back();
      free_.pop_back();
    } else {
      // Make room first: free the largest idle blocks until they cover
      // the request, so resident memory does not grow by what we keep.
      std::sort(free_.begin(), free_.end(),
                [](const Block& a, const Block& b) {
                  return a.bytes < b.bytes;
                });
      std::size_t freed = 0;
      while (freed < size && !free_.empty()) {
        const Block b = free_.back();
        free_.pop_back();
        unmap_block(b.data, b.bytes);
        freed += b.bytes;
        ++stats_.evictions;
      }
      live_.push_back(Block{map_block(size), size});
      ++stats_.misses;
    }
    block = live_.back();
  }
  LDDP_BLOCK_BUSY(block.data, block.bytes);
#ifndef NDEBUG
  std::memset(block.data, kBlockCachePoison, block.bytes);
#endif
  return block.data;
}

void BlockCache::deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  // A hit may have handed out a block larger than the request.
  auto it = std::find_if(live_.begin(), live_.end(),
                         [p](const Block& b) { return b.data == p; });
  LDDP_CHECK_MSG(it != live_.end() && bytes <= it->bytes,
                 "BlockCache::deallocate of a block it did not hand out");
  const Block block = *it;
  *it = live_.back();
  live_.pop_back();
  LDDP_BLOCK_IDLE(block.data, block.bytes);
  free_.push_back(block);
}

void BlockCache::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Block& b : free_) unmap_block(b.data, b.bytes);
  free_.clear();
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const Block& b : live_) s.live_bytes += b.bytes;
  for (const Block& b : free_) s.cached_bytes += b.bytes;
  s.cached_blocks = free_.size();
  return s;
}

}  // namespace lddp
