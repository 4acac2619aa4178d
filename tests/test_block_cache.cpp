// The process-wide cache of large table blocks (util/block_cache.h) and
// the allocation sites behind it: Grid, AlignedBuf and pool-less device
// buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/floyd_steinberg.h"
#include "problems/image.h"
#include "problems/levenshtein.h"
#include "sim/memory.h"
#include "tables/grid.h"
#include "util/aligned.h"
#include "util/block_cache.h"
#include "util/rng.h"

namespace lddp {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t rounded(std::size_t bytes) {
  return (bytes + kBlockCacheGranule - 1) / kBlockCacheGranule *
         kBlockCacheGranule;
}

std::size_t calls(const BlockCache::Stats& s) { return s.hits + s.misses; }

TEST(BlockCacheTest, FreedBlockServesTheSameGranule) {
  BlockCache cache;
  void* a = cache.allocate(33 * kMiB);
  cache.deallocate(a, 33 * kMiB);
  EXPECT_EQ(cache.stats().cached_blocks, 1u);
  // 33 and 34 MiB both round up to the 34 MiB granule.
  void* b = cache.allocate(34 * kMiB);
  EXPECT_EQ(b, a);
  const BlockCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.cached_blocks, 0u);
  EXPECT_EQ(s.live_bytes, 34 * kMiB);
  cache.deallocate(b, 34 * kMiB);
  cache.trim();
  EXPECT_EQ(cache.stats().cached_bytes, 0u);
}

TEST(BlockCacheTest, BlocksAreAlignedAndPoisonedInDebug) {
  BlockCache cache;
  auto* p = static_cast<unsigned char*>(cache.allocate(kBlockCacheThreshold));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % BlockCache::kBlockAlign,
            0u);
#ifndef NDEBUG
  EXPECT_EQ(p[0], kBlockCachePoison);
  EXPECT_EQ(p[kBlockCacheThreshold - 1], kBlockCachePoison);
  // A reused block is poisoned again, not left with the old contents.
  std::memset(p, 0, kBlockCacheThreshold);
  cache.deallocate(p, kBlockCacheThreshold);
  p = static_cast<unsigned char*>(cache.allocate(kBlockCacheThreshold));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(p[kBlockCacheThreshold / 2], kBlockCachePoison);
#endif
  cache.deallocate(p, kBlockCacheThreshold);
}

TEST(BlockCacheTest, MuchLargerBlockIsNotReused) {
  BlockCache cache;
  void* big = cache.allocate(96 * kMiB);
  cache.deallocate(big, 96 * kMiB);
  // 40 MiB would leave 56 MiB of the cached block idle: map a new one,
  // and free the big block first so resident bytes do not grow.
  void* small = cache.allocate(40 * kMiB);
  const BlockCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.cached_bytes, 0u);
  cache.deallocate(small, 40 * kMiB);
}

TEST(BlockCacheTest, SmallRequestsBypassTheCache) {
  const BlockCache::Stats before = BlockCache::instance().stats();
  {
    Grid<int> g(1024, 1024, 7);  // 4 MiB
    Grid<double> u = Grid<double>::uninitialized(2048, 2047);  // < 32 MiB
    AlignedBuf<float> buf(kBlockCacheThreshold / sizeof(float) - 1);
    sim::DeviceBuffer<int> dev(1 << 20, nullptr, nullptr, /*zeroed=*/false);
    sim::PinnedBuffer<int> pin(1 << 20, nullptr);
    EXPECT_EQ(g.at(1023, 1023), 7);
    EXPECT_FALSE(dev.pooled());
  }
  EXPECT_EQ(calls(BlockCache::instance().stats()), calls(before));

  // At the threshold each site goes through the cache.
  {
    Grid<std::int32_t> g(kBlockCacheThreshold / sizeof(std::int32_t), 1, 3);
    AlignedBuf<std::int32_t> buf(kBlockCacheThreshold / 4);
    sim::DeviceBuffer<std::int32_t> dev(kBlockCacheThreshold / 4, nullptr);
    EXPECT_EQ(g.at(g.rows() - 1, 0), 3);
    // Zeroed device storage stays zeroed even on a reused block.
    EXPECT_EQ(dev.device_ptr()[0], 0);
    EXPECT_EQ(dev.device_ptr()[dev.size() - 1], 0);
  }
  EXPECT_EQ(calls(BlockCache::instance().stats()), calls(before) + 3);
}

TEST(BlockCacheTest, LiveBlocksNeverAlias) {
  BlockCache cache;
  Rng rng(11);
  struct Live {
    unsigned char* p;
    std::size_t bytes;
  };
  std::vector<Live> live;
  for (int step = 0; step < 40; ++step) {
    if (live.size() < 3 && (live.empty() || rng.uniform_int(0, 1) == 0)) {
      const std::size_t bytes =
          kBlockCacheThreshold +
          static_cast<std::size_t>(rng.uniform_int(0, 24)) * kMiB;
      auto* p = static_cast<unsigned char*>(cache.allocate(bytes));
      for (const Live& l : live)
        EXPECT_TRUE(p + bytes <= l.p || l.p + l.bytes <= p)
            << "step " << step;
      p[0] = p[bytes - 1] = static_cast<unsigned char>(step);
      live.push_back({p, bytes});
    } else {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      cache.deallocate(live[k].p, live[k].bytes);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  for (const Live& l : live) cache.deallocate(l.p, l.bytes);
}

// The no-growth rule: a miss frees idle blocks until they cover the
// request, so cached + live bytes never exceed what they were, or what
// the live blocks plus the new one need.
TEST(BlockCacheTest, MissNeverGrowsResidentBytes) {
  BlockCache cache;
  Rng rng(5);
  std::vector<std::pair<void*, std::size_t>> live;
  std::size_t checked_misses = 0;
  for (int step = 0; step < 200; ++step) {
    if (live.size() < 3 && (live.empty() || rng.uniform_int(0, 2) != 0)) {
      const std::size_t bytes =
          kBlockCacheThreshold +
          static_cast<std::size_t>(rng.uniform_int(0, 64)) * kMiB;
      const BlockCache::Stats b = cache.stats();
      live.emplace_back(cache.allocate(bytes), bytes);
      const BlockCache::Stats a = cache.stats();
      if (a.misses > b.misses) {
        ++checked_misses;
        EXPECT_LE(a.cached_bytes + a.live_bytes,
                  std::max(b.cached_bytes + b.live_bytes,
                           b.live_bytes + rounded(bytes)))
            << "step " << step;
      }
    } else {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      cache.deallocate(live[k].first, live[k].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  EXPECT_GT(checked_misses, 3u);
  EXPECT_GT(cache.stats().hits, 3u);
  for (auto& [p, bytes] : live) cache.deallocate(p, bytes);
}

TEST(BlockCacheTest, FourThreadsChurn) {
  BlockCache cache;
  std::vector<std::thread> threads;
  std::vector<int> bad(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&cache, &bad, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int it = 0; it < 20; ++it) {
        const std::size_t bytes =
            kBlockCacheThreshold +
            static_cast<std::size_t>(rng.uniform_int(0, 8)) * kMiB;
        auto* p = static_cast<std::uint64_t*>(cache.allocate(bytes));
        const std::size_t n = bytes / sizeof(std::uint64_t);
        const std::uint64_t tag = static_cast<std::uint64_t>(t) << 32 |
                                  static_cast<std::uint64_t>(it);
        for (std::size_t k = 0; k < n; k += 4096) p[k] = tag;
        std::this_thread::yield();
        for (std::size_t k = 0; k < n; k += 4096) bad[t] += p[k] != tag;
        cache.deallocate(p, bytes);
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
  const BlockCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 80u);
  EXPECT_EQ(s.live_bytes, 0u);
}

std::size_t fs_mismatches(const Grid<problems::FsCell>& a,
                          const Grid<problems::FsCell>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + 1;
  std::size_t bad = 0;
  for (std::size_t k = 0; k < a.size(); ++k)
    bad += a.data()[k].err != b.data()[k].err ||
           a.data()[k].out != b.data()[k].out;
  return bad;
}

// Reused blocks carry the previous solve's values (or the Debug poison):
// a levenshtein table, a dither table in the same blocks, then
// levenshtein again, across the host staging, device and Grid sites.
TEST(BlockCacheSolveTest, ReusedBlocksGiveReferenceTables) {
  const problems::LevenshteinProblem lev(problems::random_sequence(4096, 1),
                                         problems::random_sequence(4096, 2));
  const problems::FloydSteinbergProblem fs(
      problems::plasma_image(2048, 2048, 3));
  const auto lev_ref = solve_cpu_serial(lev, nullptr, nullptr);
  const auto fs_ref = solve_cpu_serial(fs, nullptr, nullptr);
  RunConfig rc;
  rc.mode = Mode::kCpuParallel;
  EXPECT_EQ(solve(lev, rc).table.to_grid(), lev_ref);
  rc.mode = Mode::kGpu;
  EXPECT_EQ(fs_mismatches(solve(fs, rc).table.to_grid(), fs_ref), 0u);
  const std::size_t hits = BlockCache::instance().stats().hits;
  rc.mode = Mode::kHeterogeneous;
  EXPECT_EQ(solve(lev, rc).table.to_grid(), lev_ref);
  EXPECT_GT(BlockCache::instance().stats().hits, hits);
}

}  // namespace
}  // namespace lddp
