// BufferPool: arena reuse across acquisitions, zero-fill on reuse, the
// device/pinned cache separation, and end-to-end reuse across repeated
// framework solve() calls.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/framework.h"
#include "problems/levenshtein.h"
#include "sim/memory.h"

namespace lddp {
namespace {

TEST(BufferPoolTest, ReleasedArenaIsReused) {
  sim::BufferPool pool;
  void* a = pool.acquire(1024, /*pinned=*/false);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.release(a, 1024, /*pinned=*/false);
  EXPECT_EQ(pool.cached_arenas(), 1u);
  void* b = pool.acquire(1024, /*pinned=*/false);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().bytes_reused, 1024u);
  pool.release(b, 1024, /*pinned=*/false);
}

TEST(BufferPoolTest, ReusedStorageIsZeroFilled) {
  sim::BufferPool pool;
  auto* a = static_cast<unsigned char*>(pool.acquire(256, false));
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a[i], 0u) << i;  // fresh arenas are zeroed too
    a[i] = 0xAB;
  }
  pool.release(a, 256, false);
  auto* b = static_cast<unsigned char*>(pool.acquire(256, false));
  for (int i = 0; i < 256; ++i) EXPECT_EQ(b[i], 0u) << i;
  pool.release(b, 256, false);
}

TEST(BufferPoolTest, PinnedAndDeviceCachesDoNotMix) {
  sim::BufferPool pool;
  void* d = pool.acquire(512, /*pinned=*/false);
  pool.release(d, 512, /*pinned=*/false);
  void* p = pool.acquire(512, /*pinned=*/true);
  EXPECT_NE(p, d);  // device arena must not satisfy a pinned request
  EXPECT_EQ(pool.stats().misses, 2u);
  pool.release(p, 512, /*pinned=*/true);
}

TEST(BufferPoolTest, BestFitPrefersSmallestSufficientArena) {
  sim::BufferPool pool;
  void* big = pool.acquire(4096, false);
  void* small = pool.acquire(1024, false);
  pool.release(big, 4096, false);
  pool.release(small, 1024, false);
  // A 512-byte request fits both; best-fit must pick the 1024-byte arena.
  void* got = pool.acquire(512, false);
  EXPECT_EQ(got, small);
  pool.release(got, 512, false);
}

TEST(BufferPoolTest, TrimFreesCachedArenas) {
  sim::BufferPool pool;
  pool.release(pool.acquire(2048, false), 2048, false);
  pool.release(pool.acquire(64, true), 64, true);
  EXPECT_EQ(pool.cached_arenas(), 2u);
  pool.trim();
  EXPECT_EQ(pool.cached_arenas(), 0u);
}

TEST(BufferPoolTest, DeviceBufferRoundTripsThroughPool) {
  sim::BufferPool pool;
  sim::MemoryStats stats;
  {
    sim::DeviceBuffer<int> buf(100, &stats, &pool);
    EXPECT_TRUE(buf.pooled());
    for (int i = 0; i < 100; ++i) EXPECT_EQ(buf.device_ptr()[i], 0);
    EXPECT_EQ(stats.device_bytes_allocated, 100 * sizeof(int));
  }
  EXPECT_EQ(stats.device_bytes_allocated, 0u);
  EXPECT_EQ(pool.cached_arenas(), 1u);
  sim::DeviceBuffer<int> again(50, &stats, &pool);
  EXPECT_EQ(pool.stats().hits, 1u);
}

// Device-mode solves draw their simulated device memory from the pool:
// the frontier tier's window comes back from the arena cache on the next
// solve. The full tier's table is the result the caller keeps, so it never
// comes from the pool (a table must not outlive the arena it points into).
TEST(BufferPoolTest, RepeatedSolvesReuseArenasAndStayCorrect) {
  const std::string a = "heterogeneous", b = "framework";
  problems::LevenshteinProblem p(a, b);

  RunConfig base;
  base.mode = Mode::kCpuSerial;
  const Grid<int> ref = solve(p, base).table.to_grid();

  sim::BufferPool pool;
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  cfg.storage = Storage::kFrontier;
  cfg.buffer_pool = &pool;
  const auto first = solve_frontier(p, cfg);
  EXPECT_EQ(first.table.to_grid(), ref);
  EXPECT_EQ(pool.stats().hits, 0u);  // cold pool

  const auto second = solve_frontier(p, cfg);
  EXPECT_EQ(second.table.to_grid(), ref);
  EXPECT_GT(pool.stats().hits, 0u);  // arenas came back from the cache
  EXPECT_DOUBLE_EQ(second.stats.sim_seconds, first.stats.sim_seconds);

  const sim::BufferPool::Stats before = pool.stats();
  const auto full = solve(p, cfg);
  EXPECT_EQ(full.table.to_grid(), ref);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses,
            before.hits + before.misses);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
}

TEST(BufferPoolTest, HeteroSolvesShareOnePool) {
  const std::string a = "abcdefghij", b = "jihgfedcba";
  problems::LevenshteinProblem p(a, b);
  RunConfig base;
  base.mode = Mode::kCpuSerial;
  const Grid<int> ref = solve(p, base).table.to_grid();

  sim::BufferPool pool;
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {2, 3};
  cfg.storage = Storage::kFrontier;
  cfg.buffer_pool = &pool;
  EXPECT_EQ(solve_frontier(p, cfg).table.to_grid(), ref);
  EXPECT_EQ(solve_frontier(p, cfg).table.to_grid(), ref);
  EXPECT_GT(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().live_bytes, 0u);
}

}  // namespace
}  // namespace lddp
