// Simulated device/host memory.
//
// Device buffers own real host RAM (kernels execute on the host), but they
// are distinct allocations from any host-side buffer — data becomes visible
// to the "device" only through an explicit transfer. A strategy that forgets
// a boundary transfer therefore computes on stale values and fails the
// correctness tests, exactly as it would on real hardware.
//
// Pinned buffers model cudaHostAlloc storage: the transfer engine prices
// copies from/to them with lower latency and higher bandwidth (Section
// IV-C2 of the paper uses pinned memory for small two-way transfers).
//
// A BufferPool lets repeated solve() calls (tuner sweeps, benches,
// multi-run services) reuse device/pinned arenas instead of re-allocating.
// Reused storage is zeroed by default, so pooled buffers keep the
// fresh-allocation semantics of cudaMalloc-then-memset that the strategies
// rely on; allocations may opt out (`zeroed = false`) when every element
// is written before it is read.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "util/block_cache.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace lddp::sim {

/// Where a host-side pointer lives — determines transfer pricing.
enum class MemoryKind {
  kPageable,  ///< ordinary malloc/new memory; staged through a bounce buffer
  kPinned,    ///< page-locked; DMA engine reads it directly
};

/// Book-keeping shared by a Device and its buffers.
struct MemoryStats {
  std::size_t device_bytes_allocated = 0;
  std::size_t device_bytes_peak = 0;
  std::size_t pinned_bytes_allocated = 0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t h2d_copies = 0;
  std::size_t d2h_copies = 0;
};

/// Arena cache for device and pinned-host allocations (cudaMalloc /
/// cudaHostAlloc are expensive; real frameworks pool them — so do we).
///
/// Best-fit on size; released arenas go back to the free list instead of
/// the heap. acquire() always returns zero-filled storage. Thread-safe: a
/// process-wide pool may serve concurrent solve() calls. acquire/release
/// are virtual so decorators (QuotaBufferPool below) can interpose on the
/// same RunConfig::buffer_pool plumbing.
class BufferPool {
 public:
  struct Stats {
    std::size_t hits = 0;          ///< acquisitions served from the cache
    std::size_t misses = 0;        ///< acquisitions that hit the heap
    std::size_t bytes_reused = 0;  ///< sum of requested bytes over hits
    std::size_t live_bytes = 0;       ///< bytes currently checked out
    std::size_t peak_live_bytes = 0;  ///< arena high-water across the run
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  virtual ~BufferPool() { trim(); }

  /// Returns storage of at least `bytes` (aligned for any scalar type),
  /// zero-filled unless the caller opts out. `pinned` selects the
  /// pinned-host cache — pinned and device arenas never mix, as on real
  /// hardware. `zeroed = false` skips the fill (cudaMalloc semantics) and
  /// is only for clients that overwrite every element before reading it:
  /// at tens of MB the memset costs as much as real work.
  virtual void* acquire(std::size_t bytes, bool pinned, bool zeroed = true) {
    if (bytes == 0) return nullptr;
    fault::maybe_throw(fault::Site::kPoolAcquire, bytes);
    std::lock_guard<std::mutex> lock(mu_);
    auto& cache = pinned ? pinned_free_ : device_free_;
    std::size_t best = cache.size();
    for (std::size_t k = 0; k < cache.size(); ++k) {
      if (cache[k].bytes < bytes) continue;
      if (best == cache.size() || cache[k].bytes < cache[best].bytes)
        best = k;
    }
    if (best != cache.size()) {
      void* p = cache[best].data;
      cache[best] = cache.back();
      cache.pop_back();
      if (zeroed) std::memset(p, 0, bytes);
      ++stats_.hits;
      stats_.bytes_reused += bytes;
      note_checkout(bytes);
      return p;
    }
    void* p = ::operator new(bytes);
    if (zeroed) std::memset(p, 0, bytes);
    ++stats_.misses;
    note_checkout(bytes);
    return p;
  }

  /// Returns an arena from acquire() to the cache. `bytes` must be the
  /// size originally requested.
  virtual void release(void* p, std::size_t bytes, bool pinned) {
    if (p == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    LDDP_DCHECK(stats_.live_bytes >= bytes);
    stats_.live_bytes -= bytes;
    (pinned ? pinned_free_ : device_free_).push_back(Arena{p, bytes});
  }

  /// Frees every cached arena (buffers still in use are unaffected).
  void trim() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& a : device_free_) ::operator delete(a.data);
    for (auto& a : pinned_free_) ::operator delete(a.data);
    device_free_.clear();
    pinned_free_.clear();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  std::size_t cached_arenas() const {
    std::lock_guard<std::mutex> lock(mu_);
    return device_free_.size() + pinned_free_.size();
  }

 private:
  struct Arena {
    void* data;
    std::size_t bytes;
  };

  // Caller holds mu_.
  void note_checkout(std::size_t bytes) {
    stats_.live_bytes += bytes;
    stats_.peak_live_bytes =
        std::max(stats_.peak_live_bytes, stats_.live_bytes);
  }

  mutable std::mutex mu_;
  std::vector<Arena> device_free_;
  std::vector<Arena> pinned_free_;
  Stats stats_;
};

/// Per-client quota view over a shared BufferPool (the batch engine gives
/// each in-flight solve one of these). Up to `quota_bytes` of outstanding
/// storage is borrowed from the parent pool; acquisitions beyond the quota
/// fall through to the plain heap, so one oversized solve can neither
/// hoard the shared arena cache nor starve its peers of reuse. A zero
/// quota means unlimited (pure pass-through).
///
/// Thread-safe like its parent; must not outlive it, and all buffers must
/// be released before destruction (enforced).
class QuotaBufferPool final : public BufferPool {
 public:
  QuotaBufferPool(BufferPool* parent, std::size_t quota_bytes)
      : parent_(parent), quota_(quota_bytes) {
    LDDP_CHECK(parent != nullptr);
  }
  ~QuotaBufferPool() override {
    LDDP_CHECK_MSG(outstanding_ == 0 && direct_.empty(),
                   "QuotaBufferPool destroyed with live buffers");
  }

  void* acquire(std::size_t bytes, bool pinned, bool zeroed = true) override {
    if (bytes == 0) return nullptr;
    fault::maybe_throw(fault::Site::kQuotaAcquire, bytes);
    {
      std::lock_guard<std::mutex> lock(quota_mu_);
      if (quota_ != 0 && outstanding_ + bytes > quota_) {
        void* p = ::operator new(bytes);
        if (zeroed) std::memset(p, 0, bytes);
        direct_.push_back(p);
        ++over_quota_;
        return p;
      }
      outstanding_ += bytes;
    }
    // The quota commit above must roll back if the parent acquisition
    // fails (an injected kPoolAcquire fault, or a real bad_alloc):
    // otherwise the destructor's live-buffer check fires during unwinding
    // — inside a noexcept destructor — and terminates the process.
    try {
      return parent_->acquire(bytes, pinned, zeroed);
    } catch (...) {
      std::lock_guard<std::mutex> lock(quota_mu_);
      outstanding_ -= bytes;
      throw;
    }
  }

  void release(void* p, std::size_t bytes, bool pinned) override {
    if (p == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(quota_mu_);
      auto it = std::find(direct_.begin(), direct_.end(), p);
      if (it != direct_.end()) {
        *it = direct_.back();
        direct_.pop_back();
        ::operator delete(p);
        return;
      }
      LDDP_DCHECK(outstanding_ >= bytes);
      outstanding_ -= bytes;
    }
    parent_->release(p, bytes, pinned);
  }

  std::size_t outstanding_bytes() const {
    std::lock_guard<std::mutex> lock(quota_mu_);
    return outstanding_;
  }
  /// Acquisitions that exceeded the quota and bypassed the parent pool.
  std::size_t over_quota_count() const {
    std::lock_guard<std::mutex> lock(quota_mu_);
    return over_quota_;
  }

 private:
  BufferPool* parent_;
  std::size_t quota_;
  mutable std::mutex quota_mu_;
  std::size_t outstanding_ = 0;  // bytes currently borrowed from parent_
  std::size_t over_quota_ = 0;
  std::vector<void*> direct_;    // live over-quota heap allocations
};

namespace detail {

/// Shared storage logic of DeviceBuffer / PinnedBuffer: zeroed elements,
/// optionally borrowed from a BufferPool (trivially-copyable T only — the
/// pool hands out raw zeroed bytes) and returned to it on release. Without
/// a pool, table-sized storage of trivially-copyable T comes from the
/// process-wide BlockCache (util/block_cache.h), so a solo solve's device
/// table reuses the pages the previous solve faulted in.
template <typename T>
struct PooledStorage {
  T* data = nullptr;
  std::size_t size = 0;
  BufferPool* pool = nullptr;

  static constexpr bool block_cached(std::size_t count) {
    return std::is_trivially_copyable_v<T> &&
           BlockCache::cached(count * sizeof(T));
  }

  void acquire(std::size_t count, BufferPool* from, bool pinned,
               bool zeroed = true) {
    if (count == 0) return;
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (from != nullptr) {
        data =
            static_cast<T*>(from->acquire(count * sizeof(T), pinned, zeroed));
        size = count;
        pool = from;
        return;
      }
      if (block_cached(count)) {
        data = static_cast<T*>(
            BlockCache::instance().allocate(count * sizeof(T)));
        if (zeroed)
          std::memset(static_cast<void*>(data), 0, count * sizeof(T));
        size = count;
        return;
      }
      if (!zeroed) {
        data = new T[count];  // default-init: trivial T stays unwritten
        size = count;
        return;
      }
    }
    data = new T[count]();
    size = count;
  }

  void release(bool pinned) {
    if (data == nullptr) return;
    if (pool != nullptr)
      pool->release(data, size * sizeof(T), pinned);
    else if (block_cached(size))
      BlockCache::instance().deallocate(data, size * sizeof(T));
    else
      delete[] data;
    data = nullptr;
    size = 0;
    pool = nullptr;
  }

  void swap(PooledStorage& o) {
    std::swap(data, o.data);
    std::swap(size, o.size);
    std::swap(pool, o.pool);
  }
};

}  // namespace detail

/// A typed region of simulated device global memory.
///
/// Movable, non-copyable (it is an owning handle, like a cudaMalloc
/// allocation). Element access is provided for *kernel* code only; host
/// strategy code must go through Device::memcpy_* to respect the
/// transfer-visibility discipline above.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::size_t count, MemoryStats* stats,
               BufferPool* pool = nullptr, bool zeroed = true)
      : stats_(stats) {
    storage_.acquire(count, pool, /*pinned=*/false, zeroed);
    if (stats_) {
      stats_->device_bytes_allocated += bytes();
      stats_->device_bytes_peak =
          std::max(stats_->device_bytes_peak, stats_->device_bytes_allocated);
    }
  }

  DeviceBuffer(DeviceBuffer&& o) noexcept { swap(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { release(); }

  std::size_t size() const { return storage_.size; }
  std::size_t bytes() const { return storage_.size * sizeof(T); }
  bool empty() const { return storage_.size == 0; }
  bool pooled() const { return storage_.pool != nullptr; }

  /// Raw device pointer — pass to kernels.
  T* device_ptr() { return storage_.data; }
  const T* device_ptr() const { return storage_.data; }

 private:
  void release() {
    if (storage_.data && stats_) stats_->device_bytes_allocated -= bytes();
    storage_.release(/*pinned=*/false);
    stats_ = nullptr;
  }
  void swap(DeviceBuffer& o) {
    storage_.swap(o.storage_);
    std::swap(stats_, o.stats_);
  }

  detail::PooledStorage<T> storage_;
  MemoryStats* stats_ = nullptr;
};

/// Page-locked host memory (cudaHostAlloc equivalent).
template <typename T>
class PinnedBuffer {
 public:
  PinnedBuffer() = default;
  PinnedBuffer(std::size_t count, MemoryStats* stats,
               BufferPool* pool = nullptr)
      : stats_(stats) {
    storage_.acquire(count, pool, /*pinned=*/true);
    if (stats_) stats_->pinned_bytes_allocated += count * sizeof(T);
  }
  PinnedBuffer(PinnedBuffer&& o) noexcept { swap(o); }
  PinnedBuffer& operator=(PinnedBuffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  PinnedBuffer(const PinnedBuffer&) = delete;
  PinnedBuffer& operator=(const PinnedBuffer&) = delete;
  ~PinnedBuffer() { release(); }

  std::size_t size() const { return storage_.size; }
  std::size_t bytes() const { return storage_.size * sizeof(T); }
  bool pooled() const { return storage_.pool != nullptr; }
  T* data() { return storage_.data; }
  const T* data() const { return storage_.data; }
  T& operator[](std::size_t i) {
    LDDP_DCHECK(i < storage_.size);
    return storage_.data[i];
  }
  const T& operator[](std::size_t i) const {
    LDDP_DCHECK(i < storage_.size);
    return storage_.data[i];
  }

  static constexpr MemoryKind kind() { return MemoryKind::kPinned; }

 private:
  void release() {
    if (storage_.data && stats_) stats_->pinned_bytes_allocated -= bytes();
    storage_.release(/*pinned=*/true);
    stats_ = nullptr;
  }
  void swap(PinnedBuffer& o) {
    storage_.swap(o.storage_);
    std::swap(stats_, o.stats_);
  }

  detail::PooledStorage<T> storage_;
  MemoryStats* stats_ = nullptr;
};

}  // namespace lddp::sim
