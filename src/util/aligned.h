// 64-byte-aligned growable buffer for SIMD scratch and lane-major tables.
//
// One cache line of alignment covers every vector tier in use: 16-byte
// SSE2 and 32-byte AVX2 aligned loads/stores are both valid at any
// element offset that is a multiple of the vector width, provided the
// base is 64-byte aligned. Elements are left uninitialized — every user
// overwrites the buffer before reading it (scratch is fully packed, lane
// grids fully computed), and skipping the zero-fill is the point of a
// scratch buffer. Table-sized buffers (the host staging of a full-table
// solve) come from the process-wide BlockCache (util/block_cache.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/block_cache.h"

namespace lddp {

inline constexpr std::size_t kSimdAlign = 64;
static_assert(BlockCache::kBlockAlign % kSimdAlign == 0);

template <typename T>
class AlignedBuf {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "AlignedBuf holds raw uninitialized storage");

 public:
  AlignedBuf() = default;
  explicit AlignedBuf(std::size_t n) { ensure(n); }
  ~AlignedBuf() { release(); }

  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  AlignedBuf(AlignedBuf&& o) noexcept
      : ptr_(std::exchange(o.ptr_, nullptr)),
        cap_(std::exchange(o.cap_, 0)) {}
  AlignedBuf& operator=(AlignedBuf&& o) noexcept {
    if (this != &o) {
      release();
      ptr_ = std::exchange(o.ptr_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
    }
    return *this;
  }

  /// Grows to hold at least `n` elements (contents are NOT preserved —
  /// this is scratch, not a vector) and returns the aligned base.
  T* ensure(std::size_t n) {
    if (n > cap_) {
      release();
      ptr_ = static_cast<T*>(
          BlockCache::cached(n * sizeof(T))
              ? BlockCache::instance().allocate(n * sizeof(T))
              : ::operator new(n * sizeof(T), std::align_val_t{kSimdAlign}));
      cap_ = n;
    }
    return ptr_;
  }

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t capacity() const { return cap_; }

 private:
  void release() {
    if (ptr_ == nullptr) return;
    if (BlockCache::cached(cap_ * sizeof(T)))
      BlockCache::instance().deallocate(ptr_, cap_ * sizeof(T));
    else
      ::operator delete(ptr_, std::align_val_t{kSimdAlign});
    ptr_ = nullptr;
    cap_ = 0;
  }

  T* ptr_ = nullptr;
  std::size_t cap_ = 0;
};

}  // namespace lddp
