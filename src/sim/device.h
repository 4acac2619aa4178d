// Simulated CUDA-like device: streams, events, async copies, kernel launch.
//
// Semantics mirror the CUDA 5.0 model the paper uses:
//  * operations enqueued on one stream execute in FIFO order;
//  * operations on different streams may overlap (kernel with copy, copy
//    with copy when the device has two DMA engines);
//  * `stream_wait` is cudaStreamWaitEvent: the next op on the stream waits
//    for the given operation (any op id doubles as an event).
//
// Real execution is *eager*: a memcpy performs the byte copy and a launch
// runs the functor over all cells (optionally on the host thread pool)
// before returning. Because the caller issues operations in dependency
// order, eager execution is a valid linearization, so results are always
// bit-correct. The *simulated* schedule, with all its overlap, is recorded
// on the shared Timeline and provides the reproduced timing numbers.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "cpu/thread_pool.h"
#include "sim/device_spec.h"
#include "sim/kernel.h"
#include "sim/memory.h"
#include "sim/timeline.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace lddp::sim {

class Device {
 public:
  using StreamId = std::size_t;

  /// `pool` may be null: kernels then run serially on the calling thread.
  /// The Timeline must outlive the Device. `name` prefixes the device's
  /// timeline resources (distinguishes devices on multi-accelerator
  /// platforms). `buffers`, when given, backs alloc/alloc_pinned with
  /// reusable arenas and must outlive every buffer handed out.
  Device(GpuSpec spec, Timeline& timeline, cpu::ThreadPool* pool = nullptr,
         const std::string& name = "gpu", BufferPool* buffers = nullptr)
      : spec_(std::move(spec)), tl_(&timeline), pool_(pool),
        buffers_(buffers) {
    compute_res_ = tl_->add_resource(name + ".compute");
    h2d_res_ = tl_->add_resource(name + ".copy.h2d");
    d2h_res_ = spec_.copy_engines >= 2 ? tl_->add_resource(name + ".copy.d2h")
                                       : h2d_res_;
    streams_.push_back(Stream{});  // stream 0 = default stream
  }

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const GpuSpec& spec() const { return spec_; }
  Timeline& timeline() { return *tl_; }
  MemoryStats& stats() { return stats_; }
  const MemoryStats& stats() const { return stats_; }

  StreamId default_stream() const { return 0; }
  StreamId create_stream() {
    streams_.push_back(Stream{});
    return streams_.size() - 1;
  }
  std::size_t stream_count() const { return streams_.size(); }

  /// `zeroed = false` skips the allocation's zero-fill (cudaMalloc
  /// semantics); only for strategies that write every element before any
  /// read — the fill is real wall-clock at large table sizes.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t count, bool zeroed = true) {
    return DeviceBuffer<T>(count, &stats_, buffers_, zeroed);
  }

  template <typename T>
  PinnedBuffer<T> alloc_pinned(std::size_t count) {
    return PinnedBuffer<T>(count, &stats_, buffers_);
  }

  BufferPool* buffer_pool() { return buffers_; }

  /// Async host-to-device copy on `stream`. Returns the op id (usable as an
  /// event). `kind` prices the copy (pinned vs pageable source).
  template <typename T>
  OpId memcpy_h2d(StreamId stream, T* dst_device, const T* src_host,
                  std::size_t count, MemoryKind kind,
                  OpId extra_dep = kNoOp) {
    LDDP_CHECK_MSG(dst_device != nullptr || count == 0,
                   "h2d into null device pointer");
    if (count == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferH2D, count * sizeof(T));
    std::memcpy(dst_device, src_host, count * sizeof(T));
    stats_.h2d_bytes += count * sizeof(T);
    ++stats_.h2d_copies;
    return enqueue_copy(stream, h2d_res_, count * sizeof(T), kind, extra_dep,
                        "h2d");
  }

  /// Async device-to-host copy on `stream`.
  template <typename T>
  OpId memcpy_d2h(StreamId stream, T* dst_host, const T* src_device,
                  std::size_t count, MemoryKind kind,
                  OpId extra_dep = kNoOp) {
    LDDP_CHECK_MSG(src_device != nullptr || count == 0,
                   "d2h from null device pointer");
    if (count == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferD2H, count * sizeof(T));
    std::memcpy(dst_host, src_device, count * sizeof(T));
    stats_.d2h_bytes += count * sizeof(T);
    ++stats_.d2h_copies;
    return enqueue_copy(stream, d2h_res_, count * sizeof(T), kind, extra_dep,
                        "d2h");
  }

  /// Records the cost of a host-to-device transfer whose real data movement
  /// the caller performs itself (e.g. scattering boundary cells through a
  /// layout mapping, which is not one contiguous memcpy).
  OpId record_h2d(StreamId stream, std::size_t bytes, MemoryKind kind,
                  OpId extra_dep = kNoOp) {
    if (bytes == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferH2D, bytes);
    stats_.h2d_bytes += bytes;
    ++stats_.h2d_copies;
    return enqueue_copy(stream, h2d_res_, bytes, kind, extra_dep, "h2d");
  }

  /// Device-to-host counterpart of record_h2d. `label` names the op on
  /// the timeline (the frontier tier's checkpoint halos are told apart
  /// from the strategies' own downloads by it).
  OpId record_d2h(StreamId stream, std::size_t bytes, MemoryKind kind,
                  OpId extra_dep = kNoOp, const char* label = "d2h") {
    if (bytes == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferD2H, bytes);
    stats_.d2h_bytes += bytes;
    ++stats_.d2h_copies;
    return enqueue_copy(stream, d2h_res_, bytes, kind, extra_dep, label);
  }

  /// Launches `body(cell)` for cell in [0, num_cells) — thread-per-cell, the
  /// paper's GPU mapping. Executes eagerly (via the pool when present),
  /// records the analytic duration on the compute resource.
  template <typename Body>
  OpId launch(StreamId stream, const KernelInfo& info, std::size_t num_cells,
              Body&& body, OpId extra_dep = kNoOp) {
    if (num_cells == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kKernelLaunch, num_cells);
    execute_cells(num_cells, body);
    const double seconds = kernel_seconds(spec_, info, num_cells);
    const OpId op =
        enqueue(stream, compute_res_, seconds, extra_dep, "kernel");
    tl_->annotate_pack(
        op, seconds - kernel_packed_exec_seconds(spec_, info, num_cells));
    return op;
  }

  /// Launches `body(t)` for tile t in [0, num_tiles) — the block-per-tile
  /// mapping of the tiled execution layer. The caller prices the launch
  /// (tiled_kernel_exec_seconds); this records launch overhead + that
  /// duration, mirroring launch(). `packed_exec_seconds`, when >= 0, is the
  /// floor-free pricing (tiled_kernel_packed_exec_seconds) used to annotate
  /// the amortizable share for the cross-solve packer.
  template <typename Body>
  OpId launch_tiled(StreamId stream, double exec_seconds,
                    std::size_t num_tiles, Body&& body,
                    OpId extra_dep = kNoOp,
                    double packed_exec_seconds = -1.0) {
    if (num_tiles == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kKernelLaunch, num_tiles);
    execute_tiles(num_tiles, std::forward<Body>(body));
    const double seconds = spec_.launch_overhead_us * 1e-6 + exec_seconds;
    const OpId op =
        enqueue(stream, compute_res_, seconds, extra_dep, "kernel");
    const double packed =
        packed_exec_seconds >= 0.0 ? packed_exec_seconds : exec_seconds;
    tl_->annotate_pack(op, seconds - std::min(packed, seconds));
    return op;
  }

  /// Eagerly runs `body` over [0, num_cells) on the host (via the pool for
  /// large counts) without recording anything — the execution half of
  /// launch(), also used by LaunchGraph when timeline recording is
  /// deferred to replay. `body` is either per-cell — `body(c)` — or
  /// ranged — `body(lo, hi)` over contiguous sub-ranges (the batch-front
  /// kernels). The timing model sees only the cell count, so the
  /// simulated schedule is identical for both forms.
  template <typename Body>
  void execute_cells(std::size_t num_cells, Body&& body) {
    if constexpr (std::is_invocable_v<Body&, std::size_t, std::size_t>) {
      if (pool_ && num_cells >= kParallelExecThreshold) {
        pool_->parallel_for_chunked(0, num_cells,
                                    [&body](std::size_t lo, std::size_t hi) {
                                      body(lo, hi);
                                    });
      } else {
        body(0, num_cells);
      }
    } else if (pool_ && num_cells >= kParallelExecThreshold) {
      pool_->parallel_for_chunked(0, num_cells,
                                  [&body](std::size_t lo, std::size_t hi) {
                                    for (std::size_t c = lo; c < hi; ++c)
                                      body(c);
                                  });
    } else {
      for (std::size_t c = 0; c < num_cells; ++c) body(c);
    }
  }

  /// Eagerly runs `body(t)` over [0, num_tiles) coarse-grained items (one
  /// item per pool task — tiles are big, unlike cells).
  template <typename Body>
  void execute_tiles(std::size_t num_tiles, Body&& body) {
    if (pool_ && num_tiles > 1) {
      pool_->parallel_for(0, num_tiles, [&body](std::size_t t) { body(t); });
    } else {
      for (std::size_t t = 0; t < num_tiles; ++t) body(t);
    }
  }

  /// cudaStreamWaitEvent: the next operation on `stream` will additionally
  /// wait for `event` (an op id from any stream) to complete. Multiple
  /// calls before the next operation accumulate.
  void stream_wait(StreamId stream, OpId event) {
    LDDP_CHECK(stream < streams_.size());
    if (event != kNoOp) streams_[stream].pending_waits.push_back(event);
  }

  /// Last operation enqueued on the stream (kNoOp if none) — record this as
  /// an "event" for cross-stream or CPU-side dependencies.
  OpId last_op(StreamId stream) const {
    LDDP_CHECK(stream < streams_.size());
    return streams_[stream].last;
  }

  /// Device-wide synchronize: all work was executed eagerly, so this only
  /// reports the simulated completion time of everything enqueued so far.
  double synchronize() const { return tl_->makespan(); }

  /// Total simulated kernel time (utilization numerator).
  double compute_busy() const { return tl_->busy_time(compute_res_); }

  /// Total simulated DMA time across the copy engine(s).
  double copy_busy() const {
    double t = tl_->busy_time(h2d_res_);
    if (d2h_res_ != h2d_res_) t += tl_->busy_time(d2h_res_);
    return t;
  }

 private:
  friend class LaunchGraph;

  // Below this size the fork/join cost of the host pool exceeds the loop.
  static constexpr std::size_t kParallelExecThreshold = 4096;

  struct Stream {
    OpId last = kNoOp;
    std::vector<OpId> pending_waits;
  };

  /// Records one replayed graph node: explicit dependency list, stream
  /// FIFO chaining handled by the caller via set_last_op.
  OpId record_raw(Timeline::ResourceId res, double seconds,
                  std::span<const OpId> deps, const char* label) {
    return tl_->record(res, seconds, deps, label);
  }

  void set_last_op(StreamId stream, OpId op) {
    LDDP_CHECK(stream < streams_.size());
    streams_[stream].last = op;
  }

  /// enqueue() for a priced copy: records transfer_seconds and annotates
  /// the per-copy submission latency (everything above wire time) as
  /// amortizable by a cross-solve pack of DMA descriptors.
  OpId enqueue_copy(StreamId stream, Timeline::ResourceId res,
                    std::size_t bytes, MemoryKind kind, OpId extra_dep,
                    const char* label) {
    const double seconds = transfer_seconds(spec_, bytes, kind);
    const OpId op = enqueue(stream, res, seconds, extra_dep, label);
    tl_->annotate_pack(op,
                       seconds - transfer_exec_seconds(spec_, bytes, kind));
    return op;
  }

  OpId enqueue(StreamId stream, Timeline::ResourceId res, double seconds,
               OpId extra_dep, const char* label) {
    LDDP_CHECK(stream < streams_.size());
    Stream& s = streams_[stream];
    s.pending_waits.push_back(s.last);
    s.pending_waits.push_back(extra_dep);
    const OpId op = tl_->record(res, seconds, s.pending_waits, label);
    s.last = op;
    s.pending_waits.clear();
    return op;
  }

  GpuSpec spec_;
  Timeline* tl_;
  cpu::ThreadPool* pool_;
  BufferPool* buffers_ = nullptr;
  MemoryStats stats_;
  Timeline::ResourceId compute_res_{}, h2d_res_{}, d2h_res_{};
  std::vector<Stream> streams_;
};

}  // namespace lddp::sim
