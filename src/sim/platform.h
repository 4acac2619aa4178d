// A heterogeneous platform: one simulated CPU agent + one simulated GPU
// sharing a single Timeline, so CPU fronts, GPU kernels and DMA copies all
// schedule against each other exactly as the paper's figures require.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cpu/cost_model.h"
#include "cpu/thread_pool.h"
#include "sim/device.h"
#include "sim/device_spec.h"
#include "sim/timeline.h"

namespace lddp::sim {

class Platform {
 public:
  /// `pool` may be null: all real execution then runs on the calling
  /// thread (simulated times are unaffected — they come from the models).
  /// `buffers`, when given, backs the devices' alloc/alloc_pinned with
  /// reusable arenas shared across Platform instances.
  explicit Platform(PlatformSpec spec, cpu::ThreadPool* pool = nullptr,
                    BufferPool* buffers = nullptr)
      : spec_(std::move(spec)), pool_(pool) {
    cpu_res_ = timeline_.add_resource("cpu");
    gpus_.push_back(std::make_unique<Device>(spec_.gpu, timeline_, pool,
                                             "gpu", buffers));
  }

  /// Multi-accelerator platform: one CPU plus any number of devices — the
  /// configuration the paper's conclusion asks about.
  Platform(cpu::CpuSpec cpu, std::vector<GpuSpec> accels,
           cpu::ThreadPool* pool = nullptr, BufferPool* buffers = nullptr)
      : pool_(pool) {
    LDDP_CHECK_MSG(!accels.empty(), "need at least one accelerator");
    spec_.name = "multi-accelerator";
    spec_.cpu = std::move(cpu);
    spec_.gpu = accels.front();
    cpu_res_ = timeline_.add_resource("cpu");
    for (std::size_t k = 0; k < accels.size(); ++k)
      gpus_.push_back(std::make_unique<Device>(
          std::move(accels[k]), timeline_, pool,
          "gpu" + std::to_string(k), buffers));
  }

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const PlatformSpec& spec() const { return spec_; }
  Timeline& timeline() { return timeline_; }
  Device& gpu() { return *gpus_.front(); }
  Device& gpu(std::size_t k) {
    LDDP_CHECK(k < gpus_.size());
    return *gpus_[k];
  }
  std::size_t num_gpus() const { return gpus_.size(); }
  cpu::ThreadPool* pool() { return pool_; }

  /// Pricing and dependency options for one CPU front.
  struct CpuFrontOpts {
    bool parallel = true;      ///< fork/join (or barrier) vs single thread
    bool streamed = false;     ///< persistent-thread barrier pricing
    double mem_amplification = 1.0;  ///< cache-hostile walk factor
    double extra_seconds = 0.0;      ///< e.g. mapped-pinned access surcharge
    OpId dep1 = kNoOp;
    OpId dep2 = kNoOp;
  };

  /// Executes `body` over [0, cells) on the host and records the modeled
  /// CPU duration. Returns the op id (an "event"). `body` is either
  /// per-cell — `body(i)` — or ranged — `body(lo, hi)` over contiguous
  /// sub-ranges (the batch-front kernels; ranges map 1:1 onto the pool's
  /// parallel_for chunks). Pricing is identical for both forms.
  template <typename Body>
  OpId cpu_front(std::size_t cells, const cpu::WorkProfile& work, Body&& body,
                 const CpuFrontOpts& opts = {}) {
    if (cells == 0) return kNoOp;
    if constexpr (std::is_invocable_v<Body&, std::size_t, std::size_t>) {
      if (pool_ && opts.parallel && cells >= kParallelExecThreshold) {
        pool_->parallel_for_chunked(0, cells,
                                    [&body](std::size_t lo, std::size_t hi) {
                                      body(lo, hi);
                                    },
                                    front_grain(work, opts));
      } else {
        body(0, cells);
      }
    } else if (pool_ && opts.parallel && cells >= kParallelExecThreshold) {
      pool_->parallel_for_chunked(0, cells,
                                  [&body](std::size_t lo, std::size_t hi) {
                                    for (std::size_t i = lo; i < hi; ++i)
                                      body(i);
                                  },
                                  front_grain(work, opts));
    } else {
      for (std::size_t i = 0; i < cells; ++i) body(i);
    }
    return timeline_.record(
        cpu_res_,
        cpu::cpu_front_seconds(spec_.cpu, work, cells, opts.parallel,
                               opts.mem_amplification, opts.streamed) +
            opts.extra_seconds,
        opts.dep1, opts.dep2, "cpu.front");
  }

  /// Executes `body(t)` for tile t in [0, num_tiles) — the tiled
  /// block-per-thread mapping — and records the tiled-front pricing.
  template <typename Body>
  OpId cpu_tiled_front(std::size_t num_tiles, std::size_t tile_cells,
                       const cpu::WorkProfile& work, Body&& body,
                       OpId dep = kNoOp) {
    if (num_tiles == 0) return kNoOp;
    if (pool_ && num_tiles > 1) {
      pool_->parallel_for(0, num_tiles,
                          [&body](std::size_t t) { body(t); });
    } else {
      for (std::size_t t = 0; t < num_tiles; ++t) body(t);
    }
    return timeline_.record(
        cpu_res_,
        cpu::cpu_tiled_front_seconds(spec_.cpu, work, num_tiles, tile_cells),
        dep, kNoOp, "cpu.tile-front");
  }

  /// Records the modeled duration of a CPU front *without* executing
  /// anything — for callers that already produced the data by other means
  /// (e.g. the serial reference scan charging one bulk op).
  OpId cpu_charge(std::size_t cells, const cpu::WorkProfile& work,
                  bool parallel, OpId dep1 = kNoOp, OpId dep2 = kNoOp) {
    if (cells == 0) return kNoOp;
    return timeline_.record(
        cpu_res_, cpu::cpu_front_seconds(spec_.cpu, work, cells, parallel),
        dep1, dep2, "cpu.bulk");
  }

  /// Records a zero-work CPU-side synchronization point that waits on the
  /// given dependencies (e.g. "CPU blocks until the GPU result arrives").
  OpId cpu_sync(OpId dep1, OpId dep2 = kNoOp) {
    return timeline_.record(cpu_res_, 0.0, dep1, dep2);
  }

  /// Simulated wall-clock of everything recorded so far.
  double elapsed() const { return timeline_.makespan(); }

  /// CPU / GPU-compute utilization over the makespan (diagnostics).
  double cpu_busy() const { return timeline_.busy_time(cpu_res_); }

 private:
  static constexpr std::size_t kParallelExecThreshold = 4096;
  /// Target real time of one stealing morsel. ~8 us is 2–3 orders above
  /// the deque push/steal cost yet short enough that a front splits into
  /// enough morsels to rebalance a ragged wavefront.
  static constexpr double kMorselTargetSeconds = 8e-6;

  /// Adaptive morsel size from the calibrated per-cell cost model: the
  /// cell count this CPU retires in one morsel target interval under this
  /// work profile (the executor floors it at kMinGrain).
  std::size_t front_grain(const cpu::WorkProfile& work,
                          const CpuFrontOpts& opts) const {
    // cpu_peak_throughput is full-occupancy; a morsel runs on ONE thread,
    // so size it from the per-core rate.
    const double rate = cpu::cpu_peak_throughput(spec_.cpu, work,
                                                 opts.mem_amplification) /
                        static_cast<double>(std::max(1, spec_.cpu.cores));
    return static_cast<std::size_t>(rate * kMorselTargetSeconds);
  }

  PlatformSpec spec_;
  cpu::ThreadPool* pool_;
  Timeline timeline_;
  Timeline::ResourceId cpu_res_{};
  std::vector<std::unique_ptr<Device>> gpus_;
};

}  // namespace lddp::sim
