// Kernel description and analytic timing (the simulated SMX model).
//
// A kernel processes N cells with one light-weight thread per cell — the
// paper's GPU mapping (Section IV-A). Its simulated duration is
//
//   launch_overhead + max(compute_time, memory_time)
//
//   compute_time = max(N * cycles_per_cell / (SMs*cores*clock),
//                      min_exec_latency)
//   memory_time  = N * bytes_per_cell * mem_amplification / dram_bandwidth
//
// The compute term gives the throughput behaviour of a saturated device and
// the latency floor of a starved one; small wavefronts are therefore
// dominated by launch_overhead + min_exec_latency, which is the lever the
// paper's low-work-region CPU handoff pulls. `mem_amplification` comes from
// the coalescing model: 1.0 for wavefront-contiguous layouts, >1 otherwise.
#pragma once

#include <cstddef>

#include "cpu/cost_model.h"
#include "sim/device_spec.h"
#include "sim/memory.h"

namespace lddp::sim {

/// Launch-time description of a kernel; the cost model reads everything it
/// needs from here plus the GpuSpec.
struct KernelInfo {
  /// Timeline label of the kernel's launches: a string with static
  /// storage (Timeline::record keeps the pointer).
  const char* name = "kernel";
  int block_size = 256;  ///< threads per block (affects tail waste only)
  cpu::WorkProfile work;  ///< shared CPU/GPU per-cell work profile
  /// Memory-traffic multiplier from the coalescing model (>= 1.0).
  double mem_amplification = 1.0;
  /// Fixed additional cost per launch, e.g. zero-copy mapped-pinned
  /// accesses in the two-way transfer scheme.
  double extra_us = 0.0;
};

/// Simulated seconds of device-side execution (excludes queueing delays,
/// which the Timeline adds when streams contend).
double kernel_seconds(const GpuSpec& spec, const KernelInfo& info,
                      std::size_t num_cells);

/// Execution-only portion of kernel_seconds: everything except the
/// per-launch driver overhead (extra_us included — mapped-pinned reaches
/// happen during execution). A fused launch graph replaces the per-kernel
/// launch_overhead with its per-node issue cost but pays this in full.
double kernel_exec_seconds(const GpuSpec& spec, const KernelInfo& info,
                           std::size_t num_cells);

/// Floor-free execution seconds: the throughput cost of the kernel's real
/// work (compute vs memory, extra_us) *without* the min_exec_latency
/// pipeline-fill floor. This is the irreducible cost of the kernel when it
/// rides as one grid segment inside another tenant's already-filled packed
/// launch; kernel_seconds minus this is the amortizable submission cost
/// (driver overhead + fill padding) a cross-solve packer can elide.
double kernel_packed_exec_seconds(const GpuSpec& spec, const KernelInfo& info,
                                  std::size_t num_cells);

/// Multi-tenant packed launch: co-ready fronts of several in-flight solves
/// submitted as one device command. Segments are appended in pack order.
/// The head pays its full recorded cost — it *is* the launch that carries
/// the pack (one launch overhead, or one graph-node issue when it already
/// rides a fused graph). Each follower replaces its amortizable submission
/// cost (Timeline::op_pack_overhead) with packed_segment_issue_us, clamped
/// so riding in a pack never prices worse than launching alone.
class PackedKernel {
 public:
  explicit PackedKernel(const GpuSpec& spec) : spec_(&spec) {}

  /// Prices the next segment. `recorded_s` is the op's solo duration,
  /// `amortizable_s` the annotated share of it that a pack can elide.
  /// Returns the seconds the segment occupies inside the pack.
  double add_segment(double recorded_s, double amortizable_s);

  std::size_t segments() const { return segments_; }
  /// Submission seconds amortized away relative to solo pricing so far.
  double saved_seconds() const { return saved_; }
  /// Total priced duration of the pack so far.
  double total_seconds() const { return total_; }

 private:
  const GpuSpec* spec_;
  std::size_t segments_ = 0;
  double saved_ = 0.0;
  double total_ = 0.0;
};

/// Throughput (cells/s) of the saturated device for this kernel — used by
/// workload-division heuristics to pick an initial t_share.
double gpu_peak_throughput(const GpuSpec& spec, const KernelInfo& info);

/// Simulated seconds for a host<->device copy of `bytes` bytes whose host
/// endpoint lives in `kind` memory.
double transfer_seconds(const GpuSpec& spec, std::size_t bytes,
                        MemoryKind kind);

/// Wire-time-only portion of transfer_seconds (bytes / bandwidth, no
/// per-copy submission latency) — what a copy node costs inside a fused
/// launch graph, where the DMA descriptor is pre-built.
double transfer_exec_seconds(const GpuSpec& spec, std::size_t bytes,
                             MemoryKind kind);

}  // namespace lddp::sim
