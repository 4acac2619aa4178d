// Execution configuration and result statistics for Framework::solve.
#pragma once

#include <cstddef>
#include <string>

#include "core/pattern.h"
#include "cpu/thread_pool.h"
#include "sim/device_spec.h"

namespace lddp::sim {
class BufferPool;
class Timeline;
}  // namespace lddp::sim

namespace lddp::fault {
struct RequestControl;
}  // namespace lddp::fault

namespace lddp {

/// Which implementation runs the table fill.
enum class Mode {
  kCpuSerial,      ///< single-threaded reference scan
  kCpuParallel,    ///< multicore wavefronts (fork/join per front)
  kCpuTiled,       ///< multicore tile wavefronts (block-per-thread; only
                   ///< for NE-free contributing sets)
  kGpu,            ///< pure simulated-GPU wavefronts (thread-per-cell)
  kHeterogeneous,  ///< the paper's CPU+GPU split
  kAuto,           ///< framework picks by problem size (Section VI findings)
};

std::string to_string(Mode m);

/// Table storage tier used by solve_frontier (core/framework.h).
enum class Storage {
  kAuto,      ///< framework picks (frontier wherever a window exists)
  kFull,      ///< materialize the whole O(rows x cols) table
  kFrontier,  ///< live front window + checkpoint rows every K fronts;
              ///< tracebacks rematerialize K-row bands on demand
};

std::string to_string(Storage s);

/// Workload-division parameters (Sections III and V-A).
/// Negative values mean "let the framework pick a model-based default";
/// the Tuner (core/tuner.h) refines them empirically.
struct HeteroParams {
  /// Iterations at each low-work end handled entirely by the CPU.
  long long t_switch = -1;
  /// Cells of each high-work front handled by the CPU (the CPU's strip
  /// width: rows for anti-diagonal, columns for the other patterns).
  long long t_share = -1;
};

/// Everything solve() needs besides the problem itself.
struct RunConfig {
  sim::PlatformSpec platform = sim::PlatformSpec::hetero_high();
  Mode mode = Mode::kAuto;
  HeteroParams hetero;
  /// Tile side for Mode::kCpuTiled.
  std::size_t cpu_tile = 64;
  /// Tile side for the tile-granular GPU / heterogeneous execution layer:
  /// 0 runs the legacy untiled strategies (thread-per-cell kernels,
  /// cell-granular splits), > 0 uses tile x tile blocks (skewed when the
  /// contributing set has NE) with block-per-tile shared-memory kernels
  /// and halo-only CPU<->GPU transfers, -1 picks a model-based default.
  /// Results are bit-identical across settings; only timing changes.
  long long tile = 0;
  /// Table storage tier, consumed by solve_frontier (solve() always
  /// materializes the full table and ignores this field). kAuto resolves
  /// to kFrontier for every canonical pattern; kFull forces the legacy
  /// full-table path behind the FrontierTable facade. Results — final
  /// values and tracebacks — are bit-identical across tiers.
  Storage storage = Storage::kAuto;
  /// Checkpoint interval K (fronts between retained checkpoint rows) for
  /// the frontier storage tier. 0 picks the model default
  /// (~sqrt(rows), clamped to [4, 512]); any positive value is used
  /// as-is (K = 1 keeps every row; K >= rows keeps only row 0 and the
  /// last row). Smaller K means cheaper rematerialization and more
  /// resident memory.
  std::size_t checkpoint_interval = 0;
  /// Optional host pool for real execution: every parallel front runs
  /// as morsels on the pool's work-stealing executor
  /// (&cpu::shared_stealing_pool() shares the process-wide one). Null
  /// runs everything inline on the calling thread. The batch engine
  /// overrides this field with its own executor. Results and simulated
  /// timings are identical either way; only host wall-clock changes.
  cpu::ThreadPool* pool = nullptr;
  /// Optional device/pinned-host buffer pool; repeated solve() calls then
  /// reuse arenas instead of re-allocating per run. Must outlive the call.
  sim::BufferPool* buffer_pool = nullptr;
  /// Batch each GPU phase's kernels and copies into one graph-style fused
  /// submission (one full launch overhead per phase + a small per-node
  /// issue cost) instead of paying full launch overhead per operation.
  /// Results are bit-identical; only the simulated timing changes.
  bool fused_launches = true;
  /// Execute fronts through the problems' batch-front (SIMD) hook where
  /// one exists: interior runs of each front are computed in one
  /// vectorized call over packed neighbour spans instead of one scalar
  /// `compute` per cell, and the CPU cost model gains the calibrated
  /// vector-throughput term. Results are bit-identical to the scalar
  /// path (which `false` restores exactly); only real wall-clock — and,
  /// via the cost model, the simulated CPU speed — changes.
  bool batch_kernels = true;
  /// Cross-solve packing eligibility when this request runs through the
  /// BatchEngine: the batch merger may fuse this solve's co-ready GPU
  /// fronts / DMA descriptors with those of co-resident solves into one
  /// multi-tenant packed launch. -1 defers to BatchConfig::pack_solves
  /// (default on in batch mode), 0 opts this request out, 1 opts it in.
  /// Solo solve() ignores the flag — there is nothing to pack with.
  /// Results are bit-identical; only the merged simulated timing changes.
  int pack_solves = -1;
  /// If non-empty, the simulated schedule is written here as a
  /// chrome://tracing / Perfetto JSON file after the run.
  std::string trace_path;
  /// If non-null, receives a copy of the run's full recorded timeline
  /// (every simulated op with resource, duration and dependencies). The
  /// batch engine uses this to replay per-solve schedules against a shared
  /// platform. Must outlive the solve() call.
  sim::Timeline* record_timeline = nullptr;
  /// Optional per-request lifecycle control (cooperative cancellation flag
  /// + simulated-time deadline), installed on the run's Timeline and
  /// checked at every recorded operation — i.e. at front/tile granularity
  /// for every execution layer. Must outlive the solve() call. Null runs
  /// uncontrolled. Deadlines are in *simulated* seconds, so enforcement is
  /// deterministic and independent of host load.
  const fault::RequestControl* control = nullptr;
};

/// Measured outcome of one solve() call.
struct SolveStats {
  Mode mode_used = Mode::kCpuSerial;
  Pattern pattern = Pattern::kHorizontal;
  TransferNeed transfer = TransferNeed::kNone;

  double sim_seconds = 0.0;   ///< simulated platform makespan — the
                              ///< headline number in every figure
  double real_seconds = 0.0;  ///< actual host wall-clock, for reference

  std::size_t fronts = 0;
  std::size_t cells = 0;

  /// High-water table storage of this solve across host and device:
  /// full tier ~ rows*cols*sizeof(V) per residency; frontier tier ~ the
  /// front window plus checkpoint rows plus remat scratch.
  std::size_t peak_table_bytes = 0;
  /// Frontier tier only (0 on the full tier): the checkpoint interval
  /// actually used and the number of rows retained as checkpoints.
  std::size_t checkpoint_interval = 0;
  std::size_t checkpoint_rows = 0;

  // Heterogeneous split actually used (0/0 for non-hetero modes).
  long long t_switch = 0;
  long long t_share = 0;

  // Simulated resource accounting.
  double cpu_busy_seconds = 0.0;
  double gpu_busy_seconds = 0.0;
  double copy_busy_seconds = 0.0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t h2d_copies = 0;
  std::size_t d2h_copies = 0;
};

}  // namespace lddp
