// Deterministic replay of recorded per-solve schedules onto one shared
// timeline — the simulation core of the batch engine.
//
// Each *job* is a complete solo-run Timeline (every op with its resource,
// duration and dependency list, as retained by Timeline::op_deps). The
// merger re-times all admitted jobs against the shared platform's
// resources: an op starts when its job is released, its own recorded
// dependencies have finished, and its (shared) resource is free. Ops of one
// job keep their internal dependency structure — per-solve streams stay
// FIFO, events never cross jobs — while different jobs' ops interleave on
// the shared CPU / GPU-compute / DMA engines. That interleaving is the
// simulated time-sharing: one solve's CPU strips fill another solve's
// CPU-idle phases, kernels from distinct solves queue on the compute
// engine like kernels from distinct CUDA streams.
//
// Cross-solve packing (enable_packing): whenever the op about to be
// scheduled shares its *pack window* — same shared resource, identical
// feasible start — with the head ops of other packable jobs, the whole set
// is emitted as one multi-tenant packed launch. The window head keeps its
// full recorded cost (it is the submission that carries the pack); each
// rider replaces its annotated amortizable submission cost
// (Timeline::op_pack_overhead — launch overhead, graph-node issue,
// pipeline-fill padding, per-copy latency) with the spec's
// packed_segment_issue_us, priced through sim::PackedKernel and clamped so
// a rider never costs more than launching alone. Riders are appended to
// the resource in admission-rank order, so the packed schedule stays a
// pure function of (recorded timelines, admission order, release times).
//
// Scheduling is greedy earliest-feasible-start with a fixed tie-break
// (admission rank, then op order), so the merged schedule — packed or not —
// is independent of any real-thread interleaving. This is what makes batch
// runs deterministically replayable.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/device_spec.h"
#include "sim/timeline.h"

namespace lddp::sim {

class TimelineMerger {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// `shared` receives the merged ops; it must outlive the merger.
  explicit TimelineMerger(Timeline& shared) : shared_(&shared) {}

  /// Turns on cross-solve packing for jobs added with `packable = true`;
  /// `spec` prices rider segments (packed_segment_issue_us).
  void enable_packing(const GpuSpec& spec) {
    pack_spec_ = spec;
    packing_ = true;
  }
  bool packing() const { return packing_; }

  /// Admits a job. `recorded` must outlive the merge; `release` is the
  /// simulated instant before which none of its ops may start, and
  /// `release_dep` (an op already in the shared timeline, ending at or
  /// before `release` — the slot opening, which a retry backoff follows)
  /// is recorded as the ops' dependency on it — kNoOp when the slot opens
  /// at time zero. Resources are matched to the shared timeline by
  /// name (they must all exist there). `packable` opts the job into
  /// cross-solve packing (no effect unless enable_packing was called).
  /// Returns the job's admission rank.
  std::size_t add(const Timeline& recorded, double release,
                  OpId release_dep = kNoOp, bool packable = true);

  /// True while any admitted job still has unscheduled ops or finished
  /// completions have not been drained by step().
  bool busy() const { return remaining_ > 0 || finished_head_ < finished_.size(); }

  /// Schedules the pack window with the globally-smallest feasible start
  /// time (ties: lowest admission rank, then op order) into the shared
  /// timeline — a single op when packing is off or no co-ready rider
  /// exists. Returns the admission rank of a job that just finished its
  /// last op, or kNone; a pack can finish several jobs at once, so extra
  /// completions are queued and returned by subsequent step() calls (which
  /// then schedule nothing).
  std::size_t step();

  /// Completion time of a finished job (max end over its ops).
  double job_end(std::size_t rank) const { return jobs_[rank].end; }
  /// First-op start time of a job with at least one scheduled op.
  double job_start(std::size_t rank) const { return jobs_[rank].start; }
  /// The shared-timeline op achieving job_end — a release_dep for add().
  OpId job_last_op(std::size_t rank) const { return jobs_[rank].last_op; }

  /// Multi-tenant packed launches emitted (windows with >= 2 segments).
  std::size_t pack_count() const { return pack_count_; }
  /// Rider segments re-priced inside a pack (excludes window heads).
  std::size_t packed_ops() const { return packed_ops_; }
  /// Submission seconds amortized away relative to unpacked pricing.
  double pack_saved_seconds() const { return pack_saved_; }

 private:
  struct Job {
    const Timeline* recorded;
    double release;
    OpId release_dep;
    bool packable = true;
    std::size_t next = 0;              // head: next recorded op to place
    std::vector<OpId> shared_ids;      // recorded op id -> shared op id
    std::vector<Timeline::ResourceId> resource_map;
    double start = 0.0, end = 0.0;
    OpId last_op = kNoOp;
  };

  double feasible_start(const Job& job) const;
  /// Places job `rank`'s head op with `duration` (the recorded duration
  /// for window heads, the PackedKernel price for riders) and queues the
  /// job on finished_ if that was its last op.
  void place(std::size_t rank, double duration);

  Timeline* shared_;
  std::vector<Job> jobs_;
  std::size_t remaining_ = 0;  // unscheduled ops across all jobs
  bool packing_ = false;
  GpuSpec pack_spec_;
  std::size_t pack_count_ = 0;
  std::size_t packed_ops_ = 0;
  double pack_saved_ = 0.0;
  // Completions not yet returned by step(); drained front-to-back.
  std::vector<std::size_t> finished_;
  std::size_t finished_head_ = 0;
};

}  // namespace lddp::sim
