// Discrete-event resource timeline — the clock of the simulated platform.
//
// Every simulated activity (CPU front, GPU kernel, H2D/D2H copy) is an
// *operation* bound to one *resource*. An operation starts when (a) its
// resource is free and (b) all of its dependencies have finished; it then
// occupies the resource for its duration. The makespan of the resulting
// schedule is the simulated wall-clock time of the whole algorithm —
// overlap between CPU compute, GPU compute and DMA falls out naturally,
// which is exactly what the paper's pipelined transfer scheme (Section
// IV-C) exploits.
//
// Operations must be recorded in a causally-consistent order (dependencies
// before dependents), which the eager host-side execution of the framework
// guarantees by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace lddp::fault {
struct RequestControl;
}  // namespace lddp::fault

namespace lddp::sim {

using OpId = std::uint32_t;
inline constexpr OpId kNoOp = std::numeric_limits<OpId>::max();

/// Group tag for ops that belong to one batched submission (a fused launch
/// graph replay); kNoGroup marks ordinary stand-alone ops.
using GroupId = std::uint32_t;
inline constexpr GroupId kNoGroup = std::numeric_limits<GroupId>::max();

class Timeline {
 public:
  using ResourceId = std::uint32_t;

  /// Registers a resource (e.g. "cpu", "gpu.compute", "gpu.copy.h2d").
  ResourceId add_resource(std::string name);

  /// Records an operation of `duration_s` seconds on `resource`, starting
  /// no earlier than the completion of every op in `deps` nor than
  /// `not_before` (a gate with no op behind it, e.g. a retry backoff).
  /// Returns its id. `label` must be a string with static storage
  /// duration (or null); it names the op in exported traces.
  OpId record(ResourceId resource, double duration_s,
              std::span<const OpId> deps = {}, const char* label = nullptr,
              double not_before = 0.0);

  /// Convenience overloads for 1/2 dependencies (hot path).
  OpId record(ResourceId resource, double duration_s, OpId dep,
              OpId dep2 = kNoOp, const char* label = nullptr);

  double start_time(OpId op) const;
  double end_time(OpId op) const;

  /// Completion time of the last operation recorded so far.
  double makespan() const { return makespan_; }

  /// Time the resource is next available.
  double resource_free_at(ResourceId r) const;

  /// Total occupied time on a resource — utilization numerator.
  double busy_time(ResourceId r) const;

  /// Opens a new op group: every op recorded until end_group() is tagged
  /// with the returned id (exported as "args":{"graph":N} in traces).
  /// Groups do not nest.
  GroupId begin_group();
  void end_group();
  GroupId op_group(OpId op) const;  ///< kNoGroup for ungrouped ops

  std::size_t op_count() const { return ends_.size(); }
  std::size_t resource_count() const { return resources_.size(); }
  const std::string& resource_name(ResourceId r) const;
  ResourceId op_resource(OpId op) const;
  const char* op_label(OpId op) const;  ///< never null (may be "")
  double op_duration(OpId op) const { return end_time(op) - start_time(op); }

  /// The operation's recorded dependencies (kNoOp entries filtered out).
  /// Retained so a recorded schedule can be *replayed* elsewhere — the
  /// batch engine re-times per-solve schedules against a shared platform
  /// timeline while preserving each solve's internal dependency structure.
  std::span<const OpId> op_deps(OpId op) const;

  /// Marks `seconds` of the op's recorded duration as *amortizable
  /// submission cost* — driver launch overhead, graph-node issue,
  /// pipeline-fill padding of a tiny kernel, or per-copy submission
  /// latency. The solo schedule is unchanged; a cross-solve packer
  /// (sim/timeline_merge.h) uses the annotation to re-price the op when it
  /// rides in another tenant's launch. Annotating twice accumulates.
  void annotate_pack(OpId op, double seconds);
  /// Amortizable submission seconds of the op (0 for ordinary ops).
  double op_pack_overhead(OpId op) const;

  /// Installs per-request lifecycle control: every subsequent record()
  /// checks the cancellation flag before recording (throws
  /// fault::CancelledError) and the simulated-time deadline after (throws
  /// fault::DeadlineExceededError once the makespan passes it). The
  /// timeline is the one chokepoint every CPU front, GPU kernel and DMA
  /// copy flows through, so this gives front/tile-boundary lifecycle
  /// checks with zero strategy-code changes. Null (the default) disables
  /// both checks; the control must outlive its installation. The pointer
  /// is intentionally NOT copied by the copy constructor/assignment — a
  /// recorded schedule handed to the batch merger must not retain a
  /// dangling per-attempt control.
  void set_request_control(const fault::RequestControl* control) {
    control_ = control;
  }
  const fault::RequestControl* request_control() const { return control_; }

  Timeline() = default;
  Timeline(const Timeline& o) { copy_from(o); }
  Timeline& operator=(const Timeline& o) {
    if (this != &o) copy_from(o);
    return *this;
  }
  Timeline(Timeline&&) = default;
  Timeline& operator=(Timeline&&) = default;

  /// Id of the resource with this exact name, or kNoResource.
  static constexpr ResourceId kNoResource =
      std::numeric_limits<ResourceId>::max();
  ResourceId find_resource(const std::string& name) const;

  /// Clears all operations but keeps registered resources.
  void reset();

  /// Writes the recorded schedule as a Chrome-tracing ("chrome://tracing" /
  /// Perfetto) JSON file: one lane per resource, one complete event per
  /// operation, timestamps in simulated microseconds.
  void export_chrome_trace(const std::string& path) const;

 private:
  struct Resource {
    std::string name;
    double free_at = 0.0;
    double busy = 0.0;
  };

  void copy_from(const Timeline& o);
  /// Lifecycle checks of record(); out-of-line so the throw paths stay off
  /// the hot recording sequence.
  void check_cancelled() const;
  void check_deadline() const;

  std::vector<Resource> resources_;
  std::vector<double> starts_;
  std::vector<double> ends_;
  std::vector<ResourceId> op_resources_;
  std::vector<const char*> labels_;
  std::vector<GroupId> groups_;
  // Flattened per-op dependency lists: op k's deps live at
  // dep_pool_[dep_offsets_[k] .. dep_offsets_[k + 1]).
  std::vector<OpId> dep_pool_;
  std::vector<std::uint32_t> dep_offsets_{0};
  std::vector<double> pack_overheads_;  // amortizable seconds per op
  GroupId current_group_ = kNoGroup;
  GroupId next_group_ = 0;
  double makespan_ = 0.0;
  const fault::RequestControl* control_ = nullptr;  // not copied
};

}  // namespace lddp::sim
