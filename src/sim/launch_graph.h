// CUDA-Graph-style fused launches (cudaGraphLaunch replay).
//
// A strategy records a dependency-ordered sequence of per-front kernels and
// interleaved async copies through a LaunchGraph and replays them as ONE
// device submission. Real execution stays eager — a kernel body runs at
// add-time, in exactly the order the legacy path runs it, so results are
// bit-identical. What changes is the *timing model*: instead of a full
// `launch_overhead` per operation, a replayed graph pays one full
// `launch_overhead` for the submission plus a small `graph_node_issue_us`
// per node (the device front-end dequeues pre-built commands).
//
// The graph also works as a transparent pass-through: constructed with
// `fused = false` every call forwards to the Device immediately with legacy
// pricing. Strategies therefore keep a single code path and the
// `fused_launches` RunConfig flag picks the cost model.
//
// Dependency rules in fused mode:
//  * graph-internal deps are node handles (returned by launch/record_*);
//  * external deps must be OpIds recorded on the Timeline before replay()
//    runs — true for CPU ops in the one-way-transfer patterns, which is
//    why two-way patterns (CPU reads GPU results mid-phase) must run with
//    fusing off, exactly like a real CUDA graph cannot span host syncs.
#pragma once

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "sim/device.h"
#include "sim/kernel.h"
#include "sim/timeline.h"
#include "util/fault_injection.h"

namespace lddp::sim {

class LaunchGraph {
 public:
  /// High bit marks a not-yet-replayed node handle; real Timeline OpIds
  /// stay far below it.
  static constexpr OpId kNodeFlag = 0x80000000u;

  LaunchGraph(Device& dev, bool fused) : dev_(&dev), fused_(fused) {}

  LaunchGraph(const LaunchGraph&) = delete;
  LaunchGraph& operator=(const LaunchGraph&) = delete;

  /// Un-replayed nodes are submitted on destruction (safety net; strategies
  /// normally replay explicitly before recording dependent host-side ops).
  /// replay() can throw — an injected kGraphReplay fault, or a lifecycle
  /// check on the timeline — which is fine on the normal path (the dtor is
  /// noexcept(false)) but must never happen while another exception is
  /// unwinding the strategy: pending nodes are abandoned instead. Their
  /// real work already executed eagerly; only unrecorded timing is lost,
  /// and the failing solve's timeline is discarded anyway.
  ~LaunchGraph() noexcept(false) {
    if (std::uncaught_exceptions() == 0)
      replay();
    else
      abandon();
  }

  /// Drops all pending (un-replayed) nodes and per-stream graph state.
  void abandon() {
    pending_.clear();
    stream_last_.clear();
    stream_waits_.clear();
  }

  bool fused() const { return fused_; }
  Device& device() { return *dev_; }
  /// Nodes recorded through this graph so far (fused mode only).
  std::size_t node_count() const { return resolved_.size() + pending_.size(); }
  std::size_t replay_count() const { return replays_; }

  /// Device::launch, graph-aware. The body executes eagerly either way.
  template <typename Body>
  OpId launch(Device::StreamId stream, const KernelInfo& info,
              std::size_t num_cells, Body&& body, OpId extra_dep = kNoOp) {
    if (!fused_)
      return dev_->launch(stream, info, num_cells, std::forward<Body>(body),
                          extra_dep);
    if (num_cells == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kKernelLaunch, num_cells);
    dev_->execute_cells(num_cells, std::forward<Body>(body));
    return add_node(stream, dev_->compute_res_,
                    kernel_exec_seconds(dev_->spec_, info, num_cells),
                    kernel_packed_exec_seconds(dev_->spec_, info, num_cells),
                    extra_dep, "kernel");
  }

  /// Device::launch_tiled, graph-aware: a block-per-tile kernel whose
  /// execution duration the caller priced (tiled_kernel_exec_seconds;
  /// `packed_exec_seconds` is the floor-free pricing from
  /// tiled_kernel_packed_exec_seconds, or -1 for "same as exec").
  template <typename Body>
  OpId launch_tiled(Device::StreamId stream, double exec_seconds,
                    std::size_t num_tiles, Body&& body,
                    OpId extra_dep = kNoOp,
                    double packed_exec_seconds = -1.0) {
    if (!fused_)
      return dev_->launch_tiled(stream, exec_seconds, num_tiles,
                                std::forward<Body>(body), extra_dep,
                                packed_exec_seconds);
    if (num_tiles == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kKernelLaunch, num_tiles);
    dev_->execute_tiles(num_tiles, std::forward<Body>(body));
    const double packed =
        packed_exec_seconds >= 0.0 ? packed_exec_seconds : exec_seconds;
    return add_node(stream, dev_->compute_res_, exec_seconds, packed,
                    extra_dep, "kernel");
  }

  /// Device::record_h2d, graph-aware.
  OpId record_h2d(Device::StreamId stream, std::size_t bytes, MemoryKind kind,
                  OpId extra_dep = kNoOp) {
    if (!fused_) return dev_->record_h2d(stream, bytes, kind, extra_dep);
    if (bytes == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferH2D, bytes);
    dev_->stats_.h2d_bytes += bytes;
    ++dev_->stats_.h2d_copies;
    const double wire = transfer_exec_seconds(dev_->spec_, bytes, kind);
    return add_node(stream, dev_->h2d_res_, wire, wire, extra_dep, "h2d");
  }

  /// Device::record_d2h, graph-aware.
  OpId record_d2h(Device::StreamId stream, std::size_t bytes, MemoryKind kind,
                  OpId extra_dep = kNoOp, const char* label = "d2h") {
    if (!fused_)
      return dev_->record_d2h(stream, bytes, kind, extra_dep, label);
    if (bytes == 0) return last_op(stream);
    fault::maybe_throw(fault::Site::kTransferD2H, bytes);
    dev_->stats_.d2h_bytes += bytes;
    ++dev_->stats_.d2h_copies;
    const double wire = transfer_exec_seconds(dev_->spec_, bytes, kind);
    return add_node(stream, dev_->d2h_res_, wire, wire, extra_dep, label);
  }

  /// Device::stream_wait, graph-aware: the next node on `stream` also waits
  /// for `event` (a node handle or an already-recorded OpId).
  void stream_wait(Device::StreamId stream, OpId event) {
    if (!fused_) {
      dev_->stream_wait(stream, event);
      return;
    }
    if (event != kNoOp) stream_waits(stream).push_back(event);
  }

  /// Newest operation on the stream: a node handle when the stream's tail
  /// is an un-replayed node, otherwise the device's last recorded op.
  OpId last_op(Device::StreamId stream) const {
    if (fused_ && stream < stream_last_.size() &&
        stream_last_[stream] != kNoOp)
      return stream_last_[stream];
    return dev_->last_op(stream);
  }

  /// Maps a node handle to the Timeline OpId it was replayed as; passes
  /// ordinary OpIds (and kNoOp) through. Valid only after replay().
  OpId resolve(OpId op) const {
    if (op == kNoOp || (op & kNodeFlag) == 0) return op;
    const std::size_t idx = op & ~kNodeFlag;
    LDDP_CHECK_MSG(idx < resolved_.size(),
                   "resolve() of a node that has not been replayed");
    return resolved_[idx];
  }

  /// Submits every pending node as one batch: the first node carries the
  /// full launch_overhead, each node adds graph_node_issue_us, stream FIFO
  /// order and recorded dependencies are preserved, and all ops land in
  /// one Timeline group (chrome://tracing still shows per-front spans).
  void replay() {
    if (!fused_ || pending_.empty()) return;
    fault::maybe_throw(fault::Site::kGraphReplay, pending_.size());
    Timeline& tl = dev_->timeline();
    tl.begin_group();
    const GpuSpec& spec = dev_->spec_;
    bool first = true;
    std::vector<OpId> deps;
    for (const Node& node : pending_) {
      deps.clear();
      deps.push_back(dev_->last_op(node.stream));
      for (OpId d : node.deps) deps.push_back(resolve(d));
      double seconds = node.exec_seconds + spec.graph_node_issue_us * 1e-6;
      if (first) {
        seconds += spec.launch_overhead_us * 1e-6;
        first = false;
      }
      const OpId op = dev_->record_raw(node.res, seconds, deps, node.label);
      // Everything above the floor-free execution time — node issue, the
      // submission's launch overhead, pipeline-fill padding — can be
      // amortized when the node rides in a cross-solve pack.
      tl.annotate_pack(op, seconds - std::min(node.packed_exec_seconds,
                                              seconds));
      dev_->set_last_op(node.stream, op);
      resolved_.push_back(op);
    }
    tl.end_group();
    pending_.clear();
    stream_last_.clear();
    ++replays_;
  }

 private:
  struct Node {
    Device::StreamId stream;
    Timeline::ResourceId res;
    double exec_seconds;
    double packed_exec_seconds;  ///< floor-free cost as a pack segment
    const char* label;
    std::vector<OpId> deps;  ///< node handles and/or pre-replay OpIds
  };

  OpId add_node(Device::StreamId stream, Timeline::ResourceId res,
                double exec_seconds, double packed_exec_seconds,
                OpId extra_dep, const char* label) {
    Node node{stream, res, exec_seconds, packed_exec_seconds, label, {}};
    if (extra_dep != kNoOp) node.deps.push_back(extra_dep);
    auto& waits = stream_waits(stream);
    node.deps.insert(node.deps.end(), waits.begin(), waits.end());
    waits.clear();
    const OpId handle =
        kNodeFlag | static_cast<OpId>(resolved_.size() + pending_.size());
    if (stream >= stream_last_.size()) stream_last_.resize(stream + 1, kNoOp);
    stream_last_[stream] = handle;
    pending_.push_back(std::move(node));
    return handle;
  }

  std::vector<OpId>& stream_waits(Device::StreamId stream) {
    if (stream >= stream_waits_.size()) stream_waits_.resize(stream + 1);
    return stream_waits_[stream];
  }

  Device* dev_;
  bool fused_;
  std::vector<Node> pending_;
  std::vector<OpId> resolved_;       ///< Timeline op of each replayed node
  std::vector<OpId> stream_last_;    ///< newest pending handle per stream
  std::vector<std::vector<OpId>> stream_waits_;
  std::size_t replays_ = 0;
};

}  // namespace lddp::sim
