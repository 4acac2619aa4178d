#include "sim/timeline_merge.h"

#include <algorithm>

#include "sim/kernel.h"

namespace lddp::sim {

std::size_t TimelineMerger::add(const Timeline& recorded, double release,
                                OpId release_dep, bool packable) {
  Job job;
  job.recorded = &recorded;
  job.release = release;
  job.release_dep = release_dep;
  job.packable = packable;
  job.shared_ids.assign(recorded.op_count(), kNoOp);
  job.resource_map.resize(recorded.resource_count());
  for (Timeline::ResourceId r = 0; r < recorded.resource_count(); ++r) {
    const Timeline::ResourceId shared_r =
        shared_->find_resource(recorded.resource_name(r));
    LDDP_CHECK_MSG(shared_r != Timeline::kNoResource,
                   "merge: shared timeline lacks resource "
                       << recorded.resource_name(r));
    job.resource_map[r] = shared_r;
  }
  remaining_ += recorded.op_count();
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

double TimelineMerger::feasible_start(const Job& job) const {
  const OpId op = static_cast<OpId>(job.next);
  double t = job.release;
  t = std::max(t, shared_->resource_free_at(
                      job.resource_map[job.recorded->op_resource(op)]));
  for (OpId d : job.recorded->op_deps(op)) {
    // Recorded order is causally consistent, so every dependency has
    // already been placed in the shared timeline.
    LDDP_CHECK_MSG(job.shared_ids[d] != kNoOp,
                   "merge: recorded op depends on a later op");
    t = std::max(t, shared_->end_time(job.shared_ids[d]));
  }
  return t;
}

void TimelineMerger::place(std::size_t rank, double duration) {
  Job& job = jobs_[rank];
  const OpId op = static_cast<OpId>(job.next);
  // Map the recorded dependencies into the shared timeline, append the
  // release dependency and gate the start at the release itself (which
  // includes any retry backoff past release_dep's end); Timeline::record
  // then reproduces exactly feasible_start (or, for a pack rider, the end
  // of the previous segment — the shared resource serializes the pack's
  // segments back to back).
  std::vector<OpId> deps;
  const auto rec_deps = job.recorded->op_deps(op);
  deps.reserve(rec_deps.size() + 1);
  for (OpId d : rec_deps) deps.push_back(job.shared_ids[d]);
  deps.push_back(job.release_dep);
  const OpId placed =
      shared_->record(job.resource_map[job.recorded->op_resource(op)],
                      duration, deps, job.recorded->op_label(op),
                      job.release);
  job.shared_ids[op] = placed;
  if (job.next == 0) job.start = shared_->start_time(placed);
  if (shared_->end_time(placed) >= job.end) {
    job.end = shared_->end_time(placed);
    job.last_op = placed;
  }
  ++job.next;
  --remaining_;
  if (job.next == job.recorded->op_count()) finished_.push_back(rank);
}

std::size_t TimelineMerger::step() {
  // A pack can complete several jobs in one placement; surplus completions
  // drain one per call so the caller's one-completion-per-step loop holds.
  if (finished_head_ < finished_.size()) return finished_[finished_head_++];
  LDDP_CHECK_MSG(remaining_ > 0, "merge: step() with nothing to schedule");

  std::size_t pick = kNone;
  double pick_start = 0.0;
  for (std::size_t k = 0; k < jobs_.size(); ++k) {
    const Job& job = jobs_[k];
    if (job.next >= job.recorded->op_count()) continue;
    const double s = feasible_start(job);
    if (pick == kNone || s < pick_start) {
      pick = k;
      pick_start = s;
    }
  }
  LDDP_CHECK(pick != kNone);

  // Pack window: head ops of other packable jobs that are co-ready on the
  // same shared resource and carry an amortizable-submission annotation.
  // Gathered before the head is placed (placing it moves the resource's
  // free time), in admission-rank order for determinism.
  std::vector<std::size_t> riders;
  if (packing_ && jobs_[pick].packable) {
    const Job& head = jobs_[pick];
    const Timeline::ResourceId head_res =
        head.resource_map[head.recorded->op_resource(
            static_cast<OpId>(head.next))];
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      if (k == pick) continue;
      const Job& job = jobs_[k];
      if (!job.packable || job.next >= job.recorded->op_count()) continue;
      const OpId op = static_cast<OpId>(job.next);
      if (job.resource_map[job.recorded->op_resource(op)] != head_res)
        continue;
      if (job.recorded->op_pack_overhead(op) <= 0.0) continue;
      if (feasible_start(job) != pick_start) continue;
      riders.push_back(k);
    }
  }

  const Job& head = jobs_[pick];
  const OpId head_op = static_cast<OpId>(head.next);
  const double head_dur = head.recorded->op_duration(head_op);
  if (riders.empty()) {
    place(pick, head_dur);
    LDDP_DCHECK(shared_->start_time(jobs_[pick].shared_ids[head_op]) ==
                pick_start);
  } else {
    PackedKernel pack(pack_spec_);
    pack.add_segment(head_dur, head.recorded->op_pack_overhead(head_op));
    const GroupId group = shared_->begin_group();
    (void)group;
    place(pick, head_dur);
    LDDP_DCHECK(shared_->start_time(jobs_[pick].shared_ids[head_op]) ==
                pick_start);
    for (std::size_t k : riders) {
      const Job& rider = jobs_[k];
      const OpId op = static_cast<OpId>(rider.next);
      const double priced = pack.add_segment(
          rider.recorded->op_duration(op),
          rider.recorded->op_pack_overhead(op));
      place(k, priced);
    }
    shared_->end_group();
    ++pack_count_;
    packed_ops_ += riders.size();
    pack_saved_ += pack.saved_seconds();
  }

  if (finished_head_ < finished_.size()) return finished_[finished_head_++];
  return kNone;
}

}  // namespace lddp::sim
