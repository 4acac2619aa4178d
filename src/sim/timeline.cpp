#include "sim/timeline.h"

#include <algorithm>
#include <fstream>

#include "util/fault_injection.h"

namespace lddp::sim {

void Timeline::copy_from(const Timeline& o) {
  resources_ = o.resources_;
  starts_ = o.starts_;
  ends_ = o.ends_;
  op_resources_ = o.op_resources_;
  labels_ = o.labels_;
  groups_ = o.groups_;
  dep_pool_ = o.dep_pool_;
  dep_offsets_ = o.dep_offsets_;
  pack_overheads_ = o.pack_overheads_;
  current_group_ = o.current_group_;
  next_group_ = o.next_group_;
  makespan_ = o.makespan_;
  // control_ intentionally untouched: the per-attempt lifecycle control of
  // the source would dangle in a retained copy (e.g. a recorded schedule
  // handed to the batch merger).
}

void Timeline::check_cancelled() const {
  if (control_->cancelled()) throw fault::CancelledError();
}

void Timeline::check_deadline() const {
  if (control_->deadline_s > 0.0 && makespan_ > control_->deadline_s)
    throw fault::DeadlineExceededError(control_->deadline_s);
}

Timeline::ResourceId Timeline::add_resource(std::string name) {
  resources_.push_back(Resource{std::move(name), 0.0, 0.0});
  return static_cast<ResourceId>(resources_.size() - 1);
}

OpId Timeline::record(ResourceId resource, double duration_s,
                      std::span<const OpId> deps, const char* label,
                      double not_before) {
  LDDP_CHECK_MSG(resource < resources_.size(), "unknown resource id");
  LDDP_CHECK_MSG(duration_s >= 0.0, "negative op duration");
  if (control_ != nullptr) check_cancelled();
  double ready = std::max(resources_[resource].free_at, not_before);
  for (OpId d : deps) {
    if (d == kNoOp) continue;
    LDDP_CHECK_MSG(d < ends_.size(), "dependency on an unrecorded op");
    ready = std::max(ready, ends_[d]);
    dep_pool_.push_back(d);
  }
  dep_offsets_.push_back(static_cast<std::uint32_t>(dep_pool_.size()));
  const double end = ready + duration_s;
  resources_[resource].free_at = end;
  resources_[resource].busy += duration_s;
  starts_.push_back(ready);
  ends_.push_back(end);
  op_resources_.push_back(resource);
  labels_.push_back(label != nullptr ? label : "");
  groups_.push_back(current_group_);
  pack_overheads_.push_back(0.0);
  makespan_ = std::max(makespan_, end);
  if (control_ != nullptr) check_deadline();
  return static_cast<OpId>(ends_.size() - 1);
}

void Timeline::annotate_pack(OpId op, double seconds) {
  LDDP_CHECK(op < pack_overheads_.size());
  LDDP_CHECK_MSG(seconds >= 0.0, "negative pack overhead");
  pack_overheads_[op] += seconds;
}

double Timeline::op_pack_overhead(OpId op) const {
  LDDP_CHECK(op < pack_overheads_.size());
  return pack_overheads_[op];
}

OpId Timeline::record(ResourceId resource, double duration_s, OpId dep1,
                      OpId dep2, const char* label) {
  const OpId deps[2] = {dep1, dep2};
  return record(resource, duration_s, std::span<const OpId>(deps, 2), label);
}

double Timeline::start_time(OpId op) const {
  LDDP_CHECK(op < starts_.size());
  return starts_[op];
}

double Timeline::end_time(OpId op) const {
  LDDP_CHECK(op < ends_.size());
  return ends_[op];
}

double Timeline::resource_free_at(ResourceId r) const {
  LDDP_CHECK(r < resources_.size());
  return resources_[r].free_at;
}

double Timeline::busy_time(ResourceId r) const {
  LDDP_CHECK(r < resources_.size());
  return resources_[r].busy;
}

const std::string& Timeline::resource_name(ResourceId r) const {
  LDDP_CHECK(r < resources_.size());
  return resources_[r].name;
}

Timeline::ResourceId Timeline::op_resource(OpId op) const {
  LDDP_CHECK(op < op_resources_.size());
  return op_resources_[op];
}

GroupId Timeline::begin_group() {
  LDDP_CHECK_MSG(current_group_ == kNoGroup, "op groups do not nest");
  current_group_ = next_group_++;
  return current_group_;
}

void Timeline::end_group() {
  LDDP_CHECK_MSG(current_group_ != kNoGroup, "end_group without begin_group");
  current_group_ = kNoGroup;
}

GroupId Timeline::op_group(OpId op) const {
  LDDP_CHECK(op < groups_.size());
  return groups_[op];
}

const char* Timeline::op_label(OpId op) const {
  LDDP_CHECK(op < labels_.size());
  return labels_[op];
}

std::span<const OpId> Timeline::op_deps(OpId op) const {
  LDDP_CHECK(op + 1 < dep_offsets_.size());
  return std::span<const OpId>(dep_pool_.data() + dep_offsets_[op],
                               dep_offsets_[op + 1] - dep_offsets_[op]);
}

Timeline::ResourceId Timeline::find_resource(const std::string& name) const {
  for (ResourceId r = 0; r < resources_.size(); ++r)
    if (resources_[r].name == name) return r;
  return kNoResource;
}

void Timeline::reset() {
  starts_.clear();
  ends_.clear();
  op_resources_.clear();
  labels_.clear();
  groups_.clear();
  dep_pool_.clear();
  dep_offsets_.assign(1, 0);
  pack_overheads_.clear();
  current_group_ = kNoGroup;
  makespan_ = 0.0;
  for (auto& res : resources_) {
    res.free_at = 0.0;
    res.busy = 0.0;
  }
}

void Timeline::export_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  LDDP_CHECK_MSG(out.good(), "cannot open trace file " << path);
  out << "[\n";
  bool first = true;
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << r
        << R"(,"args":{"name":")" << resources_[r].name << "\"}}";
  }
  for (OpId op = 0; op < ends_.size(); ++op) {
    if (ends_[op] <= starts_[op]) continue;  // zero-length sync points
    if (!first) out << ",\n";
    first = false;
    const char* label = labels_[op][0] != '\0' ? labels_[op] : "op";
    out << R"({"name":")" << label << R"(","ph":"X","pid":0,"tid":)"
        << op_resources_[op] << R"(,"ts":)" << starts_[op] * 1e6
        << R"(,"dur":)" << (ends_[op] - starts_[op]) * 1e6;
    if (groups_[op] != kNoGroup)
      out << R"(,"args":{"graph":)" << groups_[op] << "}";
    out << "}";
  }
  out << "\n]\n";
  LDDP_CHECK_MSG(out.good(), "short write to trace file " << path);
}

}  // namespace lddp::sim
