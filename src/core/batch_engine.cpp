#include "core/batch_engine.h"

#include <algorithm>
#include <cmath>

#include "core/lane_kernels.h"
#include "sim/platform.h"
#include "sim/timeline_merge.h"

namespace lddp {

std::string to_string(BatchSched s) {
  switch (s) {
    case BatchSched::kFifo:
      return "fifo";
    case BatchSched::kSjf:
      return "sjf";
    case BatchSched::kWfq:
      return "wfq";
  }
  return "?";
}

namespace detail {

double estimate_solve_seconds(const sim::PlatformSpec& platform,
                              const cpu::WorkProfile& work,
                              std::size_t cells) {
  const double cpu_rate = cpu::cpu_peak_throughput(platform.cpu, work);
  return static_cast<double>(cells) / std::max(cpu_rate, 1.0);
}

}  // namespace detail

namespace {

/// Policy key of a job: lower runs first; ties broken by submission index.
double sched_key(BatchSched sched, double est, double weight,
                 std::size_t index) {
  switch (sched) {
    case BatchSched::kFifo:
      return static_cast<double>(index);
    case BatchSched::kSjf:
      return est;
    case BatchSched::kWfq:
      return est / weight;
  }
  return static_cast<double>(index);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

BatchEngine::BatchEngine(BatchConfig cfg) : cfg_(std::move(cfg)) {
  LDDP_CHECK_MSG(cfg_.concurrency >= 1, "batch concurrency must be >= 1");
  LDDP_CHECK_MSG(cfg_.queue_capacity >= 1, "batch queue must hold >= 1");
  std::size_t nworkers;
  if (cfg_.worker_threads < 0) {
    nworkers = std::min<std::size_t>(
        cfg_.concurrency,
        std::max(1u, std::thread::hardware_concurrency()));
  } else {
    nworkers = static_cast<std::size_t>(cfg_.worker_threads);
  }
  // One engine-owned executor serves every in-flight solve: per-solve
  // thread counts become soft targets instead of hard partitions, and a
  // finishing solve's workers drain the morsels of the solves still
  // running. It is sized to the machine, not to concurrency x
  // threads_per_solve: workers beyond the engine's own slot threads, never
  // negative (on few-core hosts the slots saturate the machine and every
  // front runs inline).
  if (cfg_.threads_per_solve > 1) {
    const std::size_t nslots = std::max<std::size_t>(nworkers, 1);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t want =
        std::min<std::size_t>(hw, nslots * cfg_.threads_per_solve);
    pool_ = std::make_unique<cpu::ThreadPool>(
        want > nslots ? want - nslots + 1 : 1);
  }
  workers_.reserve(nworkers);
  for (std::size_t s = 0; s < nworkers; ++s)
    workers_.emplace_back([this] { worker_loop(); });
}

BatchEngine::~BatchEngine() {
  wait();  // drain so every returned future is fulfilled
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

std::size_t BatchEngine::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t BatchEngine::lane_limit() const {
  if (cfg_.lane_pack == 0) return 1;
  if (cfg_.lane_pack < 0) return lanes::preferred_lane_width();
  return static_cast<std::size_t>(std::min<long long>(cfg_.lane_pack, 64));
}

bool BatchEngine::fits_locked(const Job& j, std::size_t extra) const {
  if (cfg_.memory_budget_bytes == 0) return true;
  // An idle engine force-admits: a request bigger than the whole budget
  // runs alone rather than starving.
  if (running_ == 0 && inflight_table_bytes_ == 0 && extra == 0) return true;
  return inflight_table_bytes_ + extra + j.est_table_bytes <=
         cfg_.memory_budget_bytes;
}

bool BatchEngine::has_admissible_locked() const {
  for (const Job* j : pending_)
    if (fits_locked(*j, 0)) return true;
  return false;
}

BatchEngine::Job* BatchEngine::pop_next_locked() {
  LDDP_DCHECK(!pending_.empty());
  const auto better = [&](const Job& a, const Job& b) {
    const double ka = sched_key(cfg_.sched, a.est, a.weight, a.index);
    const double kb = sched_key(cfg_.sched, b.est, b.weight, b.index);
    return ka < kb || (ka == kb && a.index < b.index);
  };
  std::size_t best_all = 0;
  std::size_t best_fit = pending_.size();
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (k > 0 && better(*pending_[k], *pending_[best_all])) best_all = k;
    if (!fits_locked(*pending_[k], 0)) continue;
    if (best_fit == pending_.size() ||
        better(*pending_[k], *pending_[best_fit]))
      best_fit = k;
  }
  if (best_fit == pending_.size()) return nullptr;
  if (best_fit != best_all) ++budget_deferrals_;
  Job* job = pending_[best_fit];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best_fit));
  return job;
}

/// Pops the scheduler's next job plus — when it is lane-groupable —
/// every same-class pending job (queue order) up to the lane cap, as one
/// cohort. Non-lane jobs come back as singletons; cohort-mates are only
/// taken while they fit the memory budget on top of the head.
std::vector<BatchEngine::Job*> BatchEngine::pop_cohort_locked() {
  std::vector<Job*> cohort;
  Job* const head = pop_next_locked();
  if (head == nullptr) return cohort;  // every pending job budget-deferred
  cohort.push_back(head);
  std::size_t extra = head->est_table_bytes;
  const std::size_t limit = lane_limit();
  if (head->lane_exec != nullptr && limit > 1) {
    for (std::size_t k = 0; k < pending_.size() && cohort.size() < limit;) {
      Job* const j = pending_[k];
      if (j->lane_exec != nullptr && j->lane_key == head->lane_key &&
          fits_locked(*j, extra)) {
        cohort.push_back(j);
        extra += j->est_table_bytes;
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
  }
  for (const Job* j : cohort) inflight_table_bytes_ += j->est_table_bytes;
  peak_inflight_table_bytes_ =
      std::max(peak_inflight_table_bytes_, inflight_table_bytes_);
  return cohort;
}

void BatchEngine::run_job(Job& job, cpu::ThreadPool* pool) {
  // Per-solve quota view over the shared arenas: concurrent solves reuse
  // buffers across the batch but none can hoard the cache.
  sim::QuotaBufferPool quota(&buffers_, cfg_.buffer_quota_bytes);
  // job.run fulfils the promise on every path, but must not be trusted
  // with the engine's bookkeeping: if it ever leaks an exception the job
  // is marked failed and the slot still drains — a stuck `running_` count
  // would deadlock wait() forever.
  try {
    job.run(job, pool, &quota);
  } catch (...) {
    job.failed = true;
    job.outcome = chaos::RequestOutcome::kFailed;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.done = true;
    --running_;
    LDDP_DCHECK(inflight_table_bytes_ >= job.est_table_bytes);
    inflight_table_bytes_ -= job.est_table_bytes;
  }
  cv_done_.notify_all();
  // A retired table may unblock a budget-deferred request.
  if (cfg_.memory_budget_bytes != 0) cv_work_.notify_all();
}

/// Executes one popped cohort: lane jobs (even singleton ones) go through
/// lane_exec as a unit; everything else is the per-solve run_job path.
void BatchEngine::run_cohort(const std::vector<Job*>& cohort,
                             cpu::ThreadPool* pool) {
  Job* const head = cohort.front();
  if (head->lane_exec == nullptr) {
    LDDP_DCHECK(cohort.size() == 1);
    run_job(*head, pool);
    return;
  }
  try {
    head->lane_exec(const_cast<Job**>(cohort.data()), cohort.size());
  } catch (...) {
    for (Job* j : cohort) {
      j->failed = true;
      j->outcome = chaos::RequestOutcome::kFailed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Job* j : cohort) {
      j->done = true;
      LDDP_DCHECK(inflight_table_bytes_ >= j->est_table_bytes);
      inflight_table_bytes_ -= j->est_table_bytes;
    }
    running_ -= cohort.size();
  }
  cv_done_.notify_all();
  if (cfg_.memory_budget_bytes != 0) cv_work_.notify_all();
}

void BatchEngine::drain_one_locked(std::unique_lock<std::mutex>& lock) {
  const std::vector<Job*> cohort = pop_cohort_locked();
  if (cohort.empty()) {
    // Everything pending is budget-deferred behind another inline drain:
    // wait for a table to retire, then let the caller's loop retry.
    cv_done_.wait(lock,
                  [&] { return running_ == 0 || has_admissible_locked(); });
    return;
  }
  running_ += cohort.size();
  lock.unlock();
  run_cohort(cohort, pool_.get());
  lock.lock();
  cv_space_.notify_all();
}

bool BatchEngine::admit(std::unique_ptr<Job> job) {
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_.size() >= cfg_.queue_capacity) {
    if (cfg_.admission == BatchAdmission::kReject) return false;
    if (workers_.empty()) {
      // No executor threads: the blocked submitter makes room itself.
      drain_one_locked(lock);
    } else {
      cv_space_.wait(lock,
                     [&] { return pending_.size() < cfg_.queue_capacity; });
    }
  }
  job->index = jobs_.size();
  pending_.push_back(job.get());
  jobs_.push_back(std::move(job));
  lock.unlock();
  cv_work_.notify_one();
  return true;
}

void BatchEngine::worker_loop() {
  for (;;) {
    std::vector<Job*> cohort;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return stop_ || (!pending_.empty() && has_admissible_locked());
      });
      if (pending_.empty()) return;  // stop_ and nothing left
      cohort = pop_cohort_locked();
      if (cohort.empty()) continue;  // raced another worker for the slot
      running_ += cohort.size();
    }
    cv_space_.notify_all();
    run_cohort(cohort, pool_.get());
  }
}

BatchReport BatchEngine::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (workers_.empty()) {
    while (!pending_.empty()) drain_one_locked(lock);
  }
  cv_done_.wait(lock, [&] { return pending_.empty() && running_ == 0; });
  const std::vector<std::unique_ptr<Job>> jobs = std::move(jobs_);
  jobs_.clear();
  // Per-batch memory counters reset with the job list.
  const std::size_t peak_tables = peak_inflight_table_bytes_;
  const std::size_t deferrals = budget_deferrals_;
  peak_inflight_table_bytes_ = 0;
  budget_deferrals_ = 0;
  lock.unlock();
  BatchReport report = build_report(jobs);
  report.memory_budget_bytes = cfg_.memory_budget_bytes;
  report.peak_inflight_table_bytes = peak_tables;
  report.budget_deferrals = deferrals;
  report.arena = buffers_.stats();
  return report;
}

BatchReport BatchEngine::build_report(
    const std::vector<std::unique_ptr<Job>>& jobs) const {
  BatchReport report;
  report.solves = jobs.size();
  report.items.resize(jobs.size());
  if (jobs.empty()) return report;

  // Admission order under the policy — the queue order a clairvoyant
  // scheduler (all requests arrive at t = 0) would drain in.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sched_key(cfg_.sched, jobs[a]->est,
                                      jobs[a]->weight, a) <
                            sched_key(cfg_.sched, jobs[b]->est,
                                      jobs[b]->weight, b);
                   });

  // Replay every recorded schedule onto one shared platform with
  // `concurrency` in-flight slots: a queued solve is released when the
  // merge completes an in-flight one.
  sim::Platform platform(cfg_.platform);
  sim::TimelineMerger merger(platform.timeline());
  merger.enable_packing(cfg_.platform.gpu);
  struct Dispatched {
    std::size_t job;       // index into jobs
    double release;
    sim::OpId release_dep;
  };
  std::vector<Dispatched> by_rank;  // merger rank -> dispatch info
  by_rank.reserve(jobs.size());
  std::size_t next_in_queue = 0;
  std::size_t completions = 0;

  auto dispatch = [&](double release, sim::OpId release_dep) {
    // Solves that recorded nothing (a failed solve) occupy their slot for
    // zero simulated time: complete them on the spot and release the next
    // queued request at the same instant.
    while (next_in_queue < order.size()) {
      const std::size_t j = order[next_in_queue];
      BatchItemStats& item = report.items[j];
      item.dispatch_rank = next_in_queue;
      item.sim_dispatch = release;
      ++next_in_queue;
      // Retry backoff delays the request's own ops past its slot opening
      // (the slot itself is held — backoff is service time, not queueing).
      const double start = release + jobs[j]->backoff_seconds;
      if (jobs[j]->recorded.op_count() == 0) {
        item.sim_start = item.sim_end = start;
        item.completion_rank = completions++;
        continue;
      }
      const std::size_t rank = merger.add(jobs[j]->recorded, start,
                                          release_dep, jobs[j]->packable);
      LDDP_DCHECK(rank == by_rank.size());
      (void)rank;
      by_rank.push_back(Dispatched{j, release, release_dep});
      return;
    }
  };

  const std::size_t initial =
      std::min<std::size_t>(cfg_.concurrency, order.size());
  for (std::size_t s = 0; s < initial && next_in_queue < order.size(); ++s)
    dispatch(0.0, sim::kNoOp);

  while (merger.busy()) {
    const std::size_t finished = merger.step();
    if (finished == sim::TimelineMerger::kNone) continue;
    const std::size_t j = by_rank[finished].job;
    BatchItemStats& item = report.items[j];
    item.sim_start = merger.job_start(finished);
    item.sim_end = merger.job_end(finished);
    item.completion_rank = completions++;
    dispatch(merger.job_end(finished), merger.job_last_op(finished));
  }
  LDDP_DCHECK(next_in_queue == order.size());
  LDDP_DCHECK(completions == jobs.size());

  std::vector<double> latencies;
  latencies.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    BatchItemStats& item = report.items[j];
    item.index = j;
    item.solve = jobs[j]->stats;
    item.est_seconds = jobs[j]->est;
    item.weight = jobs[j]->weight;
    item.failed = jobs[j]->failed;
    item.outcome = jobs[j]->outcome;
    item.retries = jobs[j]->retries;
    item.backoff_seconds = jobs[j]->backoff_seconds;
    if (jobs[j]->degraded != nullptr) item.degraded = jobs[j]->degraded;
    item.sim_latency = item.sim_end;  // every request arrives at t = 0
    latencies.push_back(item.sim_latency);
    report.serial_sim_seconds += item.solve.sim_seconds;
    report.retry_attempts += jobs[j]->retries;
    switch (jobs[j]->outcome) {
      case chaos::RequestOutcome::kOk:
        ++report.ok_solves;
        break;
      case chaos::RequestOutcome::kRetried:
        ++report.retried_solves;
        break;
      case chaos::RequestOutcome::kDegraded:
        ++report.degraded_solves;
        break;
      case chaos::RequestOutcome::kDeadlineExceeded:
        ++report.deadline_solves;
        break;
      case chaos::RequestOutcome::kCancelled:
        ++report.cancelled_solves;
        break;
      case chaos::RequestOutcome::kFailed:
        ++report.failed_solves;
        break;
    }
  }
  // Lane-packing counters: heads carry their cohort's lockstep tally.
  std::size_t lane_lockstep = 0, lane_total = 0;
  for (const auto& job : jobs) {
    if (!job->lane_key.empty()) ++report.lane_eligible_solves;
    if (job->lane_cohort >= 2) ++report.lane_packed_solves;
    if (job->lane_head) {
      if (job->lane_cohort >= 2) ++report.lane_cohorts;
      lane_lockstep += job->lane_lockstep_cells;
      lane_total += job->lane_total_cells;
    }
  }
  if (lane_total > 0)
    report.lane_occupancy =
        static_cast<double>(lane_lockstep) / static_cast<double>(lane_total);
  if (report.lane_eligible_solves > 0)
    report.lane_hit_rate =
        static_cast<double>(report.lane_packed_solves) /
        static_cast<double>(report.lane_eligible_solves);
  report.sim_makespan = platform.elapsed();
  if (report.sim_makespan > 0.0) {
    report.solves_per_sec =
        static_cast<double>(jobs.size()) / report.sim_makespan;
    report.speedup = report.serial_sim_seconds / report.sim_makespan;
  }
  if (report.serial_sim_seconds > 0.0) {
    report.serial_solves_per_sec =
        static_cast<double>(jobs.size()) / report.serial_sim_seconds;
  }
  report.packs = merger.pack_count();
  report.packed_ops = merger.packed_ops();
  report.pack_saved_seconds = merger.pack_saved_seconds();
  report.tuner_lookups = tuner_cache_.lookups();
  report.tuner_hits = tuner_cache_.hits();
  report.tuner_hit_rate = tuner_cache_.hit_rate();
  report.p50_latency = percentile(latencies, 0.50);
  report.p99_latency = percentile(latencies, 0.99);
  if (!cfg_.trace_path.empty())
    platform.timeline().export_chrome_trace(cfg_.trace_path);
  return report;
}

}  // namespace lddp
