// Batched multi-solve throughput engine — many independent LDDP requests
// time-sharing one simulated heterogeneous platform.
//
// Every solve() call so far has owned the whole platform for its duration;
// a server-style workload ("millions of users") instead keeps a stream of
// independent requests in flight so one request's CPU phases overlap
// another's kernels and DMA (the generalization beyond one-CPU+one-GPU the
// paper's conclusion invites, and the hybrid-scheduler regime of Teodoro
// et al.). The BatchEngine provides that regime:
//
//  * submit() admits a request through a bounded queue (reject-or-wait
//    backpressure) and returns a future for its bit-exact SolveResult;
//    submit_frontier() is the same request path on the frontier storage
//    tier (one admission template and one lane-job body serve both
//    tiers; the tier only picks the store and the tier's rules);
//  * small CPU requests of one solve class run as lane cohorts, one SIMD
//    lane per solve (core/lane_cohort.h), priced as solo serial scans;
//  * worker threads execute admitted solves concurrently for real — their
//    parallel fronts share one engine-owned work-stealing executor — and
//    each solve gets a per-solve quota view of the shared BufferPool arenas;
//  * each solve records its private simulated schedule (the exact op DAG a
//    solo run would produce), and wait() replays all of them onto one
//    shared sim::Platform under the configured scheduler policy — FIFO,
//    shortest-job-first on the cost model's makespan estimate, or
//    weighted-fair — with `concurrency` simulated in-flight slots.
//
// Because the replayed merge is a pure function of the recorded schedules
// and the admission order (sim/timeline_merge.h), the batch makespan,
// per-solve latencies and completion order are deterministic: independent
// of OS scheduling, worker count, and real-thread interleaving. Results
// are bit-identical to running each solve alone — only simulated timing
// and ordering change.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.h"
#include "core/framework.h"
#include "core/lane_cohort.h"
#include "core/run_config.h"
#include "core/tuner.h"
#include "cpu/thread_pool.h"
#include "sim/device_spec.h"
#include "sim/memory.h"
#include "sim/timeline.h"
#include "util/fault_injection.h"

namespace lddp {

/// Order in which queued solves are dispatched into simulated slots (and
/// picked up by the real worker threads).
enum class BatchSched {
  kFifo,  ///< submission order
  kSjf,   ///< smallest cost-model makespan estimate first
  kWfq,   ///< weighted fair: smallest estimate/weight first (one-request
          ///< flows, so the classic virtual finish tag reduces to this)
};

std::string to_string(BatchSched s);

/// What submit() does when the bounded queue is full.
enum class BatchAdmission {
  kWait,    ///< block until a slot frees (backpressure)
  kReject,  ///< return nullopt immediately (load shedding)
};

struct BatchConfig {
  /// The one simulated platform every request in the batch shares. A
  /// request's own RunConfig::platform is overridden with this — mixing
  /// hardware models inside one merged schedule would be meaningless.
  sim::PlatformSpec platform = sim::PlatformSpec::hetero_high();
  /// Simulated in-flight solve slots: how many admitted solves may share
  /// the platform at once. 1 reproduces the serial one-solve-at-a-time
  /// regime exactly.
  std::size_t concurrency = 4;
  /// Bound of the pending-request queue (admission control).
  std::size_t queue_capacity = 64;
  BatchAdmission admission = BatchAdmission::kWait;
  BatchSched sched = BatchSched::kFifo;
  /// Real executor threads. -1 picks min(concurrency, hardware threads);
  /// 0 runs every solve inline on the thread that calls wait() (or, under
  /// kWait backpressure, the blocked submit() caller) — fully
  /// deterministic real execution, used by the unit tests. The simulated
  /// report is identical either way.
  long long worker_threads = -1;
  /// Host threads per in-flight solve. > 1 gives the engine ONE
  /// work-stealing executor shared by every in-flight solve, sized to
  /// min(hardware, slots x threads_per_solve) threads counting the slot
  /// threads themselves, so the host is never oversubscribed; per-solve
  /// counts are soft targets, and a finishing solve's workers drain the
  /// morsels of the solves still running. <= 1 runs each solve's fronts
  /// inline. Results and merged simulated reports are identical either
  /// way; only host wall-clock changes.
  std::size_t threads_per_solve = 1;
  /// Per-solve cap on bytes borrowed from the shared buffer-pool arenas
  /// (QuotaBufferPool); over-quota acquisitions fall through to the heap.
  /// 0 = unlimited.
  std::size_t buffer_quota_bytes = 0;
  /// Admission budget on the summed estimated table bytes of co-running
  /// solves (full tier: the whole grid; frontier tier: checkpoints + the
  /// rolling front rows). The scheduler defers requests that would push
  /// the in-flight total past the budget — a deferred request runs as
  /// soon as enough tables retire, and a request larger than the whole
  /// budget still runs (alone), so nothing starves. 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
  /// Cross-solve wavefront packing (default on in batch mode): each
  /// simulated scheduling step, co-ready GPU fronts / DMA descriptors of
  /// distinct in-flight solves are emitted as one multi-tenant packed
  /// launch — the window head pays its full submission cost, riders pay
  /// packed_segment_issue_us instead of their launch/issue/fill overhead.
  /// Results stay bit-identical; only merged simulated timing changes.
  /// Individual requests opt out via RunConfig::pack_solves = 0.
  bool pack_solves = true;
  /// Inter-solve SIMD lane packing: small CPU-resolved requests of the
  /// same solve class (SolveClassKey — problem kind, contributing set,
  /// resolved mode, power-of-two shape bucket) are grouped into cohorts
  /// and executed in vector lockstep, one SIMD lane per solve
  /// (core/lane_cohort.h), instead of one-at-a-time through the
  /// per-solve path. -1 (default) caps cohorts at the active ISA's
  /// preferred lane width (8 with AVX2, else 4); 0 disables; N > 0 caps
  /// cohorts at N lanes. Results are bit-identical to solo solves; lane
  /// jobs record a serial-scan-priced timeline independent of the cohort
  /// they land in, so the merged report stays deterministic.
  long long lane_pack = -1;
  /// Resolve auto heterogeneous parameters (t_switch / t_share unset,
  /// tile = -1) through the engine's cross-solve TunerCache: the first
  /// request of an equivalence class pays one tuning sweep, later ones
  /// reuse it. Off by default — sweeps multiply solve work, so callers
  /// opt in (lddp_cli --tune in batch mode does). Full tier (submit) only:
  /// tuning sweeps run full-table solves, which would break the frontier
  /// tier's memory bound.
  bool tune_auto = false;
  // --- request lifecycle (tentpole of the robustness layer) --------------
  /// Default per-request *simulated-time* deadline in milliseconds,
  /// enforced at every recorded op (front/tile/copy boundary) of every
  /// execution layer. 0 disables; RequestOptions::deadline_ms overrides
  /// per request. Simulated-clock deadlines are deterministic: whether a
  /// request times out never depends on host load.
  double deadline_ms = 0.0;
  /// Default retry budget per request. Attempt k + 1 runs one rung further
  /// down the degradation ladder (fused -> unfused -> untiled -> scalar ->
  /// serial reference); the final attempt always jumps to the
  /// injection-free serial reference rung, so any budget >= 1 guarantees a
  /// structured outcome for injected faults.
  std::size_t max_retries = 0;
  /// Deterministic backoff charged against the simulated clock before
  /// retry k (doubling: backoff * 2^(k-1)). Counts toward the deadline and
  /// delays the request's ops in the merged schedule.
  double retry_backoff_ms = 0.05;
  /// Deterministic fault-injection plan applied to every attempt that is
  /// not on the serial reference rung. Default-constructed = disarmed
  /// (zero rates) — the injection sites then cost one branch each.
  fault::FaultPlan chaos;
  /// If non-empty, the merged batch schedule is exported here as a
  /// chrome://tracing JSON file by wait().
  std::string trace_path;
};

/// Per-request outcome, in submission order.
struct BatchItemStats {
  std::size_t index = 0;       ///< submission order
  SolveStats solve;            ///< the solo run's stats (sim_seconds is the
                               ///< request's *alone* makespan)
  double est_seconds = 0.0;    ///< scheduler's cost-model estimate
  double weight = 1.0;         ///< WFQ weight given to submit()
  bool failed = false;         ///< solve threw (exception is on the future)
  /// Structured lifecycle outcome (chaos::to_string for display).
  chaos::RequestOutcome outcome = chaos::RequestOutcome::kOk;
  std::size_t retries = 0;          ///< extra attempts consumed
  double backoff_seconds = 0.0;     ///< simulated backoff accumulated
  /// Degradation the successful attempt ran with (empty = full-speed
  /// configuration): "fused->unfused", "tiled->untiled", "simd->scalar",
  /// "ref-serial", or "lane->solo" for a degraded lane-cohort job.
  std::string degraded;
  std::size_t dispatch_rank = 0;    ///< order the scheduler released it
  std::size_t completion_rank = 0;  ///< order it finished in the merge
  double sim_dispatch = 0.0;   ///< simulated instant its slot opened
  double sim_start = 0.0;      ///< first op start in the merged schedule
  double sim_end = 0.0;        ///< last op end in the merged schedule
  /// Queueing + service time in the batch (all requests arrive at t=0).
  double sim_latency = 0.0;
};

/// Deterministic simulated outcome of one batch (everything submitted
/// since the previous wait()).
struct BatchReport {
  std::size_t solves = 0;
  // Lifecycle outcome counts (sum equals `solves`).
  std::size_t ok_solves = 0;
  std::size_t retried_solves = 0;
  std::size_t degraded_solves = 0;
  std::size_t deadline_solves = 0;
  std::size_t cancelled_solves = 0;
  std::size_t failed_solves = 0;
  std::size_t retry_attempts = 0;  ///< extra attempts across all requests
  double sim_makespan = 0.0;        ///< merged-schedule completion time
  double serial_sim_seconds = 0.0;  ///< sum of solo makespans (baseline)
  double solves_per_sec = 0.0;      ///< solves / sim_makespan
  double serial_solves_per_sec = 0.0;
  double speedup = 0.0;             ///< serial_sim_seconds / sim_makespan
  double p50_latency = 0.0;         ///< median simulated latency
  double p99_latency = 0.0;
  // Cross-solve packing outcome of this batch's merge.
  std::size_t packs = 0;            ///< multi-tenant launches emitted
  std::size_t packed_ops = 0;       ///< rider segments re-priced in packs
  double pack_saved_seconds = 0.0;  ///< submission time amortized away
  // Inter-solve lane packing outcome of this batch (real execution;
  // results are unchanged, wall-clock throughput is what moves).
  std::size_t lane_eligible_solves = 0;  ///< submitted lane-eligible
  std::size_t lane_packed_solves = 0;    ///< ran in a cohort of >= 2
  std::size_t lane_cohorts = 0;          ///< multi-lane cohorts formed
  /// Cells computed in vector lockstep / cells of all lane-executed
  /// solves (1.0 = every cell rode a full-width vector op).
  double lane_occupancy = 0.0;
  /// lane_packed_solves / lane_eligible_solves.
  double lane_hit_rate = 0.0;
  // Cross-solve tuning cache counters (cumulative since engine creation).
  std::size_t tuner_lookups = 0;
  std::size_t tuner_hits = 0;
  double tuner_hit_rate = 0.0;
  // Memory observability of this batch.
  std::size_t memory_budget_bytes = 0;  ///< echo of the configured budget
  /// High-water of co-running solves' estimated table bytes (what the
  /// admission budget meters).
  std::size_t peak_inflight_table_bytes = 0;
  /// Times the scheduler passed over its preferred request because the
  /// in-flight tables filled the budget.
  std::size_t budget_deferrals = 0;
  /// Shared buffer-pool arena counters (cumulative since engine
  /// creation): cache hits / heap misses and the checked-out high-water.
  sim::BufferPool::Stats arena;
  std::vector<BatchItemStats> items;  ///< submission order
};

namespace detail {

/// Cost-model makespan estimate used by the SJF / WFQ policies: the
/// platform's peak-throughput service time for `cells` cells. Coarse by
/// design — admission ordering only needs relative magnitudes.
double estimate_solve_seconds(const sim::PlatformSpec& platform,
                              const cpu::WorkProfile& work,
                              std::size_t cells);

/// Rung index of the guaranteed-clean reference configuration: scalar
/// serial scan, fault injection suppressed. The lifecycle loop's final
/// attempt always runs here, so a retry budget >= 1 turns every injected
/// fault into a structured kRetried/kDegraded success instead of kFailed.
inline constexpr std::size_t kReferenceRung = 4;

/// Graceful-degradation ladder, applied cumulatively: rung k of a retry
/// switches off one acceleration layer on top of everything rung k - 1
/// switched off. Results are bit-identical on every rung (each toggle is
/// documented result-preserving); only speed — and the set of fault sites
/// the attempt can reach — changes. Returns the label of the deepest
/// applied rung (nullptr at rung 0).
inline const char* degrade(RunConfig& rc, std::size_t rung) {
  const char* label = nullptr;  // non-null only when a setting changed:
                                // an already-minimal config that retries
                                // is kRetried, not kDegraded
  if (rung >= 1 && rc.fused_launches) {
    rc.fused_launches = false;  // no fused graphs => no kGraphReplay site
    label = "fused->unfused";
  }
  if (rung >= 2 && rc.tile != 0) {
    rc.tile = 0;  // legacy untiled strategies
    label = "tiled->untiled";
  }
  if (rung >= 3 && rc.batch_kernels) {
    rc.batch_kernels = false;  // scalar cell kernels
    label = "simd->scalar";
  }
  if (rung >= kReferenceRung && rc.mode != Mode::kCpuSerial) {
    rc.mode = Mode::kCpuSerial;  // single-thread reference scan
    label = "ref-serial";
  }
  return label;
}

/// Lane-eligibility ceiling: lane packing targets the many-small-solves
/// regime, where per-solve fronts are too short for intra-front SIMD.
/// 2M cells admits sequence problems up to ~1448^2 (1024-char inputs);
/// beyond that a solve fills vectors fine on its own and the interleaved
/// tables would just burn cache.
inline constexpr std::size_t kLaneMaxCells = 2'097'152;

/// Everything a lane-packed job on storage tier kTier needs at
/// cohort-execution time. Owned by the job as a type-erased shared_ptr;
/// the lane_exec fn pointer (bound to the tier and problem type at
/// admission) casts it back. The problem is shared, because a fulfilled
/// FrontierTable's remat callback keeps reading it after the engine drops
/// the job.
template <Storage kTier, LddpProblem P>
struct LanePayload {
  std::shared_ptr<const P> problem;
  RunConfig rc;
  std::shared_ptr<std::promise<TierResult<kTier, P>>> promise;
  sim::PlatformSpec platform;
};

/// Coarse estimated table residency of a request, for the admission
/// memory budget: the full grid, or — on the frontier tier — checkpoint
/// rows + last row + the rolling front rows. Device-side copies are
/// deliberately not modelled (the budget meters host table residency).
template <LddpProblem P>
std::size_t estimate_table_bytes(const P& p, const RunConfig& rc,
                                 bool frontier) {
  using V = typename P::Value;
  if (!frontier || rc.storage == Storage::kFull)
    return p.rows() * p.cols() * sizeof(V);
  const std::size_t k =
      resolve_checkpoint_interval(rc.checkpoint_interval, p.rows());
  const std::size_t resident_rows = (p.rows() - 1) / k + 2;  // ckpts + last
  return (resident_rows + 2) * p.cols() * sizeof(V);
}

}  // namespace detail

class BatchEngine {
 public:
  explicit BatchEngine(BatchConfig cfg = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  const BatchConfig& config() const { return cfg_; }

  /// Admits one solve request. The request's RunConfig is honoured except
  /// for platform (forced to the engine's), pool / buffer_pool (engine
  /// managed) and trace/record sinks (engine managed). Returns nullopt if
  /// the queue is full under BatchAdmission::kReject; otherwise a future
  /// for the bit-exact SolveResult. Thread-safe.
  template <LddpProblem P>
  std::optional<std::future<SolveResult<P>>> submit(P problem,
                                                    RunConfig rc = {},
                                                    double weight = 1.0) {
    chaos::RequestOptions opts;
    opts.weight = weight;
    return submit(std::move(problem), std::move(rc), opts);
  }

  /// Lifecycle-aware admission: deadline / retry budget / cancellation
  /// token per request (unset fields inherit the BatchConfig defaults).
  /// Outcomes land in BatchItemStats::outcome; anything but success also
  /// puts a structured exception (fault::CancelledError,
  /// fault::DeadlineExceededError, fault::InjectedFault or the genuine
  /// error) on the future.
  template <LddpProblem P>
  std::optional<std::future<SolveResult<P>>> submit(
      P problem, RunConfig rc, const chaos::RequestOptions& opts) {
    return submit_on<Storage::kFull>(std::move(problem), std::move(rc), opts);
  }

  /// Frontier-storage admission: like submit(), but the future resolves
  /// to a FrontierSolveResult — checkpoint rows + last row + the remat
  /// callback instead of the full grid — and the admission memory budget
  /// meters the frontier tier's resident bytes, so far more solves of a
  /// given size fit in flight. Lane-eligible requests have NO cell cap on
  /// this path: kLaneMaxCells exists to bound interleaved full tables,
  /// and frontier lanes keep one or two rows each. The engine shares
  /// ownership of the problem with the returned table (its remat callback
  /// reads the problem on every interior access).
  template <LddpProblem P>
  std::optional<std::future<FrontierSolveResult<P>>> submit_frontier(
      P problem, RunConfig rc = {}, const chaos::RequestOptions& opts = {}) {
    return submit_on<Storage::kFrontier>(std::move(problem), std::move(rc),
                                         opts);
  }

  /// Number of requests waiting for a slot right now (diagnostics).
  std::size_t pending() const;

  /// Drains the queue, joins all in-flight solves, and returns the
  /// deterministic merged-schedule report for every request submitted
  /// since the previous wait(). The engine is reusable afterwards.
  BatchReport wait();

 private:
  struct Job {
    std::size_t index = 0;
    double est = 0.0;
    double weight = 1.0;
    /// Estimated table residency, metered by the admission memory budget
    /// while the job is in flight.
    std::size_t est_table_bytes = 0;
    bool packable = true;  // eligible for cross-solve packing in the merge
    std::function<void(Job&, cpu::ThreadPool*, sim::BufferPool*)> run;
    sim::Timeline recorded;  // the solve's private simulated schedule
    SolveStats stats;
    bool failed = false;
    bool done = false;
    // Request lifecycle (resolved at submit: per-request options override
    // the BatchConfig defaults).
    chaos::RequestOutcome outcome = chaos::RequestOutcome::kOk;
    std::size_t retries = 0;
    double backoff_seconds = 0.0;  // simulated backoff accumulated
    const char* degraded = nullptr;  // ladder label of the final attempt
    double deadline_s = 0.0;         // simulated-time budget; 0 = none
    std::size_t max_retries = 0;
    fault::FaultPlan chaos_plan;     // engine plan (disarmed = inert)
    lddp::chaos::CancelToken cancel;
    // Lane packing: a non-empty lane_key makes the job cohort-groupable
    // with same-key jobs; lane_exec (bound to the problem type) then runs
    // the whole cohort and fulfils every promise, replacing job->run.
    std::string lane_key;
    void (*lane_exec)(Job**, std::size_t) = nullptr;
    std::shared_ptr<void> lane_payload;
    std::size_t lane_cohort = 0;  // lanes in the cohort it ran in (0=not lane)
    bool lane_head = false;       // first job of its cohort (stats carrier)
    std::size_t lane_lockstep_cells = 0;  // head only: cohort lockstep cells
    std::size_t lane_total_cells = 0;     // head only: cohort total cells
  };

  /// Request-lifecycle loop shared by the solve() and solve_frontier()
  /// job bodies: attempt, and on failure walk the degradation ladder with
  /// deterministic simulated-time backoff. The final attempt always jumps
  /// to the injection-free serial reference rung, so a retry budget >= 1
  /// guarantees injected faults end in a structured success, never
  /// kFailed. `attempt` runs one configuration and returns a result whose
  /// .stats is the solo SolveStats.
  template <typename Result, typename AttemptFn>
  static void run_lifecycle(Job& j, std::promise<Result>& promise,
                            const RunConfig& rc, double backoff_s,
                            AttemptFn&& attempt) {
    const std::size_t max_attempts = j.max_retries + 1;
    std::exception_ptr last_error;
    for (std::size_t k = 0; k < max_attempts; ++k) {
      const std::size_t rung =
          k < j.max_retries ? k : (k > 0 ? detail::kReferenceRung : 0);
      RunConfig attempt_rc = rc;
      j.degraded = detail::degrade(attempt_rc, rung);
      if (k > 0)
        j.backoff_seconds +=
            backoff_s * static_cast<double>(1ull << (k - 1));
      if (j.cancel.cancelled()) {
        j.outcome = chaos::RequestOutcome::kCancelled;
        j.failed = true;
        j.retries = k;
        promise.set_exception(
            std::make_exception_ptr(fault::CancelledError()));
        return;
      }
      fault::RequestControl control;
      if (j.cancel.valid()) control.cancel = j.cancel.flag();
      if (j.deadline_s > 0.0) {
        // Backoff already spent eats into the simulated budget; a
        // request whose budget is gone before the attempt starts times
        // out without running.
        const double remaining = j.deadline_s - j.backoff_seconds;
        if (remaining <= 0.0) {
          j.outcome = chaos::RequestOutcome::kDeadlineExceeded;
          j.failed = true;
          j.retries = k;
          promise.set_exception(std::make_exception_ptr(
              fault::DeadlineExceededError(j.deadline_s)));
          return;
        }
        control.deadline_s = remaining;
      }
      if (control.cancel != nullptr || control.deadline_s > 0.0)
        attempt_rc.control = &control;
      attempt_rc.record_timeline = &j.recorded;
      try {
        std::optional<fault::FaultScope> scope;
        if (j.chaos_plan.armed() && rung < detail::kReferenceRung)
          scope.emplace(&j.chaos_plan, j.index, k);
        Result result = attempt(attempt_rc);
        j.stats = result.stats;
        j.retries = k;
        j.outcome = k == 0 ? chaos::RequestOutcome::kOk
                   : j.degraded != nullptr
                       ? chaos::RequestOutcome::kDegraded
                       : chaos::RequestOutcome::kRetried;
        promise.set_value(std::move(result));
        return;
      } catch (const fault::CancelledError&) {
        j.outcome = chaos::RequestOutcome::kCancelled;
        j.failed = true;
        j.retries = k;
        promise.set_exception(std::current_exception());
        return;
      } catch (const fault::DeadlineExceededError&) {
        j.outcome = chaos::RequestOutcome::kDeadlineExceeded;
        j.failed = true;
        j.retries = k;
        promise.set_exception(std::current_exception());
        return;
      } catch (...) {
        last_error = std::current_exception();
        j.retries = k;
      }
    }
    j.outcome = chaos::RequestOutcome::kFailed;
    j.failed = true;
    promise.set_exception(last_error);
  }

  /// Admission on storage tier kTier, behind submit() (kFull) and
  /// submit_frontier() (kFrontier).
  template <Storage kTier, LddpProblem P>
  std::optional<std::future<detail::TierResult<kTier, P>>> submit_on(
      P problem, RunConfig rc, const chaos::RequestOptions& opts) {
    using Result = detail::TierResult<kTier, P>;
    constexpr bool kFrontier = kTier == Storage::kFrontier;
    LDDP_CHECK_MSG(opts.weight > 0.0, "batch weight must be positive");
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    auto job = std::make_unique<Job>();
    job->weight = opts.weight;
    const double deadline_ms =
        opts.deadline_ms < 0.0 ? cfg_.deadline_ms : opts.deadline_ms;
    job->deadline_s = deadline_ms > 0.0 ? deadline_ms * 1e-3 : 0.0;
    job->max_retries = opts.max_retries < 0
                           ? cfg_.max_retries
                           : static_cast<std::size_t>(opts.max_retries);
    job->chaos_plan = cfg_.chaos;
    job->cancel = opts.cancel;
    const std::size_t cells = problem.rows() * problem.cols();
    job->est = detail::estimate_solve_seconds(
        cfg_.platform, work_profile_of(problem), cells);
    job->packable =
        rc.pack_solves == -1 ? cfg_.pack_solves : rc.pack_solves != 0;
    job->est_table_bytes =
        detail::estimate_table_bytes(problem, rc, kFrontier);
    auto sp = std::make_shared<const P>(std::move(problem));
    // Lane packing: small CPU-resolved requests become cohort-groupable
    // lane jobs, executed by lane_exec over the whole cohort instead of
    // job->run. Eligibility is a pure function of the request (never of
    // what else is in flight), so the recorded timeline — serial-scan
    // pricing, the reference mode for lane cohorts — is deterministic.
    // The full tier caps lanes at kLaneMaxCells (each lane holds its whole
    // table); the frontier tier has no cap, but a Storage::kFull request
    // on it wants the whole table.
    const Mode resolved = detail::resolve_auto(rc.mode, cells);
    const bool lane_sized =
        kFrontier ? rc.storage != Storage::kFull
                  : cells <= detail::kLaneMaxCells;
    if (lane_limit() > 1 && rc.batch_kernels && lane_sized &&
        (resolved == Mode::kCpuSerial || resolved == Mode::kCpuParallel)) {
      job->lane_key = make_solve_class_key(*sp, rc).token();
      if (kFrontier) job->lane_key += "|frontier";
      job->lane_exec = &BatchEngine::lane_exec_impl<kTier, P>;
      job->lane_payload = std::make_shared<detail::LanePayload<kTier, P>>(
          detail::LanePayload<kTier, P>{sp, rc, promise, cfg_.platform});
      if (!admit(std::move(job))) return std::nullopt;
      return future;
    }
    job->run = [sp, rc, promise, platform = cfg_.platform,
                tune_auto = cfg_.tune_auto, tuner = &tuner_cache_,
                backoff_s = cfg_.retry_backoff_ms * 1e-3](
                   Job& j, cpu::ThreadPool* pool,
                   sim::BufferPool* buffers) mutable {
      rc.platform = platform;
      rc.pool = pool;
      rc.buffer_pool = buffers;
      // Cross-solve tuning cache (full tier only): auto-parameter
      // heterogeneous requests reuse one sweep per equivalence class
      // (first contact pays it). Resolved once, before the attempt loop
      // and outside any fault scope — tuning sweeps are shared
      // infrastructure, never faulted.
      if constexpr (!kFrontier) {
        if (tune_auto &&
            detail::resolve_auto(rc.mode, sp->rows() * sp->cols()) ==
                Mode::kHeterogeneous &&
            rc.hetero.t_switch < 0 && rc.hetero.t_share < 0) {
          const TunerCache::Entry tuned = tuner->lookup_or_tune(*sp, rc);
          rc.hetero = tuned.params;
          if (rc.tile == -1) rc.tile = tuned.tile;
        }
      }
      rc.trace_path.clear();
      run_lifecycle<Result>(j, *promise, rc, backoff_s,
                            [&](const RunConfig& arc) {
                              if constexpr (kFrontier)
                                return solve_frontier(sp, arc);
                              else
                                return solve(*sp, arc);
                            });
    };
    if (!admit(std::move(job))) return std::nullopt;
    return future;
  }

  /// Executes one cohort of same-class lane jobs (size >= 1) on storage
  /// tier kTier: solves them in SIMD lockstep (detail::run_lane_cohort),
  /// prices each exactly like a solo serial scan, and fulfils every
  /// promise; frontier tables also get the remat callback and shared
  /// ownership of their problem, so they stay valid after the engine
  /// drops the job. A cohort-level failure — an injected lane-kernel
  /// fault, a lane's cancellation observed mid-row, a genuine error —
  /// re-runs each lane alone on the injection-free per-solve sweep, so one
  /// poisoned request can degrade but never fail its cohort-mates. Lane
  /// degradation charges NO backoff: each lane's recorded timeline stays
  /// the pure solo serial-scan pricing, so the merged report remains
  /// independent of racy cohort formation.
  template <Storage kTier, LddpProblem P>
  static void lane_exec_impl(Job** cohort, std::size_t n) {
    using V = typename P::Value;
    using Payload = detail::LanePayload<kTier, P>;
    constexpr bool kFrontier = kTier == Storage::kFrontier;
    std::vector<Payload*> pls(n);
    std::vector<const P*> probs(n);
    std::vector<std::size_t> ks(n);
    for (std::size_t k = 0; k < n; ++k) {
      pls[k] = static_cast<Payload*>(cohort[k]->lane_payload.get());
      probs[k] = pls[k]->problem.get();
      if constexpr (kFrontier)
        ks[k] = detail::resolve_checkpoint_interval(
            pls[k]->rc.checkpoint_interval, probs[k]->rows());
    }
    Stopwatch wall;
    detail::LaneExecStats lst;
    std::vector<detail::LaneTable<kTier, V>> tables;
    bool cohort_ok = true;
    // Lifecycle hook for the lockstep sweep: the cohort head's fault plan
    // draws kLaneKernel decisions per row, and every lane's cancellation
    // flag is polled so a cancel lands within one row of being raised.
    const bool armed = cohort[0]->chaos_plan.armed();
    bool any_cancel = false;
    for (std::size_t k = 0; k < n; ++k)
      any_cancel = any_cancel || cohort[k]->cancel.valid();
    std::function<void(std::size_t)> poll;
    if (armed || any_cancel) {
      poll = [cohort, n](std::size_t row) {
        fault::maybe_throw(fault::Site::kLaneKernel, row);
        for (std::size_t k = 0; k < n; ++k)
          if (cohort[k]->cancel.cancelled()) throw fault::CancelledError();
      };
    }
    try {
      std::optional<fault::FaultScope> scope;
      if (armed)
        scope.emplace(&cohort[0]->chaos_plan, cohort[0]->index,
                      /*attempt=*/0);
      tables = detail::run_lane_cohort<kTier>(probs, ks,
                                              /*batch_kernels=*/true, &lst,
                                              poll);
    } catch (...) {
      cohort_ok = false;
    }
    const double per_solve_wall =
        wall.seconds() / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
      Job& j = *cohort[k];
      const P& p = *probs[k];
      try {
        if (j.cancel.cancelled()) throw fault::CancelledError();
        // The solo fallback runs poll-free and outside any fault scope —
        // it is the cohort's guaranteed reference rung.
        detail::LaneExecStats solo;
        detail::LaneTable<kTier, V> table =
            cohort_ok ? std::move(tables[k])
                      : std::move(detail::run_lane_cohort<kTier>(
                            std::vector<const P*>{&p},
                            std::vector<std::size_t>{ks[k]}, true,
                            &solo)[0]);
        if constexpr (kFrontier) {
          detail::attach_row_remat(
              table, [sp = pls[k]->problem]() -> const P& { return *sp; },
              /*batch=*/true);
          table.keep_alive(pls[k]->problem);
        }
        // Identical pricing to a solo serial scan, independent of the
        // cohort this job landed in — the merged simulated report must
        // not depend on racy cohort formation.
        sim::Platform plat(pls[k]->platform);
        fault::RequestControl control;
        if (j.cancel.valid()) control.cancel = j.cancel.flag();
        if (j.deadline_s > 0.0) control.deadline_s = j.deadline_s;
        if (control.cancel != nullptr || control.deadline_s > 0.0)
          plat.timeline().set_request_control(&control);
        SolveStats stats;
        detail::finish_serial_scan(p, &plat, &stats, /*batch=*/true,
                                   per_solve_wall);
        plat.timeline().set_request_control(nullptr);
        // The lane's store plus its two rolling lane-major rows.
        const std::size_t peak =
            (cohort_ok ? lst.peak_bytes[k] : solo.peak_bytes[0]) +
            2 * p.cols() * sizeof(V);
        if constexpr (kFrontier)
          detail::finish_frontier_stats(&stats, table, peak);
        else
          stats.peak_table_bytes = peak;
        j.recorded = plat.timeline();
        j.stats = stats;
        if (!cohort_ok) {
          j.outcome = lddp::chaos::RequestOutcome::kDegraded;
          j.degraded = "lane->solo";
          j.retries = 1;
        } else {
          j.outcome = lddp::chaos::RequestOutcome::kOk;
        }
        pls[k]->promise->set_value(
            detail::TierResult<kTier, P>{std::move(table), stats});
      } catch (const fault::CancelledError&) {
        j.outcome = lddp::chaos::RequestOutcome::kCancelled;
        j.failed = true;
        pls[k]->promise->set_exception(std::current_exception());
      } catch (const fault::DeadlineExceededError&) {
        j.outcome = lddp::chaos::RequestOutcome::kDeadlineExceeded;
        j.failed = true;
        pls[k]->promise->set_exception(std::current_exception());
      } catch (...) {
        j.outcome = lddp::chaos::RequestOutcome::kFailed;
        j.failed = true;
        pls[k]->promise->set_exception(std::current_exception());
      }
      j.lane_cohort = n;
    }
    cohort[0]->lane_head = true;
    cohort[0]->lane_lockstep_cells = cohort_ok ? lst.lockstep_cells : 0;
    cohort[0]->lane_total_cells = cohort_ok ? lst.total_cells : 0;
  }

  bool admit(std::unique_ptr<Job> job);
  /// Whether admitting `j` on top of the in-flight tables (plus `extra`
  /// bytes already claimed by the cohort being formed) fits the memory
  /// budget. An idle engine always fits (no starvation).
  bool fits_locked(const Job& j, std::size_t extra) const;
  bool has_admissible_locked() const;
  /// nullptr when every pending job is budget-deferred.
  Job* pop_next_locked();
  /// Empty when every pending job is budget-deferred. Charges the popped
  /// cohort's table bytes against the in-flight total.
  std::vector<Job*> pop_cohort_locked();
  std::size_t lane_limit() const;
  void run_job(Job& job, cpu::ThreadPool* pool);
  void run_cohort(const std::vector<Job*>& cohort, cpu::ThreadPool* pool);
  void worker_loop();
  void drain_one_locked(std::unique_lock<std::mutex>& lock);
  BatchReport build_report(
      const std::vector<std::unique_ptr<Job>>& jobs) const;

  BatchConfig cfg_;
  sim::BufferPool buffers_;  // shared arena cache across all solves
  TunerCache tuner_cache_;   // shared auto-parameter sweeps across solves

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // workers: queue non-empty / stop
  std::condition_variable cv_space_;  // submitters: queue has room
  std::condition_variable cv_done_;   // wait(): everything finished
  std::vector<std::unique_ptr<Job>> jobs_;  // this batch, submission order
  std::vector<Job*> pending_;               // admitted, not yet started
  std::size_t running_ = 0;
  bool stop_ = false;
  // Admission memory budget bookkeeping (all under mu_).
  std::size_t inflight_table_bytes_ = 0;
  std::size_t peak_inflight_table_bytes_ = 0;
  std::size_t budget_deferrals_ = 0;

  // The engine's executor (threads_per_solve > 1), shared by every slot;
  // null runs every front inline.
  std::unique_ptr<cpu::ThreadPool> pool_;
  std::vector<std::thread> workers_;
};

}  // namespace lddp
