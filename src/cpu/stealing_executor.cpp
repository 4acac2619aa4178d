#include "cpu/stealing_executor.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace lddp::cpu {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Deque slots reserved for submitting masters (beyond the per-worker
/// slots). More concurrent masters than this fall back to inline serial
/// execution — correctness is unaffected, only parallelism.
constexpr std::size_t kMasterSlots = 64;

/// Default spin budget when LDDP_SPIN_US is unset.
constexpr int kDefaultSpinIters = 4096;

/// ~100 pause iterations per microsecond on contemporary x86 (a pause is
/// ~10 ns); precise calibration is pointless — the knob trades idle burn
/// against park/unpark latency in orders of magnitude, not percent.
constexpr long kSpinItersPerUs = 100;

std::atomic<std::uint64_t> g_next_exec_id{1};

/// Grain when the caller gives no hint: ~4 morsels per executing thread,
/// so the tail imbalance is at most a quarter-share.
std::size_t default_grain(std::size_t total, std::size_t threads) {
  return total / (4 * threads);
}

}  // namespace

int idle_spin_iters() {
  static const int iters = [] {
    const char* env = std::getenv("LDDP_SPIN_US");
    if (env == nullptr || *env == '\0') return kDefaultSpinIters;
    char* end = nullptr;
    const long us = std::strtol(env, &end, 10);
    if (end == env || us < 0) return kDefaultSpinIters;
    return static_cast<int>(
        std::min<long>(us * kSpinItersPerUs, 100L * 1000 * 1000));
  }();
  return iters;
}

StealingExecutor::StealingExecutor(std::size_t num_workers)
    : exec_id_(g_next_exec_id.fetch_add(1, std::memory_order_seq_cst)),
      num_worker_slots_(num_workers) {
  slots_.reserve(num_workers + kMasterSlots);
  for (std::size_t s = 0; s < num_workers + kMasterSlots; ++s)
    slots_.push_back(std::make_unique<Slot>());
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

StealingExecutor::~StealingExecutor() {
  shutdown_.store(true, std::memory_order_seq_cst);
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
  }
  park_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void StealingExecutor::wake_workers() {
  // The empty critical section orders the notify against a worker that is
  // between its predicate check and its wait; callers bump work_epoch_
  // first.
  {
    std::lock_guard<std::mutex> lock(park_mu_);
  }
  park_cv_.notify_all();
}

std::size_t StealingExecutor::master_slot_index() {
  struct Claim {
    std::uint64_t exec_id;
    std::size_t index;
  };
  thread_local std::vector<Claim> claims;
  for (const Claim& c : claims)
    if (c.exec_id == exec_id_) return c.index;
  for (std::size_t s = num_worker_slots_; s < slots_.size(); ++s) {
    bool expected = false;
    if (slots_[s]->claimed.compare_exchange_strong(
            expected, true, std::memory_order_seq_cst)) {
      claims.push_back(Claim{exec_id_, s});
      return s;
    }
  }
  return slots_.size();  // all master slots taken: caller runs inline
}

bool StealingExecutor::try_acquire(std::size_t my_slot,
                                   steal_detail::Task* out) {
  if (slots_[my_slot]->deque.pop(out)) return true;
  const std::size_t n = slots_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t victim = (my_slot + k) % n;
    if (slots_[victim]->deque.maybe_nonempty() &&
        slots_[victim]->deque.steal(out))
      return true;
  }
  return false;
}

void StealingExecutor::execute_task(steal_detail::RegionCore* core,
                                    std::size_t lo, std::size_t hi,
                                    steal_detail::WorkDeque* deque) {
  // Lazy binary splitting: halve at a quantum-aligned midpoint until the
  // range fits one grain, publishing upper halves for thieves. The split
  // tree — hence the morsel leaf set and every fault salt — depends only
  // on (lo, hi, grain, quantum): a push that overflows the deque executes
  // the upper half inline through the SAME recursion instead of changing
  // the partition.
  const std::size_t q = core->quantum;
  while (hi - lo > core->grain) {
    const std::size_t half = (hi - lo) / 2;
    const std::size_t mid = lo + ((half + q - 1) / q) * q;
    LDDP_DCHECK(mid > lo && mid < hi);
    if (deque != nullptr && deque->push({core, mid, hi})) {
      if (parked_.load(std::memory_order_seq_cst) != 0) {
        work_epoch_.fetch_add(1, std::memory_order_seq_cst);
        wake_workers();
      }
    } else {
      execute_task(core, mid, hi, deque);
    }
    hi = mid;
  }
  try {
    // Per-morsel fault draw (site kStripWorker), against the submitting
    // master's plan: the salt is a pure function of the region's
    // deterministic sequence number and the morsel's offset, so a chaos
    // schedule replays identically under any steal interleaving.
    const fault::FaultContext& ctx = core->fault;
    if (ctx.plan != nullptr) {
      const std::uint64_t salt = (core->region_seq << 24) ^ (lo / q);
      if (ctx.plan->should_fail(fault::Site::kStripWorker, ctx.solve,
                                ctx.attempt, salt))
        throw fault::InjectedFault(fault::Site::kStripWorker, ctx.solve,
                                   ctx.attempt);
    }
    (*core->body)(lo, hi);
  } catch (...) {
    std::lock_guard<std::mutex> lock(core->err_mu);
    if (!core->first_error) core->first_error = std::current_exception();
  }
  // The remaining-count decrement is the LAST touch of `core`: once it
  // reaches zero the submitting master's frame (which owns the core) may
  // unwind.
  core->remaining.fetch_sub(hi - lo, std::memory_order_seq_cst);
}

void StealingExecutor::worker_loop(std::size_t slot_index) {
  const int spin_budget = idle_spin_iters();
  std::uint64_t seen = work_epoch_.load(std::memory_order_seq_cst);
  int spins = 0;
  for (;;) {
    steal_detail::Task t;
    if (try_acquire(slot_index, &t)) {
      spins = 0;
      execute_task(t.core, t.lo, t.hi, &slots_[slot_index]->deque);
      continue;
    }
    if (shutdown_.load(std::memory_order_seq_cst)) return;
    if (active_regions_.load(std::memory_order_seq_cst) != 0) {
      // A region is in flight: its straggler morsels may appear any
      // moment, so stay runnable — spin briefly, then yield the core to
      // whoever is computing.
      if (++spins < spin_budget)
        cpu_relax();
      else
        std::this_thread::yield();
      continue;
    }
    const std::uint64_t cur = work_epoch_.load(std::memory_order_seq_cst);
    if (cur != seen) {  // missed a submission while scanning: rescan
      seen = cur;
      spins = 0;
      continue;
    }
    if (++spins < spin_budget) {
      cpu_relax();
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      park_cv_.wait(lock, [&] {
        return shutdown_.load(std::memory_order_seq_cst) ||
               work_epoch_.load(std::memory_order_seq_cst) != seen;
      });
      parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
    seen = work_epoch_.load(std::memory_order_seq_cst);
    spins = 0;
  }
}

void StealingExecutor::parallel_region(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  std::size_t g = grain;
  if (g == 0) g = default_grain(end - begin, size());
  g = std::max(g, kMinGrain);
  g = ((g + kMorselQuantum - 1) / kMorselQuantum) * kMorselQuantum;
  run_region(begin, end, g, kMorselQuantum, body);
}

void StealingExecutor::parallel_items(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  run_region(begin, end,
             std::max<std::size_t>(1, default_grain(end - begin, size())),
             1, body);
}

void StealingExecutor::run_region(
    std::size_t begin, std::size_t end, std::size_t g, std::size_t quantum,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t total = end - begin;
  // Short ranges stay a single task: no deque traffic, no fault draw.
  if (workers_.empty() || total <= g) {
    body(begin, end);
    return;
  }
  const std::size_t idx = master_slot_index();
  if (idx == slots_.size()) {
    body(begin, end);
    return;
  }
  steal_detail::WorkDeque* my_deque = &slots_[idx]->deque;
  steal_detail::RegionCore core;
  core.body = &body;
  core.grain = g;
  core.quantum = quantum;
  core.fault = fault::snapshot();
  core.region_seq = fault::next_region_sequence();
  core.remaining.store(total, std::memory_order_seq_cst);
  active_regions_.fetch_add(1, std::memory_order_seq_cst);
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) wake_workers();
  execute_task(&core, begin, end, my_deque);
  // Help until every cell of THIS region has completed — possibly by
  // draining other regions' morsels, which keeps the core busy while
  // stragglers of ours finish elsewhere.
  const int spin_budget = idle_spin_iters();
  int spins = 0;
  steal_detail::Task t;
  while (core.remaining.load(std::memory_order_seq_cst) != 0) {
    if (try_acquire(idx, &t)) {
      spins = 0;
      execute_task(t.core, t.lo, t.hi, &slots_[idx]->deque);
    } else if (++spins < spin_budget) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  active_regions_.fetch_sub(1, std::memory_order_seq_cst);
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(core.err_mu);
    err = core.first_error;
  }
  if (err) std::rethrow_exception(err);
}

std::size_t shared_executor_workers() {
  return static_cast<std::size_t>(
             std::max(1u, std::thread::hardware_concurrency())) -
         1;
}

StealingExecutor& shared_executor() {
  static StealingExecutor exec(shared_executor_workers());
  return exec;
}

}  // namespace lddp::cpu
