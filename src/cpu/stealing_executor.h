// Work-stealing CPU task runtime — the one host execution substrate.
//
// The paper's CPU side is OpenMP `schedule(static)` block-per-thread
// chunking; that model survives only in the cost model (sim::Platform's
// CpuFrontOpts). Real execution is demand-driven, because on the fronts
// this framework cares about (ragged anti-diagonal ramps, tiny
// t_switch-region fronts, mixed-size batches) static chunks leave cores
// idle behind the slowest block. This executor implements the standard
// fix for irregular wavefront work: per-worker Chase–Lev deques with a
// lock-free steal path, lazy binary splitting of each parallel region
// ("split on steal" — short fronts stay a single task and pay no
// scheduling overhead), and a spin-then-park idle protocol (LDDP_SPIN_US
// tunes it). cpu::ThreadPool is a thin handle on it.
//
// Determinism contract (why real execution never perturbs a recorded
// schedule or chaos replay):
//  * Results are bit-identical to serial inline execution: every front
//    body this framework dispatches is chunk-boundary-insensitive (cells
//    depend only on earlier fronts), so any partition of [begin, end)
//    computes the same table. The executor only changes the partition.
//  * The morsel (leaf-task) set of a region is a pure function of
//    (begin, end, grain, quantum): splits always halve at a
//    quantum-aligned midpoint (16 cells for cell regions, 1 for item
//    regions), whether the upper half is pushed, stolen, or executed
//    inline on deque overflow. Steal interleaving decides only *who*
//    runs a morsel, never *which* morsels exist.
//  * Fault injection (site kStripWorker) is drawn once per morsel with a
//    salt derived from (region sequence, morsel offset) — both
//    interleaving-independent — so a chaos plan's failure schedule
//    replays exactly, regardless of worker count or steal order.
//  * Simulated schedules never pass through here: sim::Timeline records
//    modeled durations on the master after the region completes, so
//    makespans are independent of real execution by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fault_injection.h"

namespace lddp::cpu {

/// Idle spin budget (in pause iterations) before a waiting worker parks
/// on a condvar. Tunable via LDDP_SPIN_US (microseconds, ~100 pauses/us);
/// unset keeps the historical constant (4096 iterations). Read once at
/// first use.
int idle_spin_iters();

class StealingExecutor;

namespace steal_detail {

struct RegionCore;

/// One deque entry: a [lo, hi) sub-range of a region. `core` is stable
/// for the whole region (it lives in the submitting master's frame and
/// is only reclaimed after `remaining` hits zero).
struct Task {
  RegionCore* core = nullptr;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Chase–Lev work-stealing deque, fixed capacity. The owner pushes and
/// pops at the bottom (LIFO — keeps the owner on the cache-hot half of
/// its own split tree); thieves CAS-claim from the top (FIFO — steals
/// the largest outstanding sub-range, which the thief then splits
/// further). All operations are seq_cst, and ring slots are themselves
/// atomics: a thief reads a slot *before* its claiming CAS, and any
/// concurrent overwrite of that slot implies the CAS fails and the torn
/// value is discarded — so the pre-CAS read must be free of data races.
/// push() returns false when full; the caller then executes the task
/// inline (preserving the deterministic split tree) instead of growing.
class WorkDeque {
 public:
  explicit WorkDeque(std::size_t log2_capacity = 13)
      : mask_((std::size_t{1} << log2_capacity) - 1),
        slots_(std::size_t{1} << log2_capacity) {}

  /// Owner only. False when the ring is full.
  bool push(const Task& t) {
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    const std::int64_t top = top_.load(std::memory_order_seq_cst);
    if (b - top > static_cast<std::int64_t>(mask_)) return false;
    Slot& s = slots_[static_cast<std::size_t>(b) & mask_];
    s.core.store(t.core, std::memory_order_seq_cst);
    s.lo.store(t.lo, std::memory_order_seq_cst);
    s.hi.store(t.hi, std::memory_order_seq_cst);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner only. LIFO; loses the race to a thief on the last element.
  bool pop(Task* out) {
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t top = top_.load(std::memory_order_seq_cst);
    if (top > b) {  // empty
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return false;
    }
    const Slot& s = slots_[static_cast<std::size_t>(b) & mask_];
    out->core = s.core.load(std::memory_order_seq_cst);
    out->lo = s.lo.load(std::memory_order_seq_cst);
    out->hi = s.hi.load(std::memory_order_seq_cst);
    if (top != b) return true;  // more than one element: uncontended
    // Single element: race the thieves for it via the top CAS.
    const bool won =
        top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return won;
  }

  /// Any thread. FIFO; false on empty or lost race (caller just retries
  /// elsewhere). The slot words are read before the CAS and are only
  /// *used* after it succeeds — see the class comment for why that is
  /// race-free.
  bool steal(Task* out) {
    std::int64_t top = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (top >= b) return false;
    const Slot& s = slots_[static_cast<std::size_t>(top) & mask_];
    out->core = s.core.load(std::memory_order_seq_cst);
    out->lo = s.lo.load(std::memory_order_seq_cst);
    out->hi = s.hi.load(std::memory_order_seq_cst);
    return top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst);
  }

  /// Approximate (racy) — used only as a "worth scanning?" hint.
  bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_seq_cst) >
           top_.load(std::memory_order_seq_cst);
  }

 private:
  struct Slot {
    std::atomic<RegionCore*> core{nullptr};
    std::atomic<std::size_t> lo{0};
    std::atomic<std::size_t> hi{0};
  };
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  const std::size_t mask_;
  std::vector<Slot> slots_;
};

/// Shared state of one parallel region, owned by the submitting master's
/// stack frame. Reclaimed only after remaining == 0 — and decrementing
/// `remaining` is the LAST touch any task makes, so no worker can
/// dereference a core whose master has already returned.
struct RegionCore {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t grain = 0;
  /// Split alignment: kMorselQuantum for cell regions, 1 for item regions.
  std::size_t quantum = 1;
  /// Fault salt base: the submitting solve attempt's region index (see
  /// fault::next_region_sequence) — deterministic per (solve, attempt).
  std::uint64_t region_seq = 0;
  /// Master's fault context at submission, published to every executing
  /// thread (stealing workers have no FaultScope of their own).
  fault::FaultContext fault;
  std::atomic<std::size_t> remaining{0};  ///< cells not yet completed
  std::mutex err_mu;
  std::exception_ptr first_error;
};

}  // namespace steal_detail

/// The executor: `num_workers` dedicated threads plus every submitting
/// master. There is no master arbitration — any number of threads may
/// submit regions concurrently (each gets its own deque slot), which is
/// what lets one executor serve all in-flight solves of a batch: a
/// finishing solve's workers immediately drain the deques of the solves
/// still running.
class StealingExecutor {
 public:
  /// Morsel alignment: 16 int32 cells = one 64-byte cache line, so
  /// adjacent morsels never false-share an output line.
  static constexpr std::size_t kMorselQuantum = 16;
  /// Smallest grain parallel_region will honour — below this the
  /// per-task bookkeeping dominates the cells. Item regions
  /// (parallel_items) have no floor.
  static constexpr std::size_t kMinGrain = 1024;

  /// `num_workers` may be 0: every region then runs inline on the
  /// submitting thread (the right sizing on a saturated host — the
  /// batch engine uses this to avoid oversubscription).
  explicit StealingExecutor(std::size_t num_workers);
  ~StealingExecutor();

  StealingExecutor(const StealingExecutor&) = delete;
  StealingExecutor& operator=(const StealingExecutor&) = delete;

  /// Threads that can execute region work: workers + the calling master.
  std::size_t size() const { return workers_.size() + 1; }
  std::size_t num_workers() const { return workers_.size(); }

  /// Runs body(lo, hi) over disjoint sub-ranges covering [begin, end),
  /// blocking until all of it has executed; rethrows the first captured
  /// exception. `grain` is the target morsel size in cells (0 = pick a
  /// default from the range and worker count); it is clamped to
  /// kMinGrain and rounded to kMorselQuantum. Ranges at most one grain
  /// long — and every region on a workerless executor — run inline as a
  /// single body call with no scheduling overhead. Reentrant: any number
  /// of threads may submit concurrently; regions do not nest.
  void parallel_region(std::size_t begin, std::size_t end, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>&
                           body);

  /// Item-granular region: like parallel_region, but each index is a
  /// coarse unit of work (a tile), so there is no cell floor: the range
  /// splits into about four morsels per executing thread, down to one
  /// item per morsel.
  void parallel_items(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>&
                          body);

 private:
  struct Slot {
    steal_detail::WorkDeque deque;
    std::atomic<bool> claimed{false};
  };

  void worker_loop(std::size_t slot_index);
  /// Splits [lo, hi) down to grain, pushing upper halves onto `deque`
  /// (or executing them inline on overflow), then runs the leaf morsel:
  /// one fault draw + one body call + the remaining-count decrement.
  void execute_task(steal_detail::RegionCore* core, std::size_t lo,
                    std::size_t hi, steal_detail::WorkDeque* deque);
  /// Shared body of both region kinds; `grain` is final (>= 1, a multiple
  /// of `quantum`).
  void run_region(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t quantum,
                  const std::function<void(std::size_t, std::size_t)>& body);
  bool try_acquire(std::size_t my_slot, steal_detail::Task* out);
  void wake_workers();
  /// Deque-slot index of the calling master thread, claimed on first use
  /// (keyed by a process-unique executor id, so a recycled executor
  /// address never aliases a stale thread-local slot). Returns
  /// slots_.size() when all master slots are taken — the region then
  /// runs inline.
  std::size_t master_slot_index();

  const std::uint64_t exec_id_;
  std::vector<std::unique_ptr<Slot>> slots_;  // [workers][masters]
  const std::size_t num_worker_slots_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> active_regions_{0};
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<std::size_t> parked_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

/// Process-wide shared executor, sized to the hardware (hw - 1 workers):
/// the executor behind cpu::shared_stealing_pool(). Lazily constructed
/// on first use.
StealingExecutor& shared_executor();

/// Worker count shared_executor() is (or would be) built with — lets
/// benches report it without instantiating the threads.
std::size_t shared_executor_workers();

}  // namespace lddp::cpu
