// Deterministic fault injection and request-lifecycle primitives.
//
// A FaultPlan decides, as a pure function of (seed, site, solve id,
// attempt, salt), whether a named injection site throws. Nothing is
// mutated by a decision, so a failing run replays bit-identically from
// its seed: the same solve hits the same faults at the same sites on
// every execution, regardless of thread interleaving. Sites are consulted
// through a thread-local FaultScope installed by the batch engine around
// each solve attempt — code outside a scope (every solo solve() call,
// tuner sweeps, the reference rung of a degradation ladder) pays one
// null-pointer check and can never fault.
//
// RequestControl carries the cooperative half of the lifecycle: a
// cancellation flag and a *simulated-time* deadline, checked by
// sim::Timeline::record at every front/tile/copy boundary. Deadlines are
// against the private simulated clock, so whether a request times out is
// deterministic — independent of host load — exactly like the injection
// decisions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lddp::fault {

/// Named injection sites — every place the simulated platform or the
/// execution layers can be made to fail.
enum class Site : std::uint8_t {
  kPoolAcquire = 0,  ///< BufferPool::acquire (shared arena cache)
  kQuotaAcquire,     ///< QuotaBufferPool::acquire (per-solve quota view)
  kTransferH2D,      ///< Device H2D copy submission
  kTransferD2H,      ///< Device D2H copy submission
  kKernelLaunch,     ///< Device / LaunchGraph kernel launch
  kGraphReplay,      ///< LaunchGraph::replay fused submission
  kStripWorker,      ///< executor morsel of a parallel CPU region
  kLaneKernel,       ///< lane-cohort lockstep row
  kRematerialize,    ///< FrontierTable checkpoint-band rematerialization
};
inline constexpr std::size_t kSiteCount = 9;

inline const char* to_string(Site s) {
  switch (s) {
    case Site::kPoolAcquire:
      return "pool-acquire";
    case Site::kQuotaAcquire:
      return "quota-acquire";
    case Site::kTransferH2D:
      return "transfer-h2d";
    case Site::kTransferD2H:
      return "transfer-d2h";
    case Site::kKernelLaunch:
      return "kernel-launch";
    case Site::kGraphReplay:
      return "graph-replay";
    case Site::kStripWorker:
      return "strip-worker";
    case Site::kLaneKernel:
      return "lane-kernel";
    case Site::kRematerialize:
      return "rematerialize";
  }
  return "?";
}

namespace detail {

/// splitmix64 finalizer (util/rng.h uses the same constants) — the whole
/// decision function is stateless hashing, never a stateful generator.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace detail

/// A seeded per-site failure schedule. Copyable POD; decisions are pure,
/// so a plan can be shared across threads freely.
struct FaultPlan {
  std::uint64_t seed = 0;
  double rates[kSiteCount] = {};  ///< per-site failure probability [0, 1]

  /// Same rate at every site.
  static FaultPlan uniform(std::uint64_t seed, double rate) {
    FaultPlan plan;
    plan.seed = seed;
    for (double& r : plan.rates) r = rate;
    return plan;
  }

  double rate(Site s) const { return rates[static_cast<std::size_t>(s)]; }
  void set_rate(Site s, double r) {
    rates[static_cast<std::size_t>(s)] = r;
  }

  /// Any site armed? A disarmed plan never fails and costs one branch.
  bool armed() const {
    for (double r : rates)
      if (r > 0.0) return true;
    return false;
  }

  /// The decision: pure in (seed, site, solve, attempt, salt). `salt`
  /// distinguishes decision points inside one attempt (byte counts, cell
  /// counts, row indices, worker indices) — deterministic inputs, so the
  /// failure sequence of an attempt is a function of the plan alone.
  bool should_fail(Site site, std::uint64_t solve, std::uint64_t attempt,
                   std::uint64_t salt = 0) const {
    const double r = rates[static_cast<std::size_t>(site)];
    if (r <= 0.0) return false;
    if (r >= 1.0) return true;
    std::uint64_t h = detail::mix(seed);
    h = detail::mix(h ^ (static_cast<std::uint64_t>(site) + 1));
    h = detail::mix(h ^ solve);
    h = detail::mix(h ^ attempt);
    h = detail::mix(h ^ salt);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < r;
  }
};

/// The structured error an armed site throws. Carries enough to replay:
/// plan seed + (site, solve, attempt) pin the exact decision.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(Site site, std::uint64_t solve, std::uint64_t attempt)
      : std::runtime_error(std::string("injected fault at ") +
                           to_string(site) + " (solve " +
                           std::to_string(solve) + ", attempt " +
                           std::to_string(attempt) + ")"),
        site_(site), solve_(solve), attempt_(attempt) {}

  Site site() const { return site_; }
  std::uint64_t solve() const { return solve_; }
  std::uint64_t attempt() const { return attempt_; }

 private:
  Site site_;
  std::uint64_t solve_;
  std::uint64_t attempt_;
};

/// Thrown when a request observes its cancellation flag.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("request cancelled") {}
};

/// Thrown when a request's simulated service time exceeds its deadline.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(double deadline_s)
      : std::runtime_error("simulated deadline of " +
                           std::to_string(deadline_s * 1e3) +
                           " ms exceeded") {}
};

/// Cooperative lifecycle flags of one request, checked at op-record
/// boundaries (sim/timeline.h). Both halves are optional; a
/// default-constructed control is inert.
struct RequestControl {
  /// Externally owned cancellation flag (chaos::CancelSource); null = none.
  const std::atomic<bool>* cancel = nullptr;
  /// Simulated-time budget in seconds; 0 = no deadline.
  double deadline_s = 0.0;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// The ambient injection context of the current thread: which plan is
/// active and which (solve, attempt) the running code belongs to. Null
/// plan = no injection.
struct FaultContext {
  const FaultPlan* plan = nullptr;
  std::uint64_t solve = 0;
  std::uint64_t attempt = 0;
};

namespace detail {

inline FaultContext& context() {
  thread_local FaultContext ctx;
  return ctx;
}

/// Per-thread ordinal of the next parallel region dispatched under the
/// current fault scope — the interleaving-independent half of the
/// stealing executor's per-morsel fault salt. FaultScope zeroes it on
/// entry (and restores on exit), so the sequence is a pure function of
/// (solve, attempt): the Nth region a solve attempt submits gets ordinal
/// N on every replay, regardless of which engine worker runs the attempt
/// or what ran on that thread before.
inline std::uint64_t& region_seq() {
  thread_local std::uint64_t seq = 0;
  return seq;
}

}  // namespace detail

/// Claims the next region ordinal of this thread's fault scope (see
/// detail::region_seq). Called by the stealing executor at region
/// submission; meaningful only under an armed scope, but cheap enough to
/// call unconditionally.
inline std::uint64_t next_region_sequence() { return detail::region_seq()++; }

/// Active context of this thread, or null when no FaultScope is open.
inline const FaultContext* current() {
  const FaultContext& ctx = detail::context();
  return ctx.plan != nullptr ? &ctx : nullptr;
}

/// Copy of this thread's context (plan null when none) — for publishing
/// the context across threads (the executor hands it to its workers).
inline FaultContext snapshot() { return detail::context(); }

/// RAII installation of a fault context on the current thread. Nests:
/// the previous context is restored on destruction. The plan must outlive
/// the scope.
class FaultScope {
 public:
  FaultScope(const FaultPlan* plan, std::uint64_t solve,
             std::uint64_t attempt)
      : saved_(detail::context()), saved_seq_(detail::region_seq()) {
    detail::context() = FaultContext{plan, solve, attempt};
    detail::region_seq() = 0;
  }
  ~FaultScope() {
    detail::context() = saved_;
    detail::region_seq() = saved_seq_;
  }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultContext saved_;
  std::uint64_t saved_seq_;
};

/// The site check: throws InjectedFault when the ambient plan says this
/// decision point fails; a no-op (one null check) outside any scope.
inline void maybe_throw(Site site, std::uint64_t salt = 0) {
  const FaultContext* ctx = current();
  if (ctx == nullptr) return;
  if (ctx->plan->should_fail(site, ctx->solve, ctx->attempt, salt))
    throw InjectedFault(site, ctx->solve, ctx->attempt);
}

}  // namespace lddp::fault
