// Chaos/differential harness for the batch engine's robustness layer:
// hundreds of seeded FaultPlans — random per-site rates, random retry
// budgets, deadlines, cancellations, every scheduler and worker
// configuration — each pushed through a real BatchEngine. The contract
// under chaos, for every request, is bits-or-error:
//
//   * a fulfilled future is bit-identical to a solo serial solve, no
//     matter how many injected faults, retries or degradations happened;
//   * a failed future carries a *structured* error (InjectedFault,
//     CancelledError, DeadlineExceededError) — never a crash, hang,
//     deadlock or leak;
//   * with any retry budget >= 1 and no deadline/cancel, injected faults
//     NEVER surface: the ladder's final rung is injection-free.
//
// The master seed comes from LDDP_STRESS_SEED (decimal) when set, so a CI
// failure replays locally:  LDDP_STRESS_SEED=12345 ./test_chaos_differential
// When LDDP_CHAOS_FAILURE_FILE is set, the seed of every failing plan is
// appended there (one per line) — CI uploads the file as an artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/chaos.h"
#include "core/framework.h"
#include "problems/synthetic.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace lddp {
namespace {

std::uint64_t master_seed() {
  if (const char* env = std::getenv("LDDP_STRESS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0xc4a05u;
}

/// Appends one failing plan seed to $LDDP_CHAOS_FAILURE_FILE (no-op when
/// unset). CI's chaos job uploads the file so a red run ships its repro.
void record_failing_seed(std::uint64_t plan_seed) {
  const char* path = std::getenv("LDDP_CHAOS_FAILURE_FILE");
  if (path == nullptr || *path == '\0') return;
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(plan_seed));
    std::fclose(f);
  }
}

auto make_problem(ContributingSet deps, std::size_t rows, std::size_t cols,
                  std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      rows, cols, deps, salt,
      [deps, salt](std::size_t i, std::size_t j,
                   const Neighbors<std::uint64_t>& nb) {
        std::uint64_t r = salt + i * 1000003 + j * 10007;
        if (deps.has_w()) r = (r << 1) ^ nb.w;
        if (deps.has_nw()) r = (r >> 1) + nb.nw;
        if (deps.has_n()) r = r * 31 + nb.n;
        if (deps.has_ne()) r ^= nb.ne + 0x517cc1b727220a95ULL;
        return r;
      });
}

using Problem = decltype(make_problem(ContributingSet(1), 1, 1, 0));

struct Request {
  ContributingSet deps{0b0001};
  std::size_t rows = 1, cols = 1;
  std::uint64_t salt = 0;
  RunConfig cfg;
  bool cancel_upfront = false;  // token cancelled before submission
  double deadline_ms = -1.0;    // -1 inherits the engine default (none)
};

/// One chaos plan: an engine configuration + a handful of requests, all
/// derived from `plan_seed`. Returns false if any expectation failed (the
/// caller records the seed).
void run_plan(std::uint64_t plan_seed, bool inline_workers) {
  Rng rng(plan_seed);

  BatchConfig bc;
  bc.worker_threads =
      inline_workers ? 0 : static_cast<long long>(rng.uniform_int(1, 4));
  bc.concurrency = static_cast<std::size_t>(rng.uniform_int(1, 8));
  bc.threads_per_solve = static_cast<std::size_t>(rng.uniform_int(1, 2));
  bc.sched = rng.uniform_int(0, 2) == 0   ? BatchSched::kFifo
             : rng.uniform_int(0, 1) == 0 ? BatchSched::kSjf
                                          : BatchSched::kWfq;
  bc.pack_solves = rng.uniform_int(0, 1) == 1;
  bc.lane_pack = rng.uniform_int(0, 1) == 1 ? -1 : 0;
  bc.max_retries = static_cast<std::size_t>(rng.uniform_int(0, 3));
  bc.queue_capacity = 16;
  // Per-site rates: a few sites hot, the rest cold — exercises single-site
  // failure paths as often as uniform storms.
  bc.chaos.seed = plan_seed ^ 0x5eedULL;
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    const int dice = static_cast<int>(rng.uniform_int(0, 3));
    bc.chaos.rates[s] = dice == 0   ? 0.0
                        : dice == 1 ? 0.05
                        : dice == 2 ? 0.3
                                    : 0.9;
  }
  BatchEngine engine(bc);

  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(4, 8));
  std::vector<Request> requests;
  std::vector<Grid<std::uint64_t>> expected;
  std::vector<std::future<SolveResult<Problem>>> futures;
  std::vector<chaos::CancelSource> sources(n);
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  for (std::size_t k = 0; k < n; ++k) {
    Request r;
    r.deps = ContributingSet(
        static_cast<std::uint8_t>(rng.uniform_int(1, 15)));
    r.rows = static_cast<std::size_t>(rng.uniform_int(1, 48));
    r.cols = static_cast<std::size_t>(rng.uniform_int(1, 48));
    r.salt = rng();
    const int mode = static_cast<int>(rng.uniform_int(0, 3));
    r.cfg.mode = mode == 0   ? Mode::kCpuSerial
                 : mode == 1 ? Mode::kCpuParallel
                 : mode == 2 ? Mode::kGpu
                             : Mode::kHeterogeneous;
    r.cfg.tile = rng.uniform_int(0, 1) == 1 ? 8 : 0;
    r.cfg.fused_launches = rng.uniform_int(0, 1) == 1;
    r.cancel_upfront = rng.uniform_int(0, 9) == 0;  // 10 % of requests
    if (rng.uniform_int(0, 4) == 0)                 // 20 %: a deadline
      r.deadline_ms = rng.uniform_int(0, 1) == 0 ? 1e-6 : 1e6;

    const auto problem = make_problem(r.deps, r.rows, r.cols, r.salt);
    expected.push_back(solve(problem, serial).table.to_grid());
    chaos::RequestOptions opts;
    if (r.cancel_upfront) {
      sources[k].request_cancel();
      opts.cancel = sources[k].token();
    }
    opts.deadline_ms = r.deadline_ms;
    auto f = engine.submit(problem, r.cfg, opts);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
    requests.push_back(r);
  }

  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, n);
  EXPECT_EQ(rep.ok_solves + rep.retried_solves + rep.degraded_solves +
                rep.deadline_solves + rep.cancelled_solves +
                rep.failed_solves,
            n);

  for (std::size_t k = 0; k < n; ++k) {
    const auto outcome = rep.items[k].outcome;
    SCOPED_TRACE("plan " + std::to_string(plan_seed) + " request " +
                 std::to_string(k) + " outcome " +
                 chaos::to_string(outcome));
    try {
      SolveResult<Problem> got = futures[k].get();
      // Bits: any fulfilled future — however many faults, retries and
      // degradations — is identical to the solo serial scan.
      EXPECT_EQ(got.table.to_grid(), expected[k]);
      EXPECT_TRUE(outcome == chaos::RequestOutcome::kOk ||
                  outcome == chaos::RequestOutcome::kRetried ||
                  outcome == chaos::RequestOutcome::kDegraded);
      EXPECT_FALSE(rep.items[k].failed);
    } catch (const fault::CancelledError&) {
      EXPECT_EQ(outcome, chaos::RequestOutcome::kCancelled);
    } catch (const fault::DeadlineExceededError&) {
      EXPECT_EQ(outcome, chaos::RequestOutcome::kDeadlineExceeded);
    } catch (const fault::InjectedFault&) {
      // Structured injected failure: only legal with a zero retry budget
      // (any budget ends on the injection-free reference rung).
      EXPECT_EQ(outcome, chaos::RequestOutcome::kFailed);
      EXPECT_EQ(bc.max_retries, 0u);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unstructured error escaped: " << e.what();
    }
    // A request cancelled before submission must never report success.
    if (requests[k].cancel_upfront) {
      EXPECT_EQ(outcome, chaos::RequestOutcome::kCancelled);
    }
  }
}

/// Runs `plans` chaos plans derived from the master seed; failing plan
/// seeds are appended to $LDDP_CHAOS_FAILURE_FILE.
void run_plans(std::uint64_t stream, std::size_t plans,
               bool inline_workers) {
  const std::uint64_t seed = master_seed();
  std::printf("LDDP_STRESS_SEED=%llu (chaos stream %llu, %zu plans, "
              "workers %s)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(stream), plans,
              inline_workers ? "inline" : "real");
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  for (std::size_t i = 0; i < plans; ++i) {
    const std::uint64_t plan_seed = rng();
    const bool failed_before = ::testing::Test::HasFailure();
    run_plan(plan_seed, inline_workers);
    if (!failed_before && ::testing::Test::HasFailure())
      record_failing_seed(plan_seed);
  }
}

// 520 plans across the streams (>= 500 per the harness contract), split
// so inline-deterministic and real-worker regimes both get coverage.
TEST(ChaosDifferential, InlinePlans) { run_plans(1, 200, true); }
TEST(ChaosDifferential, RealWorkerPlans) { run_plans(2, 200, false); }
TEST(ChaosDifferential, RealWorkerPlansHighConcurrency) {
  run_plans(3, 120, false);
}

/// Inline chaos plans replay bit-identically: same plan seed, same
/// outcomes, same retry counts, same merged timings.
TEST(ChaosDifferential, InlineReplayIsDeterministic) {
  const std::uint64_t seed = master_seed();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  auto run_once = [](std::uint64_t plan_seed) {
    Rng prng(plan_seed);
    BatchConfig bc;
    bc.worker_threads = 0;
    bc.max_retries = static_cast<std::size_t>(prng.uniform_int(0, 3));
    bc.chaos = fault::FaultPlan::uniform(plan_seed ^ 0xabcdULL, 0.4);
    BatchEngine engine(bc);
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < 8; ++k) {
      const auto p = make_problem(
          ContributingSet(static_cast<std::uint8_t>(prng.uniform_int(1, 15))),
          static_cast<std::size_t>(prng.uniform_int(4, 40)),
          static_cast<std::size_t>(prng.uniform_int(4, 40)), prng());
      RunConfig rc;
      rc.mode = k % 2 == 0 ? Mode::kGpu : Mode::kHeterogeneous;
      auto f = engine.submit(p, rc);
      EXPECT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    const BatchReport rep = engine.wait();  // inline: drains everything
    for (auto& f : futures) {
      try {
        (void)f.get();
      } catch (const std::exception&) {
      }
    }
    return rep;
  };
  for (std::size_t i = 0; i < 20; ++i) {
    const std::uint64_t plan_seed = rng();
    const BatchReport a = run_once(plan_seed);
    const BatchReport b = run_once(plan_seed);
    ASSERT_EQ(a.solves, b.solves) << plan_seed;
    EXPECT_EQ(a.retry_attempts, b.retry_attempts) << plan_seed;
    EXPECT_DOUBLE_EQ(a.sim_makespan, b.sim_makespan) << plan_seed;
    for (std::size_t k = 0; k < a.items.size(); ++k) {
      EXPECT_EQ(a.items[k].outcome, b.items[k].outcome)
          << plan_seed << " item " << k;
      EXPECT_EQ(a.items[k].retries, b.items[k].retries)
          << plan_seed << " item " << k;
      EXPECT_DOUBLE_EQ(a.items[k].sim_end, b.items[k].sim_end)
          << plan_seed << " item " << k;
    }
  }
}

}  // namespace
}  // namespace lddp
