// Cancellation & deadline lifecycle tests, built to run under TSan: real
// engine workers at counts 1 / 4 / 16 with cancellations raised from
// concurrent threads mid-flight, plus the deterministic inline-execution
// contracts (worker_threads = 0) for pre-cancelled requests and
// simulated-time deadlines.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/batch_engine.h"
#include "core/chaos.h"
#include "core/framework.h"
#include "problems/synthetic.h"
#include "util/fault_injection.h"

namespace lddp {
namespace {

auto make_case(std::size_t side, std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      side, side, ContributingSet(0b1111), salt,
      [salt](std::size_t i, std::size_t j,
             const Neighbors<std::uint64_t>& nb) {
        return (nb.w << 1) ^ (nb.nw + salt) ^ (nb.n * 31) ^ nb.ne ^
               (i * 1000003 + j);
      });
}

using Problem = decltype(make_case(1, 0));

/// Real workers + a racing canceller thread: every request must end in a
/// bit-exact success or a structured kCancelled — never a crash, a torn
/// result, or a stuck wait(). The cancel flag is an atomic read at every
/// recorded op, which is exactly what TSan patrols here.
void cancel_race_level(long long workers) {
  BatchConfig bc;
  bc.worker_threads = workers;
  bc.concurrency = static_cast<std::size_t>(workers);
  bc.threads_per_solve = workers <= 4 ? 2 : 1;
  BatchEngine engine(bc);

  constexpr std::size_t kRequests = 24;
  RunConfig serial;
  serial.mode = Mode::kCpuSerial;
  std::vector<Grid<std::uint64_t>> expected;
  std::vector<chaos::CancelSource> sources(kRequests);
  std::vector<std::future<SolveResult<Problem>>> futures;
  for (std::size_t k = 0; k < kRequests; ++k) {
    const auto p = make_case(64, k);
    expected.push_back(solve(p, serial).table);
    RunConfig rc;
    rc.mode = k % 2 == 0 ? Mode::kHeterogeneous : Mode::kCpuParallel;
    chaos::RequestOptions opts;
    opts.cancel = sources[k].token();
    auto f = engine.submit(p, rc, opts);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  // Two concurrent cancellers race the in-flight solves: odd requests are
  // cancelled as soon as possible, a few even ones a moment later.
  std::thread canceller_a([&] {
    for (std::size_t k = 1; k < kRequests; k += 2)
      sources[k].request_cancel();
  });
  std::thread canceller_b([&] {
    for (std::size_t k = 0; k < kRequests; k += 6)
      sources[k].request_cancel();
  });
  canceller_a.join();
  canceller_b.join();
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, kRequests);
  for (std::size_t k = 0; k < kRequests; ++k) {
    try {
      SolveResult<Problem> got = futures[k].get();
      EXPECT_EQ(got.table, expected[k]) << k;
      EXPECT_NE(rep.items[k].outcome, chaos::RequestOutcome::kCancelled)
          << k;
    } catch (const fault::CancelledError&) {
      EXPECT_EQ(rep.items[k].outcome, chaos::RequestOutcome::kCancelled)
          << k;
    }
    // A request whose flag was never raised must have succeeded.
    if (!sources[k].cancel_requested()) {
      EXPECT_EQ(rep.items[k].outcome, chaos::RequestOutcome::kOk) << k;
    }
  }
}

TEST(Cancellation, RaceWorkers1) { cancel_race_level(1); }
TEST(Cancellation, RaceWorkers4) { cancel_race_level(4); }
TEST(Cancellation, RaceWorkers16) { cancel_race_level(16); }

/// Inline execution (worker_threads = 0): a token cancelled before the
/// batch drains is observed deterministically — identical outcomes and
/// merged timings on every run.
TEST(Cancellation, InlineCancellationIsDeterministic) {
  auto run_once = [] {
    BatchConfig bc;
    bc.worker_threads = 0;
    // Per-solve path: a cancelled lane would degrade cohort-mates, which
    // is covered by the lane tests; here the contract is plain kOk vs
    // kCancelled per request.
    bc.lane_pack = 0;
    BatchEngine engine(bc);
    std::vector<chaos::CancelSource> sources(8);
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < 8; ++k) {
      const auto p = make_case(40, k);
      chaos::RequestOptions opts;
      opts.cancel = sources[k].token();
      if (k % 2 == 1) sources[k].request_cancel();
      auto f = engine.submit(p, RunConfig{}, opts);
      EXPECT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    const BatchReport rep = engine.wait();  // inline: drains everything
    for (auto& f : futures) {
      try {
        (void)f.get();
      } catch (const fault::CancelledError&) {
      }
    }
    return rep;
  };
  const BatchReport a = run_once();
  const BatchReport b = run_once();
  ASSERT_EQ(a.solves, b.solves);
  for (std::size_t k = 0; k < a.items.size(); ++k) {
    EXPECT_EQ(a.items[k].outcome, b.items[k].outcome) << k;
    EXPECT_EQ(a.items[k].outcome, k % 2 == 1
                                      ? chaos::RequestOutcome::kCancelled
                                      : chaos::RequestOutcome::kOk)
        << k;
    EXPECT_DOUBLE_EQ(a.items[k].sim_end, b.items[k].sim_end) << k;
  }
  EXPECT_DOUBLE_EQ(a.sim_makespan, b.sim_makespan);
}

/// Deadlines are enforced against the simulated clock, so the verdict is
/// a pure function of the request — identical across worker counts and
/// runs, even with real threads.
TEST(Cancellation, DeadlineVerdictIndependentOfWorkers) {
  auto verdicts = [](long long workers) {
    BatchConfig bc;
    bc.worker_threads = workers;
    BatchEngine engine(bc);
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < 12; ++k) {
      const auto p = make_case(48, k);
      RunConfig rc;
      rc.mode = Mode::kHeterogeneous;
      chaos::RequestOptions opts;
      // Alternate impossible / generous simulated budgets.
      opts.deadline_ms = k % 2 == 0 ? 1e-6 : 1e9;
      auto f = engine.submit(p, rc, opts);
      EXPECT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    const BatchReport rep = engine.wait();
    std::vector<chaos::RequestOutcome> out;
    for (const auto& item : rep.items) out.push_back(item.outcome);
    for (auto& f : futures) {
      try {
        (void)f.get();
      } catch (const fault::DeadlineExceededError&) {
      }
    }
    return out;
  };
  const auto inline_verdicts = verdicts(0);
  const auto w4 = verdicts(4);
  const auto w16 = verdicts(16);
  ASSERT_EQ(inline_verdicts.size(), 12u);
  for (std::size_t k = 0; k < 12; ++k) {
    EXPECT_EQ(inline_verdicts[k], k % 2 == 0
                                      ? chaos::RequestOutcome::kDeadlineExceeded
                                      : chaos::RequestOutcome::kOk)
        << k;
    EXPECT_EQ(w4[k], inline_verdicts[k]) << k;
    EXPECT_EQ(w16[k], inline_verdicts[k]) << k;
  }
}

/// Cancelling after completion is a harmless no-op; dropping a source
/// while its token is still referenced by a queued request is safe
/// (shared ownership), and tokens can be shared across requests.
TEST(Cancellation, TokenLifetimeAndSharing) {
  BatchConfig bc;
  bc.worker_threads = 0;
  BatchEngine engine(bc);
  chaos::CancelToken shared;
  {
    chaos::CancelSource source;
    shared = source.token();
    source.request_cancel();
  }  // source destroyed; the token keeps the flag alive
  EXPECT_TRUE(shared.cancelled());
  chaos::RequestOptions opts;
  opts.cancel = shared;
  auto f1 = engine.submit(make_case(16, 1), RunConfig{}, opts);
  auto f2 = engine.submit(make_case(16, 2), RunConfig{}, opts);
  ASSERT_TRUE(f1.has_value() && f2.has_value());
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.cancelled_solves, 2u);
  EXPECT_THROW(f1->get(), fault::CancelledError);
  EXPECT_THROW(f2->get(), fault::CancelledError);
}

}  // namespace
}  // namespace lddp
