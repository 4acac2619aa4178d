// Differential stress for the batch engine: ~200 random seeded cases —
// every contributing set, ragged and degenerate shapes, all modes, tiled
// and untiled, fused and unfused — pushed through the BatchEngine at
// concurrency 1, 4 and 16 with real worker threads, every result compared
// bit-for-bit against a solo serial scan.
//
// The master seed comes from LDDP_STRESS_SEED (decimal) when set, so a CI
// failure can be replayed locally:  LDDP_STRESS_SEED=12345 ./test_batch_differential
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace lddp {
namespace {

std::uint64_t master_seed() {
  if (const char* env = std::getenv("LDDP_STRESS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0x1ddbba7c;
}

struct Case {
  std::size_t rows = 1, cols = 1;
  ContributingSet deps{0b0001};
  std::uint64_t salt = 0;
  RunConfig cfg;
  std::string describe() const {
    return "deps=" + deps.to_string() + " " + std::to_string(rows) + "x" +
           std::to_string(cols) + " mode=" + to_string(cfg.mode) +
           " tile=" + std::to_string(cfg.tile) +
           " fused=" + std::to_string(cfg.fused_launches) +
           " pack=" + std::to_string(cfg.pack_solves);
  }
};

/// Draws one random case. The first 15 draws of a level pin the
/// contributing set so all 15 rows of Table I are always covered; shapes
/// are ragged and occasionally degenerate (single row/column/cell).
Case draw_case(Rng& rng, std::size_t k) {
  Case c;
  const int shape = static_cast<int>(rng.uniform_int(0, 9));
  if (shape == 0) {  // degenerate strip
    c.rows = 1;
    c.cols = static_cast<std::size_t>(rng.uniform_int(1, 80));
  } else if (shape == 1) {
    c.rows = static_cast<std::size_t>(rng.uniform_int(1, 80));
    c.cols = 1;
  } else {  // ragged rectangle
    c.rows = static_cast<std::size_t>(rng.uniform_int(2, 96));
    c.cols = static_cast<std::size_t>(rng.uniform_int(2, 96));
  }
  c.deps = ContributingSet(static_cast<std::uint8_t>(
      k < 15 ? k + 1 : rng.uniform_int(1, 15)));
  c.salt = rng();

  const int mode = static_cast<int>(rng.uniform_int(0, 3));
  c.cfg.mode = mode == 0   ? Mode::kCpuParallel
               : mode == 1 ? Mode::kGpu
               : mode == 2 ? Mode::kHeterogeneous
                           : Mode::kAuto;
  const int tile = static_cast<int>(rng.uniform_int(0, 2));
  c.cfg.tile = tile == 0 ? 0 : tile == 1 ? -1 : 8;
  c.cfg.fused_launches = rng.uniform_int(0, 1) == 1;
  // Per-request packing stance: defer to the engine, opt out, or opt in.
  c.cfg.pack_solves = static_cast<int>(rng.uniform_int(0, 2)) - 1;
  if (rng.uniform_int(0, 1)) {
    c.cfg.hetero.t_switch = rng.uniform_int(0, 100);
    c.cfg.hetero.t_share = rng.uniform_int(0, 100);
  }
  return c;
}

auto make_problem(const Case& c) {
  const ContributingSet deps = c.deps;
  const std::uint64_t salt = c.salt;
  return problems::make_function_problem<std::uint64_t>(
      c.rows, c.cols, deps, salt ^ 0xabcdef,
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

/// Pushes `cases` random cases through one engine (reused across several
/// wait() rounds) and checks every table against the solo serial scan.
void run_level(std::size_t concurrency, std::size_t cases,
               BatchSched sched, const sim::PlatformSpec& platform,
               std::size_t threads_per_solve, std::uint64_t seed_stream,
               bool pack_solves = true) {
  const std::uint64_t seed = master_seed();
  std::printf("LDDP_STRESS_SEED=%llu (stream %llu, concurrency %zu, "
              "pack %d)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed_stream), concurrency,
              pack_solves ? 1 : 0);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + seed_stream);

  BatchConfig bc;
  bc.platform = platform;
  bc.concurrency = concurrency;
  bc.worker_threads = static_cast<long long>(concurrency);
  bc.threads_per_solve = threads_per_solve;
  bc.queue_capacity = 8;  // smaller than a round: exercises backpressure
  bc.sched = sched;
  bc.pack_solves = pack_solves;
  BatchEngine engine(bc);

  constexpr std::size_t kRound = 24;
  std::size_t done = 0;
  while (done < cases) {
    const std::size_t n = std::min(kRound, cases - done);
    std::vector<Case> batch;
    std::vector<Grid<std::uint64_t>> expected;
    using Problem = decltype(make_problem(std::declval<Case&>()));
    std::vector<std::future<SolveResult<Problem>>> futures;
    for (std::size_t k = 0; k < n; ++k) {
      Case c = draw_case(rng, done + k);
      c.cfg.platform = platform;
      RunConfig serial;
      serial.mode = Mode::kCpuSerial;
      const auto problem = make_problem(c);
      expected.push_back(solve(problem, serial).table);
      auto f = engine.submit(problem, c.cfg,
                             1.0 + static_cast<double>(k % 3));
      ASSERT_TRUE(f.has_value()) << c.describe();
      futures.push_back(std::move(*f));
      batch.push_back(std::move(c));
    }
    const BatchReport rep = engine.wait();
    ASSERT_EQ(rep.solves, n);
    for (std::size_t k = 0; k < n; ++k) {
      SolveResult<Problem> got;
      ASSERT_NO_THROW(got = futures[k].get())
          << "seed=" << seed << " case " << done + k << ": "
          << batch[k].describe();
      ASSERT_EQ(got.table, expected[k])
          << "seed=" << seed << " case " << done + k << ": "
          << batch[k].describe();
      EXPECT_FALSE(rep.items[k].failed);
      EXPECT_GE(rep.items[k].sim_end, rep.items[k].sim_start);
    }
    EXPECT_NEAR(rep.sim_makespan, rep.p99_latency,
                rep.sim_makespan * 0.5 + 1e-9);  // sanity, not a perf gate
    done += n;
  }
}

TEST(BatchDifferential, Concurrency1) {
  run_level(1, 72, BatchSched::kFifo, sim::PlatformSpec::hetero_high(),
            /*threads_per_solve=*/1, /*seed_stream=*/1);
}

TEST(BatchDifferential, Concurrency4) {
  // threads_per_solve 2 with packing on: every slot's fronts run on the
  // engine's one executor.
  run_level(4, 72, BatchSched::kSjf, sim::PlatformSpec::hetero_low(),
            /*threads_per_solve=*/2, /*seed_stream=*/2);
}

TEST(BatchDifferential, Concurrency16) {
  run_level(16, 72, BatchSched::kWfq, sim::PlatformSpec::hetero_phi(),
            /*threads_per_solve=*/1, /*seed_stream=*/3);
}

TEST(BatchDifferential, Concurrency1Unpacked) {
  run_level(1, 48, BatchSched::kFifo, sim::PlatformSpec::hetero_high(),
            /*threads_per_solve=*/1, /*seed_stream=*/4,
            /*pack_solves=*/false);
}

TEST(BatchDifferential, Concurrency4Unpacked) {
  // Packing off, fronts still on the engine's one executor.
  run_level(4, 48, BatchSched::kSjf, sim::PlatformSpec::hetero_high(),
            /*threads_per_solve=*/2, /*seed_stream=*/5,
            /*pack_solves=*/false);
}

TEST(BatchDifferential, Concurrency16Unpacked) {
  run_level(16, 48, BatchSched::kWfq, sim::PlatformSpec::hetero_low(),
            /*threads_per_solve=*/1, /*seed_stream=*/6,
            /*pack_solves=*/false);
}

}  // namespace
}  // namespace lddp
