// Behavioural tests of the horizontal heterogeneous strategy: case-1
// pipelining (one-way), case-2 mapped-pinned (two-way), and the
// no-transfer {N} case (Table II).
#include <gtest/gtest.h>

#include "core/framework.h"
#include "problems/checkerboard.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

using V = std::uint64_t;

auto horizontal_probe(int mask, std::size_t n, std::size_t m) {
  const ContributingSet deps(static_cast<std::uint8_t>(mask));
  return problems::make_function_problem<V>(
      n, m, deps, 7ULL,
      [deps](std::size_t i, std::size_t j, const Neighbors<V>& nb) {
        V r = 1469598103934665603ULL + i * 31 + j;
        if (deps.has_nw()) r = r * 1099511628211ULL + nb.nw;
        if (deps.has_n()) r = r * 1099511628211ULL + nb.n;
        if (deps.has_ne()) r = r * 1099511628211ULL + nb.ne;
        return r;
      });
}

constexpr int kN = static_cast<int>(Dep::kN);
constexpr int kNW = static_cast<int>(Dep::kNW);
constexpr int kNE = static_cast<int>(Dep::kNE);

TEST(HeteroHorizontalTest, NoTransfersForLoneN) {
  const auto p = horizontal_probe(kN, 64, 64);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 20};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kNone);
  // Only the final result download (input_bytes() is 0 for the probe).
  EXPECT_EQ(r.stats.h2d_copies, 0u);
  EXPECT_EQ(r.stats.d2h_copies, 1u);
}

TEST(HeteroHorizontalTest, Case1NwPipelinesOneWay) {
  const auto p = horizontal_probe(kNW | kN, 64, 64);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 20};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kOneWay);
  EXPECT_EQ(r.stats.h2d_copies, 64u);  // one boundary cell per row
  EXPECT_EQ(r.stats.d2h_copies, 1u);   // final download only
}

TEST(HeteroHorizontalTest, Case1NePipelinesOtherWay) {
  const auto p = horizontal_probe(kN | kNE, 64, 64);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 20};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kOneWay);
  EXPECT_EQ(r.stats.h2d_copies, 0u);
  EXPECT_EQ(r.stats.d2h_copies, 64u + 1u);  // per-row boundary + final
}

TEST(HeteroHorizontalTest, Case2UsesMappedPinnedNotCopies) {
  const auto p = horizontal_probe(kNW | kN | kNE, 64, 64);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 20};
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kTwoWay);
  // Zero-copy boundary: no per-row copy-engine operations.
  EXPECT_EQ(r.stats.h2d_copies, 0u);
  EXPECT_EQ(r.stats.d2h_copies, 1u);
}

TEST(HeteroHorizontalTest, Case2SlowerThanCase1PerRowOverhead) {
  // Same shape, same split: the two-way variant pays the mapped-access
  // surcharge and the per-row cross serialization (Fig 13's observation).
  const std::size_t n = 256, m = 256;
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 64};
  const auto case1 = solve(horizontal_probe(kNW | kN, n, m), cfg);
  const auto case2 = solve(horizontal_probe(kNW | kN | kNE, n, m), cfg);
  EXPECT_GT(case2.stats.sim_seconds, case1.stats.sim_seconds);
}

TEST(HeteroHorizontalTest, CheckerboardEndToEnd) {
  const auto costs = problems::random_cost_board(128, 128, 5);
  problems::CheckerboardProblem p(costs);
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  const auto r = solve(p, cfg);
  EXPECT_EQ(r.table, problems::checkerboard_reference(costs));
  EXPECT_EQ(r.stats.pattern, Pattern::kHorizontal);
  EXPECT_EQ(r.stats.transfer, TransferNeed::kTwoWay);
}

TEST(HeteroHorizontalTest, ExtremeSharesStayCorrect) {
  const auto costs = problems::random_cost_board(40, 60, 6);
  problems::CheckerboardProblem p(costs);
  const auto ref = problems::checkerboard_reference(costs);
  for (long long share : {0LL, 1LL, 59LL, 60LL, 1000LL}) {
    RunConfig cfg;
    cfg.mode = Mode::kHeterogeneous;
    cfg.hetero = {0, share};
    EXPECT_EQ(solve(p, cfg).table, ref) << "share " << share;
  }
}

TEST(HeteroHorizontalTest, Case1CpuOpsRunBackToBackOnTheTimeline) {
  // The pipelining claim, checked on the schedule itself: with one-way
  // CPU->GPU traffic the CPU never waits, so its ops on the timeline are
  // gap-free (each front starts exactly when the previous one ends).
  const auto p = horizontal_probe(kNW | kN, 200, 200);
  sim::Platform platform(sim::PlatformSpec::hetero_high());
  SolveStats stats;
  const RowMajorLayout rows(200, 200);
  FullStore<V, RowMajorLayout> store(rows);
  solve_hetero_horizontal(p, store, platform, HeteroParams{0, 50}, &stats);
  const sim::Timeline& tl = platform.timeline();
  double prev_end = -1.0;
  std::size_t cpu_ops = 0;
  for (sim::OpId op = 0; op < tl.op_count(); ++op) {
    if (tl.resource_name(tl.op_resource(op)) != "cpu") continue;
    if (tl.end_time(op) == tl.start_time(op)) continue;  // sync points
    if (prev_end >= 0.0) {
      EXPECT_NEAR(tl.start_time(op), prev_end, 1e-12) << "cpu op " << op;
    }
    prev_end = tl.end_time(op);
    ++cpu_ops;
  }
  EXPECT_EQ(cpu_ops, 200u);  // one per row

  // Two-way (case-2) must NOT be gap-free: the CPU waits for the GPU's
  // boundary each row.
  const auto p2 = horizontal_probe(kNW | kN | kNE, 200, 200);
  sim::Platform platform2(sim::PlatformSpec::hetero_high());
  FullStore<V, RowMajorLayout> store2(rows);
  solve_hetero_horizontal(p2, store2, platform2, HeteroParams{0, 50}, &stats);
  const sim::Timeline& tl2 = platform2.timeline();
  prev_end = -1.0;
  int gaps = 0;
  for (sim::OpId op = 0; op < tl2.op_count(); ++op) {
    if (tl2.resource_name(tl2.op_resource(op)) != "cpu") continue;
    if (tl2.end_time(op) == tl2.start_time(op)) continue;
    if (prev_end >= 0.0 && tl2.start_time(op) > prev_end + 1e-12) ++gaps;
    prev_end = tl2.end_time(op);
  }
  EXPECT_GT(gaps, 100);
}

TEST(HeteroHorizontalTest, CpuPipelinesAheadInCase1) {
  // In case-1 the CPU never waits for the GPU: its busy time should pack
  // tightly at the start of the timeline rather than interleave. We check
  // the weaker, robust property that total time is close to the maximum of
  // the two units' busy times (pipeline overlap), not their sum. The probe
  // declares result_bytes() == 0 so the assertion targets the per-row
  // pipeline, not the fixed final-download tail (which dwarfs the fused
  // kernel chain on this problem and says nothing about overlap).
  struct NoDownloadProbe {
    decltype(horizontal_probe(0, 0, 0)) inner;
    using Value = V;
    std::size_t rows() const { return inner.rows(); }
    std::size_t cols() const { return inner.cols(); }
    ContributingSet deps() const { return inner.deps(); }
    Value boundary() const { return inner.boundary(); }
    Value compute(std::size_t i, std::size_t j,
                  const Neighbors<Value>& nb) const {
      return inner.compute(i, j, nb);
    }
    std::size_t result_bytes() const { return 0; }
  };
  const NoDownloadProbe p{horizontal_probe(kNW | kN, 512, 512)};
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = {0, 128};
  const auto r = solve(p, cfg);
  const double busiest =
      std::max(r.stats.cpu_busy_seconds, r.stats.gpu_busy_seconds);
  EXPECT_LT(r.stats.sim_seconds, busiest * 1.5);
  EXPECT_LT(busiest * 0.9,
            r.stats.cpu_busy_seconds + r.stats.gpu_busy_seconds);
}

}  // namespace
}  // namespace lddp
