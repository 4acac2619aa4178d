// Frontier storage tier: checkpointed linear-space tables must be
// bit-identical to the full-table solve — for every contributing set,
// every execution mode, ragged and degenerate shapes, and every
// checkpoint interval including the K = 1 and K >= rows extremes. The
// probe problem mixes i, j and the declared neighbours with
// multiplicative hashing (same construction as the strategies suite), so
// a single wrong rematerialized cell anywhere changes the values read.
//
// Also covered: traceback identity on the real alignment problems,
// memory accounting (peak_table_bytes, BufferPool high-water), a chaos
// fault mid-rematerialization retrying cleanly, and the batch engine's
// frontier submission path (solo, lane-cohort, and memory-budget
// admission).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/lane_kernels.h"
#include "problems/alignment.h"
#include "problems/gotoh.h"
#include "problems/image.h"
#include "problems/levenshtein.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "util/fault_injection.h"

namespace lddp {
namespace {

using V = std::uint64_t;

struct Case {
  int mask;  // contributing set (1..15)
  std::size_t rows, cols;
};

auto make_probe(const Case& c) {
  const ContributingSet deps(static_cast<std::uint8_t>(c.mask));
  return problems::make_function_problem<V>(
      c.rows, c.cols, deps, /*bound=*/0x9e3779b97f4a7c15ULL,
      [deps](std::size_t i, std::size_t j, const Neighbors<V>& nb) {
        V r = 0xcbf29ce484222325ULL;
        r = (r ^ (static_cast<V>(i) + 1)) * 0x100000001b3ULL;
        r = (r ^ (static_cast<V>(j) + 3)) * 0x100000001b3ULL;
        if (deps.has_w()) r = (r ^ nb.w) * 0x100000001b3ULL;
        if (deps.has_nw()) r = (r ^ nb.nw) * 0x100000001b3ULL;
        if (deps.has_n()) r = (r ^ nb.n) * 0x100000001b3ULL;
        if (deps.has_ne()) r = (r ^ nb.ne) * 0x100000001b3ULL;
        return r;
      });
}

/// Every cell of the frontier table against the reference table — a full
/// forward scan is the adversarial read order for the band cache (each
/// row of a band is read before the walk moves below the checkpoint).
template <typename Table, typename Ref>
void expect_all_cells_equal(const Table& got, const Ref& ref,
                            const std::string& what) {
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_EQ(got.cols(), ref.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_TRUE(got.at(i, j) == ref.at(i, j))
          << what << " cell (" << i << ", " << j << ")";
}

class FrontierAllSetsTest : public ::testing::TestWithParam<Case> {};

TEST_P(FrontierAllSetsTest, AllModesMatchFullTable) {
  const Case c = GetParam();
  const auto probe = make_probe(c);

  RunConfig ref_cfg;
  ref_cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, ref_cfg);

  const Mode modes[] = {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                        Mode::kHeterogeneous, Mode::kAuto};
  for (const Mode mode : modes) {
    // K = 0 is the ~sqrt(rows) model default; K = 3 forces many short
    // bands even on the smallest shapes.
    for (const std::size_t k : {std::size_t{0}, std::size_t{3}}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.storage = Storage::kFrontier;
      cfg.checkpoint_interval = k;
      const auto got = solve_frontier(probe, cfg);
      expect_all_cells_equal(got.table, ref.table,
                             "mode=" + to_string(mode) +
                                 " K=" + std::to_string(k));
    }
  }
}

// Storage::kFull routes through the classic solve behind the facade and
// must also be bit-identical in every mode; kAuto currently resolves to
// the frontier tier for every canonical pattern.
TEST_P(FrontierAllSetsTest, FullTierFacadeMatches) {
  const Case c = GetParam();
  const auto probe = make_probe(c);

  RunConfig ref_cfg;
  ref_cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, ref_cfg);

  const Mode modes[] = {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                        Mode::kHeterogeneous, Mode::kAuto};
  for (const Mode mode : modes) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.storage = Storage::kFull;
    const auto full = solve_frontier(probe, cfg);
    EXPECT_FALSE(full.table.frontier()) << to_string(mode);
    expect_all_cells_equal(full.table, ref.table,
                           "full facade mode=" + to_string(mode));

    cfg.storage = Storage::kAuto;
    const auto aut = solve_frontier(probe, cfg);
    expect_all_cells_equal(aut.table, ref.table,
                           "auto tier mode=" + to_string(mode));
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const std::size_t shapes[][2] = {{1, 1},  {1, 9},  {9, 1},  {2, 2},
                                   {6, 6},  {5, 11}, {11, 5}, {17, 17},
                                   {23, 8}, {8, 23}};
  for (int mask = 1; mask <= 15; ++mask)
    for (const auto& s : shapes) cases.push_back(Case{mask, s[0], s[1]});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, FrontierAllSetsTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      const ContributingSet cs(static_cast<std::uint8_t>(info.param.mask));
      std::string name = cs.to_string() + "_" +
                         std::to_string(info.param.rows) + "x" +
                         std::to_string(info.param.cols);
      for (char& ch : name)
        if (ch == '+') ch = '_';
      return name;
    });

// K = 1 keeps every row resident (no rematerialization should ever run);
// K >= rows keeps only row 0 and the last row (every interior read
// rematerializes from the single top checkpoint).
TEST(FrontierStorage, CheckpointIntervalExtremes) {
  const Case c{0b1111, 33, 29};
  const auto probe = make_probe(c);
  RunConfig ref_cfg;
  ref_cfg.mode = Mode::kCpuSerial;
  const auto ref = solve(probe, ref_cfg);

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  cfg.storage = Storage::kFrontier;

  cfg.checkpoint_interval = 1;
  const auto dense = solve_frontier(probe, cfg);
  EXPECT_EQ(dense.stats.checkpoint_interval, 1u);
  EXPECT_EQ(dense.stats.checkpoint_rows, 33u);
  expect_all_cells_equal(dense.table, ref.table, "K=1");
  EXPECT_EQ(dense.table.remat_stats().bands, 0u)
      << "K=1 keeps every row; nothing should rematerialize";

  cfg.checkpoint_interval = 1000;  // >= rows: only row 0 is a checkpoint
  const auto sparse = solve_frontier(probe, cfg);
  EXPECT_EQ(sparse.stats.checkpoint_rows, 1u);
  expect_all_cells_equal(sparse.table, ref.table, "K>=rows");
  EXPECT_GT(sparse.table.remat_stats().bands, 0u);
}

// The model default resolves to ~sqrt(rows) clamped to [4, 512], and the
// frontier tier's resident + transient high-water stays far below the
// full grid.
TEST(FrontierStorage, MemoryAccounting) {
  const std::size_t n = 1024;
  problems::LevenshteinProblem p(problems::random_sequence(n, 1),
                                 problems::random_sequence(n, 2));
  const std::size_t full_bytes =
      p.rows() * p.cols() * sizeof(std::int32_t);

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  cfg.storage = Storage::kFrontier;
  const auto r = solve_frontier(p, cfg);

  EXPECT_GE(r.stats.checkpoint_interval, 4u);
  EXPECT_LE(r.stats.checkpoint_interval, 512u);
  EXPECT_EQ(r.stats.checkpoint_rows,
            (p.rows() - 1) / r.stats.checkpoint_interval + 1);
  EXPECT_GT(r.stats.peak_table_bytes, 0u);
  EXPECT_LT(r.stats.peak_table_bytes, full_bytes / 4)
      << "frontier high-water should be a small fraction of the grid";
  EXPECT_EQ(r.table.resident_bytes(),
            (r.stats.checkpoint_rows + 1) * p.cols() * sizeof(std::int32_t));

  // Reads drive remat scratch; peak_bytes tracks the largest band.
  EXPECT_EQ(r.table.at(n, n), solve(p, RunConfig{}).table.at(n, n));
  const auto mid = r.table.at(n / 2 + 1, n / 2);
  (void)mid;
  EXPECT_GT(r.table.remat_stats().bands, 0u);
  EXPECT_GE(r.table.peak_bytes(), r.table.resident_bytes());
}

// The serial frontier scan runs over the same row-major WindowStore as the
// CPU-parallel Horizontal sweep, so both report the same high-water —
// padded window rows included (cols % 16 != 0).
TEST(FrontierStorage, SerialScanPeakMatchesParallelWindow) {
  const auto p = make_probe(Case{0b1110, 37, 45});  // {NW, N, NE}
  ASSERT_EQ(classify(p.deps()), Pattern::kHorizontal);
  RunConfig cfg;
  cfg.storage = Storage::kFrontier;
  cfg.checkpoint_interval = 4;
  cfg.mode = Mode::kCpuSerial;
  const auto serial = solve_frontier(p, cfg);
  cfg.mode = Mode::kCpuParallel;
  const auto parallel = solve_frontier(p, cfg);
  EXPECT_GT(serial.stats.peak_table_bytes, serial.table.resident_bytes());
  EXPECT_EQ(serial.stats.peak_table_bytes, parallel.stats.peak_table_bytes);
  EXPECT_EQ(serial.stats.checkpoint_rows, parallel.stats.checkpoint_rows);
}

// Inverted-L and its mirror are linear-space in every mode on the
// frontier tier: the heterogeneous shell split writes the same
// ShellLayout window as the CPU and GPU strategies, so all three report
// the same high-water — checkpoint rows, last row and two shells — far
// below the grid.
TEST(FrontierStorage, InvertedLHeteroPeakIsTheWindow) {
  constexpr std::size_t n = 256, m = 300;
  for (const int mask : {0b0010, 0b1000}) {  // {NW}, {NE}
    const auto p = make_probe(Case{mask, n, m});
    const std::string what = ContributingSet(
        static_cast<std::uint8_t>(mask)).to_string();
    RunConfig cfg;
    cfg.storage = Storage::kFrontier;
    cfg.checkpoint_interval = 16;
    cfg.mode = Mode::kHeterogeneous;
    cfg.hetero = {8, 100};
    const auto hetero = solve_frontier(p, cfg);
    ASSERT_TRUE(hetero.table.frontier()) << what;
    EXPECT_EQ(hetero.stats.checkpoint_rows, (n - 1) / 16 + 1) << what;
    EXPECT_LT(hetero.stats.peak_table_bytes, n * m * sizeof(V) / 8) << what;
    for (const Mode mode : {Mode::kCpuParallel, Mode::kGpu}) {
      cfg.mode = mode;
      EXPECT_EQ(solve_frontier(p, cfg).stats.peak_table_bytes,
                hetero.stats.peak_table_bytes)
          << what << " " << to_string(mode);
    }
  }
}

// A shared BufferPool serving frontier solves reports live/peak bytes
// and reuse: the second identical solve should hit the arena cache.
TEST(FrontierStorage, BufferPoolHighWater) {
  const auto probe = make_probe(Case{0b0111, 64, 64});
  sim::BufferPool pool;
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  cfg.storage = Storage::kFrontier;
  cfg.buffer_pool = &pool;

  const auto first = solve_frontier(probe, cfg);
  const auto s1 = pool.stats();
  EXPECT_GT(s1.misses, 0u);
  EXPECT_GT(s1.peak_live_bytes, 0u);

  const auto second = solve_frontier(probe, cfg);
  const auto s2 = pool.stats();
  EXPECT_GT(s2.hits, s1.hits) << "second solve should reuse the arena";
  EXPECT_GE(s2.peak_live_bytes, s1.peak_live_bytes);
  expect_all_cells_equal(second.table, solve(probe, RunConfig{}).table,
                         "pooled frontier");
}

// Tracebacks on the real problems: identical alignments/seams whether
// the cells come from the full grid or on-demand rematerialization. The
// alignment problems (W-dependent, NE-free, with a batch hook)
// rematerialize bands as anti-diagonal fronts: 160^2 at K = 7 forces many
// band walks; the ragged shapes at the default K have bands deeper than a
// SIMD run, and at K = 3 every front of a band is edge cells.
TEST(FrontierStorage, TracebacksMatchFullTable) {
  struct TracebackCase {
    std::size_t rows, cols, k;
  };
  const TracebackCase cases[] = {{160, 160, 7}, {301, 257, 0}, {301, 257, 3},
                                 {130, 415, 0}, {130, 415, 3}, {415, 97, 0},
                                 {415, 97, 3}};
  std::uint64_t seed = 2;
  for (const TracebackCase& c : cases) {
    const std::string a = problems::random_sequence(c.rows, ++seed);
    const std::string b = problems::random_sequence(c.cols, ++seed);
    const problems::NeedlemanWunschProblem nw(a, b);
    const problems::SmithWatermanProblem sw(a, b);
    const problems::GotohProblem gotoh(a, b);
    const auto sw_full = solve(sw).table;
    const auto gotoh_full = solve(gotoh).table;
    const auto nw_ref = nw_traceback(nw, solve(nw).table);
    const auto sw_ref = sw_traceback(sw, sw_full);
    const auto gotoh_ref = gotoh_traceback(gotoh, gotoh_full);
    for (const Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                            Mode::kHeterogeneous}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.storage = Storage::kFrontier;
      cfg.checkpoint_interval = c.k;
      const std::string what = std::to_string(c.rows) + "x" +
                               std::to_string(c.cols) + " " +
                               to_string(mode) + " K=" + std::to_string(c.k);
      {
        const auto fr = solve_frontier(nw, cfg).table;
        EXPECT_TRUE(fr.front_major_remat()) << what;
        const auto got = nw_traceback(nw, fr);
        EXPECT_EQ(got.a, nw_ref.a) << "nw " << what;
        EXPECT_EQ(got.b, nw_ref.b) << "nw " << what;
        EXPECT_EQ(got.score, nw_ref.score) << "nw " << what;
      }
      {
        const auto fr = solve_frontier(sw, cfg).table;
        EXPECT_EQ(problems::sw_best_score(fr), problems::sw_best_score(sw_full))
            << "sw " << what;
        const auto got = sw_traceback(sw, fr);
        EXPECT_EQ(got.a, sw_ref.a) << "sw " << what;
        EXPECT_EQ(got.b, sw_ref.b) << "sw " << what;
        EXPECT_EQ(got.score, sw_ref.score) << "sw " << what;
      }
      {
        const auto fr = solve_frontier(gotoh, cfg).table;
        EXPECT_EQ(problems::gotoh_score(fr), problems::gotoh_score(gotoh_full))
            << "gotoh " << what;
        const auto got = gotoh_traceback(gotoh, fr);
        EXPECT_EQ(got.a, gotoh_ref.a) << "gotoh " << what;
        EXPECT_EQ(got.b, gotoh_ref.b) << "gotoh " << what;
        EXPECT_EQ(got.score, gotoh_ref.score) << "gotoh " << what;
      }
    }
  }
  {
    RunConfig fr_cfg;
    fr_cfg.storage = Storage::kFrontier;
    fr_cfg.checkpoint_interval = 7;  // force many band walks
    problems::SeamCarveProblem p(problems::dual_gradient_energy(
        problems::plasma_image(160, 160, 9)));
    const auto ref = problems::extract_seam(solve(p).table);
    const auto got =
        problems::extract_seam(solve_frontier(p, fr_cfg).table);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(problems::seam_energy(p.energy(), got),
              problems::seam_energy(p.energy(), ref));
  }
}

// Front-major bands and the row recurrence (batch kernels off) cover the
// same rows and columns for the same reads: equal remat counts, equal
// cells served.
TEST(FrontierStorage, FrontMajorRematStatsMatchRowPath) {
  const problems::GotohProblem p(problems::random_sequence(377, 11),
                                 problems::random_sequence(290, 12));
  RunConfig cfg;
  cfg.mode = Mode::kCpuParallel;
  cfg.storage = Storage::kFrontier;
  const auto fronts = solve_frontier(p, cfg).table;
  cfg.batch_kernels = false;
  const auto rows = solve_frontier(p, cfg).table;
  ASSERT_TRUE(fronts.front_major_remat());
  ASSERT_FALSE(rows.front_major_remat());

  const auto got = gotoh_traceback(p, fronts);
  const auto ref = gotoh_traceback(p, rows);
  EXPECT_EQ(got.a, ref.a);
  EXPECT_EQ(got.b, ref.b);
  const auto& fs = fronts.remat_stats();
  const auto& rs = rows.remat_stats();
  EXPECT_GT(rs.bands, 0u);
  EXPECT_EQ(fs.bands, rs.bands);
  EXPECT_EQ(fs.rows, rs.rows);
  EXPECT_EQ(fs.cells, rs.cells);
  expect_all_cells_equal(fronts, rows, "front-major vs rows");
}

// An injected fault mid-rematerialization must leave the table clean: the
// same read retried after the chaos scope closes serves the correct
// value, and no partially-built band is ever consulted.
TEST(FrontierStorage, ChaosFaultMidRematRetriesCleanly) {
  const auto probe = make_probe(Case{0b1111, 40, 24});
  RunConfig ref_cfg;
  const auto ref = solve(probe, ref_cfg);

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  cfg.storage = Storage::kFrontier;
  cfg.checkpoint_interval = 8;
  const auto r = solve_frontier(probe, cfg);

  fault::FaultPlan plan;
  plan.seed = 42;
  plan.set_rate(fault::Site::kRematerialize, 1.0);
  {
    fault::FaultScope scope(&plan, /*solve=*/1, /*attempt=*/0);
    EXPECT_THROW((void)r.table.at(9, 9), fault::InjectedFault);
    EXPECT_THROW((void)r.table.at(17, 3), fault::InjectedFault);
  }
  // Scope closed: the same reads succeed and every cell is still exact.
  EXPECT_EQ(r.table.at(9, 9), ref.table.at(9, 9));
  EXPECT_EQ(r.table.at(17, 3), ref.table.at(17, 3));
  expect_all_cells_equal(r.table, ref.table, "post-fault");
}

// The same fault on the front-major band path (Needleman–Wunsch): the
// throw leaves no half-built band behind, and the retried reads — and the
// traceback over them — are exact.
TEST(FrontierStorage, ChaosFaultMidFrontMajorRematRetriesCleanly) {
  const problems::NeedlemanWunschProblem p(problems::random_sequence(90, 21),
                                           problems::random_sequence(70, 22));
  const auto ref = solve(p).table;

  RunConfig cfg;
  cfg.mode = Mode::kCpuSerial;
  cfg.storage = Storage::kFrontier;
  cfg.checkpoint_interval = 16;
  const auto r = solve_frontier(p, cfg);
  ASSERT_TRUE(r.table.front_major_remat());
  (void)r.table.at(40, 30);  // a cached band the faults must invalidate

  fault::FaultPlan plan;
  plan.seed = 42;
  plan.set_rate(fault::Site::kRematerialize, 1.0);
  {
    fault::FaultScope scope(&plan, /*solve=*/1, /*attempt=*/0);
    EXPECT_THROW((void)r.table.at(20, 50), fault::InjectedFault);
    EXPECT_THROW((void)r.table.at(70, 10), fault::InjectedFault);
  }
  EXPECT_EQ(r.table.at(20, 50), ref.at(20, 50));
  EXPECT_EQ(r.table.at(70, 10), ref.at(70, 10));
  const auto got = nw_traceback(p, r.table);
  const auto want = nw_traceback(p, ref);
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  expect_all_cells_equal(r.table, ref, "post-fault");
}

/// A lane-eligible frontier request: small, serial, batch kernels on.
auto make_lane_case(std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      40, 40, ContributingSet(0b0111), salt,
      [salt](std::size_t i, std::size_t j,
             const Neighbors<std::uint64_t>& nb) {
        return (nb.w << 1) ^ (nb.nw + salt) ^ (nb.n * 31) ^
               (i * 1000003 + j);
      });
}

TEST(FrontierBatch, SubmitFrontierMatchesSolo) {
  const auto p = make_lane_case(7);
  RunConfig rc;
  rc.mode = Mode::kHeterogeneous;
  rc.storage = Storage::kFrontier;
  const auto solo = solve_frontier(p, rc);

  BatchConfig bc;
  bc.worker_threads = 0;
  BatchEngine engine(bc);
  auto f = engine.submit_frontier(p, rc);
  ASSERT_TRUE(f.has_value());
  const BatchReport rep = engine.wait();
  auto got = f->get();

  ASSERT_EQ(rep.solves, 1u);
  EXPECT_TRUE(got.table.frontier());
  EXPECT_EQ(got.stats.checkpoint_interval, solo.stats.checkpoint_interval);
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j)
      ASSERT_EQ(got.table.at(i, j), solo.table.at(i, j))
          << "(" << i << ", " << j << ")";
}

// Same-class small serial frontier requests ride the inter-solve lane
// cohort; the harvested checkpoint tables must still serve exact cells.
TEST(FrontierBatch, LaneCohortFrontierIdentity) {
  BatchConfig bc;
  bc.worker_threads = 0;
  BatchEngine engine(bc);

  RunConfig rc;
  rc.mode = Mode::kCpuSerial;
  rc.storage = Storage::kFrontier;
  rc.checkpoint_interval = 5;

  using P = decltype(make_lane_case(0));
  std::vector<std::future<SolveResult<P>>> futures;
  std::vector<P> probs;
  for (std::uint64_t s = 0; s < 6; ++s) probs.push_back(make_lane_case(s));
  for (const auto& p : probs) {
    auto f = engine.submit_frontier(p, rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.solves, 6u);
  if (lanes::preferred_lane_width() > 1) {
    EXPECT_GT(rep.lane_packed_solves, 0u)
        << "same-class serial frontier requests should cohort";
  }

  for (std::size_t k = 0; k < probs.size(); ++k) {
    const auto ref = solve(probs[k], RunConfig{});
    auto got = futures[k].get();
    for (std::size_t i = 0; i < probs[k].rows(); ++i)
      for (std::size_t j = 0; j < probs[k].cols(); ++j)
        ASSERT_EQ(got.table.at(i, j), ref.table.at(i, j))
            << "lane " << k << " cell (" << i << ", " << j << ")";
  }
}

// Lane jobs on both tiers report the solo serial scan of their tier: the
// same simulated charge and checkpoint grid, and the same store plus the
// lane's two rolling lane-major rows as peak table bytes.
TEST(FrontierBatch, LaneJobsReportSoloSerialStats) {
  BatchConfig bc;
  bc.worker_threads = 0;
  BatchEngine engine(bc);
  using P = problems::LevenshteinProblem;
  std::vector<P> probs;
  for (std::uint64_t s = 0; s < 4; ++s)
    probs.emplace_back(problems::random_sequence(60 + s, 2 * s + 1),
                       problems::random_sequence(73 - s, 2 * s + 2));
  RunConfig full;
  full.mode = Mode::kCpuSerial;
  RunConfig frontier = full;
  frontier.storage = Storage::kFrontier;
  frontier.checkpoint_interval = 6;
  std::vector<std::future<SolveResult<P>>> full_futs;
  std::vector<std::future<SolveResult<P>>> frontier_futs;
  for (const P& p : probs) {
    auto f = engine.submit(p, full);
    ASSERT_TRUE(f.has_value());
    full_futs.push_back(std::move(*f));
    auto ff = engine.submit_frontier(p, frontier);
    ASSERT_TRUE(ff.has_value());
    frontier_futs.push_back(std::move(*ff));
  }
  const BatchReport rep = engine.wait();
  ASSERT_EQ(rep.lane_eligible_solves, 8u);
  if (lanes::preferred_lane_width() > 1) {
    EXPECT_GE(rep.lane_packed_solves, 4u);
  }
  for (std::size_t k = 0; k < probs.size(); ++k) {
    const std::size_t lane_rows = 2 * probs[k].cols() * sizeof(std::int32_t);
    const SolveStats solo_full = solve(probs[k], full).stats;
    const SolveStats solo_frontier = solve_frontier(probs[k], frontier).stats;
    const SolveStats got_full = full_futs[k].get().stats;
    const SolveStats got_frontier = frontier_futs[k].get().stats;
    for (const auto& [got, solo] :
         {std::pair{got_full, solo_full},
          std::pair{got_frontier, solo_frontier}}) {
      EXPECT_EQ(got.sim_seconds, solo.sim_seconds) << k;
      EXPECT_EQ(got.cpu_busy_seconds, solo.cpu_busy_seconds) << k;
      EXPECT_EQ(got.checkpoint_interval, solo.checkpoint_interval) << k;
      EXPECT_EQ(got.checkpoint_rows, solo.checkpoint_rows) << k;
      EXPECT_EQ(got.peak_table_bytes, solo.peak_table_bytes + lane_rows)
          << k;
    }
  }
}

// The admission estimate is the peak_table_bytes the solve reports, for
// every contributing set (so every pattern and both symmetric
// reductions), on both tiers, in every mode, untiled and tiled —
// including the staged full tier (grid + front-major table), the tiled
// layer's row-major stores and frontier windows of several fronts, which
// a rows-of-cols estimate under-counts.
TEST(FrontierBatch, TableEstimateIsReportedPeak) {
  for (int mask = 1; mask <= 15; ++mask) {
    const auto p = make_probe({mask, 57, 41});
    for (Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                      Mode::kHeterogeneous}) {
      for (int tile : {0, 8}) {
        RunConfig rc;
        rc.mode = mode;
        rc.tile = tile;
        const std::string what = "mask " + std::to_string(mask) + " " +
                                 to_string(mode) + " tile " +
                                 std::to_string(tile);
        EXPECT_EQ(detail::estimate_table_bytes<Storage::kFull>(p, rc, false),
                  solve(p, rc).stats.peak_table_bytes)
            << what << " full";
        rc.storage = Storage::kFrontier;
        rc.checkpoint_interval = 5;
        EXPECT_EQ(
            detail::estimate_table_bytes<Storage::kFrontier>(p, rc, false),
            solve_frontier(p, rc).stats.peak_table_bytes)
            << what << " frontier";
      }
    }
  }
}

// Through the engine: a lane job's charge is its lane store plus the two
// lane-major rows, a solo job's its solve's peak.
TEST(FrontierBatch, AdmissionChargesReportedPeak) {
  const auto p = make_lane_case(5);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu}) {
    RunConfig rc;
    rc.mode = mode;
    BatchConfig bc;
    bc.worker_threads = 0;
    BatchEngine full_engine(bc);
    auto ff = full_engine.submit(p, rc);
    ASSERT_TRUE(ff.has_value());
    const std::size_t full_charge =
        full_engine.wait().peak_inflight_table_bytes;
    EXPECT_EQ(full_charge, ff->get().stats.peak_table_bytes)
        << to_string(mode);

    rc.storage = Storage::kFrontier;
    BatchEngine frontier_engine(bc);
    auto fr = frontier_engine.submit_frontier(p, rc);
    ASSERT_TRUE(fr.has_value());
    const std::size_t frontier_charge =
        frontier_engine.wait().peak_inflight_table_bytes;
    EXPECT_EQ(frontier_charge, fr->get().stats.peak_table_bytes)
        << to_string(mode);
  }
}

// Admission by table-memory budget: with a budget that fits one request,
// in-flight table bytes never exceed it, everything still completes, and
// an over-budget request force-admits alone instead of starving.
TEST(FrontierBatch, MemoryBudgetAdmission) {
  const auto p = make_lane_case(3);
  RunConfig rc;
  rc.mode = Mode::kCpuSerial;
  rc.storage = Storage::kFrontier;

  // Estimate one request's charge by running an unbudgeted engine first.
  BatchConfig probe_bc;
  probe_bc.worker_threads = 0;
  BatchEngine probe_engine(probe_bc);
  auto pf = probe_engine.submit_frontier(p, rc);
  ASSERT_TRUE(pf.has_value());
  const std::size_t one = probe_engine.wait().peak_inflight_table_bytes;
  ASSERT_GT(one, 0u);
  (void)pf->get();

  BatchConfig bc;
  bc.worker_threads = 2;
  bc.memory_budget_bytes = one + one / 2;  // fits one, not two
  BatchEngine engine(bc);
  std::vector<std::future<SolveResult<decltype(make_lane_case(0))>>>
      futures;
  for (int k = 0; k < 5; ++k) {
    auto f = engine.submit_frontier(p, rc);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  EXPECT_EQ(rep.solves, 5u);
  EXPECT_EQ(rep.ok_solves, 5u);
  EXPECT_EQ(rep.memory_budget_bytes, bc.memory_budget_bytes);
  EXPECT_LE(rep.peak_inflight_table_bytes, bc.memory_budget_bytes);
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());

  // A budget smaller than any single request: the idle-engine force-admit
  // runs them one at a time rather than deadlocking.
  BatchConfig tiny;
  tiny.worker_threads = 2;
  tiny.memory_budget_bytes = 1;
  BatchEngine starved(tiny);
  std::vector<std::future<SolveResult<decltype(make_lane_case(0))>>>
      fs;
  for (int k = 0; k < 3; ++k) {
    auto f = starved.submit_frontier(p, rc);
    ASSERT_TRUE(f.has_value());
    fs.push_back(std::move(*f));
  }
  const BatchReport srep = starved.wait();
  EXPECT_EQ(srep.ok_solves, 3u);
  for (auto& f : fs) EXPECT_NO_THROW((void)f.get());
}

}  // namespace
}  // namespace lddp
