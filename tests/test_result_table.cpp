// The result table of solve() (tables/frontier.h): full-tier tables are
// read where the sweep wrote them — a row-major grid, or a front-major
// block through the index it was filled with — and the symmetry reductions
// (Vertical, mirrored Inverted-L) are coordinate views. Checks every
// contributing set x mode x tile x shape against the serial scan cell by
// cell and through to_grid(), the 1x table accounting, concurrent reads,
// and that tables of a BatchEngine with per-solve buffer quotas stay valid
// after wait() and after the engine is gone (they own their storage).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/floyd_steinberg.h"
#include "problems/image.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

using Shape = std::pair<std::size_t, std::size_t>;

// Ragged, single-row, single-column and square shapes.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> s = {{1, 23}, {23, 1}, {9, 31},
                                       {31, 9}, {24, 24}};
  return s;
}

auto make_probe(ContributingSet deps, std::size_t n, std::size_t m) {
  return problems::make_function_problem<int>(
      n, m, deps, 3,
      [](std::size_t i, std::size_t j, const Neighbors<int>& nb) {
        // Unsigned arithmetic: the mix wraps instead of overflowing.
        const auto u = [](int v) { return static_cast<std::uint32_t>(v); };
        return static_cast<int>(static_cast<std::uint32_t>(i * 131 + j * 7) ^
                                (u(nb.w) * 3) ^ u(nb.nw) ^ (u(nb.n) * 5) ^
                                (u(nb.ne) * 9));
      });
}

template <typename Table>
void expect_cells(const Table& t, const Grid<int>& ref,
                  const std::string& what) {
  ASSERT_EQ(t.rows(), ref.rows()) << what;
  ASSERT_EQ(t.cols(), ref.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(t.at(i, j), ref.at(i, j)) << what << " at " << i << "," << j;
}

// All 15 contributing sets (Vertical and mirrored Inverted-L included)
// x {cpu, gpu, hetero} x tile {0, 8}: at() and to_grid() equal the serial
// scan, and the table is counted once — what admission prices and what
// the table holds. The cpu column's tile 8 is the host tiled layer.
TEST(ResultTableTest, EveryBackingMatchesTheSerialScan) {
  for (int mask = 1; mask < 16; ++mask) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    for (const auto& [n, m] : shapes()) {
      const auto p = make_probe(deps, n, m);
      const Grid<int> ref = solve_cpu_serial(p, nullptr, nullptr);
      for (Mode mode : {Mode::kCpuParallel, Mode::kGpu,
                        Mode::kHeterogeneous}) {
        for (int tile : {0, 8}) {
          RunConfig cfg;
          cfg.mode = mode;
          if (mode == Mode::kCpuParallel && tile > 0) {
            cfg.mode = Mode::kCpuTiled;
            cfg.cpu_tile = static_cast<std::size_t>(tile);
          } else {
            cfg.tile = tile;
          }
          const std::string what =
              deps.to_string() + " " + to_string(classify(deps)) + " " +
              std::to_string(n) + "x" + std::to_string(m) + " " +
              to_string(cfg.mode) + " tile " + std::to_string(tile);
          const auto r = solve(p, cfg);
          EXPECT_FALSE(r.table.frontier()) << what;
          EXPECT_EQ(r.stats.pattern, classify(deps)) << what;
          expect_cells(r.table, ref, what);
          EXPECT_EQ(r.table.to_grid(), ref) << what;
          EXPECT_EQ(r.stats.peak_table_bytes,
                    detail::peak_table_bytes<Storage::kFull>(p, cfg))
              << what;
          EXPECT_EQ(r.stats.peak_table_bytes, n * m * sizeof(int)) << what;
          EXPECT_EQ(r.table.resident_bytes(), r.stats.peak_table_bytes)
              << what;
        }
      }
    }
  }
}

// The frontier tier's to_grid() rematerializes every band in canonical
// order and then applies the table's view.
TEST(ResultTableTest, FrontierToGridMatchesTheSerialScan) {
  for (int mask : {0b0001, 0b0011, 0b0101, 0b1000, 0b1001, 0b1010}) {
    const ContributingSet deps(static_cast<std::uint8_t>(mask));
    const auto p = make_probe(deps, 37, 29);
    const Grid<int> ref = solve_cpu_serial(p, nullptr, nullptr);
    for (Mode mode : {Mode::kCpuSerial, Mode::kGpu}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.storage = Storage::kFrontier;
      cfg.checkpoint_interval = 4;
      const auto r = solve_frontier(p, cfg);
      ASSERT_TRUE(r.table.frontier()) << deps.to_string();
      EXPECT_EQ(r.table.to_grid(), ref)
          << deps.to_string() << " " << to_string(mode);
    }
  }
}

// Full-tier reads touch no mutable state: several threads may read one
// table at once (the TSan job runs this).
TEST(ResultTableTest, ConcurrentReadsOfOneTable) {
  const problems::LevenshteinProblem p(problems::random_sequence(300, 4),
                                       problems::random_sequence(250, 5));
  const Grid<int> ref = solve_cpu_serial(p, nullptr, nullptr);
  RunConfig cfg;
  cfg.mode = Mode::kGpu;
  const auto r = solve(p, cfg);
  std::vector<std::future<bool>> readers;
  for (int t = 0; t < 4; ++t) {
    readers.push_back(std::async(std::launch::async, [&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < ref.rows();
           i += 4)
        for (std::size_t j = 0; j < ref.cols(); ++j)
          if (r.table.at(i, j) != ref.at(i, j)) return false;
      return true;
    }));
  }
  for (auto& f : readers) EXPECT_TRUE(f.get());
}

// A full-tier table owns its storage: no pointer into the solve's
// platform, device or the per-solve QuotaBufferPool (whose destructor
// checks that nothing is outstanding when the job returns). Device-mode
// requests through an engine with buffer quotas are read after wait()
// and again after the engine is destroyed.
TEST(ResultTableLifetime, FullTierTablesOutliveTheEngine) {
  const problems::LevenshteinProblem lev(problems::random_sequence(257, 8),
                                         problems::random_sequence(300, 9));
  const problems::FloydSteinbergProblem dither(
      problems::plasma_image(64, 90, 3));
  const Grid<int> lev_ref = solve_cpu_serial(lev, nullptr, nullptr);
  const Grid<problems::FsCell> dither_ref =
      solve_cpu_serial(dither, nullptr, nullptr);

  std::vector<SolveResult<problems::LevenshteinProblem>> lev_results;
  std::vector<SolveResult<problems::FloydSteinbergProblem>> dither_results;
  {
    BatchConfig bc;
    bc.concurrency = 2;
    bc.buffer_quota_bytes = 64 << 10;
    BatchEngine engine(bc);
    std::vector<std::future<SolveResult<problems::LevenshteinProblem>>> lf;
    std::vector<std::future<SolveResult<problems::FloydSteinbergProblem>>> df;
    for (Mode mode : {Mode::kGpu, Mode::kHeterogeneous}) {
      RunConfig rc;
      rc.mode = mode;
      for (int k = 0; k < 2; ++k) {
        auto f = engine.submit(lev, rc);
        ASSERT_TRUE(f.has_value());
        lf.push_back(std::move(*f));
        auto g = engine.submit(dither, rc);
        ASSERT_TRUE(g.has_value());
        df.push_back(std::move(*g));
      }
    }
    const BatchReport rep = engine.wait();
    EXPECT_EQ(rep.ok_solves, lf.size() + df.size());
    for (auto& f : lf) lev_results.push_back(f.get());
    for (auto& f : df) dither_results.push_back(f.get());
    for (const auto& r : lev_results) expect_cells(r.table, lev_ref, "lev");
  }
  for (const auto& r : lev_results) {
    expect_cells(r.table, lev_ref, "lev after the engine");
    EXPECT_EQ(r.table.to_grid(), lev_ref);
  }
  for (const auto& r : dither_results) {
    ASSERT_EQ(r.table.rows(), dither_ref.rows());
    for (std::size_t i = 0; i < dither_ref.rows(); ++i)
      for (std::size_t j = 0; j < dither_ref.cols(); ++j) {
        ASSERT_EQ(r.table.at(i, j).out, dither_ref.at(i, j).out);
        ASSERT_EQ(r.table.at(i, j).err, dither_ref.at(i, j).err);
      }
  }
}

}  // namespace
}  // namespace lddp
