// solo-table: back-to-back solve() calls returning the full row-major Grid,
// the default library path, over the paper's CPU / GPU / Framework triple.
#include "cases.h"
#include "ops.h"
#include "util/rng.h"

namespace perfbench {

void add_solo_table_cases(Workload& w, std::uint64_t seed) {
  using namespace lddp::problems;
  lddp::Rng rng(seed ^ 0x7ab1e5eedull);
  // Rows grow by a seeded 0..31 so every seed prices a different table on
  // both clocks; columns stay fixed, because the row stride sets the
  // cache-set aliasing of diagonal walks and front windows, which differs
  // from one width to the next.
  auto rows = [&rng](std::size_t base) {
    return base + static_cast<std::size_t>(rng.uniform_int(0, 31));
  };
  const std::size_t la = rows(4096);
  const std::uint64_t sa = rng(), sb = rng();
  w.cases.push_back(std::make_unique<CaseImpl<LevOps>>(
      LevenshteinProblem(random_sequence(la, sa), random_sequence(4096, sb)),
      false));
  const std::size_t cr = rows(4096);
  w.cases.push_back(std::make_unique<CaseImpl<CheckerboardOps>>(
      CheckerboardProblem(random_cost_board(cr, 4096, rng())), false));
  const std::size_t dr = rows(2048);
  w.cases.push_back(std::make_unique<CaseImpl<DitherOps>>(
      FloydSteinbergProblem(plasma_image(dr, 2048, rng())), false));
  // One request per case x mode, in a fixed order (the seed draws
  // contents and shapes only). The cheapest kind (checkerboard cpu,
  // ~70 ms) and the dearest (levenshtein cpu, ~500 ms) run twice per
  // cycle: with nine equal weights p90 sits on the lower edge of the
  // slowest kind and jumps ~2x when one sample moves; with
  // these weights p50 and p90 both fall inside one kind's latency cluster.
  for (std::size_t c = 0; c < w.cases.size(); ++c)
    for (lddp::Mode m : {lddp::Mode::kCpuParallel, lddp::Mode::kGpu,
                         lddp::Mode::kHeterogeneous}) {
      w.cycle.push_back(Request{c, m});
      if (c != 2 && m == lddp::Mode::kCpuParallel)
        w.cycle.push_back(Request{c, m});
    }
}

}  // namespace perfbench
