// solo-frontier: back-to-back solve_frontier() calls at default storage,
// each followed by the problem's traceback (or value read).
#include "cases.h"
#include "ops.h"
#include "util/rng.h"

namespace perfbench {

void add_solo_frontier_cases(Workload& w, std::uint64_t seed) {
  using namespace lddp::problems;
  lddp::Rng rng(seed ^ 0xf20ae5eedull);
  // Rows grow by a seeded 0..31; columns stay fixed (see solo_table.cpp).
  auto rows = [&rng](std::size_t base) {
    return base + static_cast<std::size_t>(rng.uniform_int(0, 31));
  };
  auto seq = [&](std::size_t len) { return random_sequence(len, rng()); };
  {
    const std::size_t la = rows(4096);
    std::string a = seq(la), b = seq(4096);
    w.cases.push_back(std::make_unique<CaseImpl<NwOps>>(
        NeedlemanWunschProblem(std::move(a), std::move(b)), true));
  }
  {
    const std::size_t la = rows(4096);
    std::string a = seq(la), b = seq(4096);
    w.cases.push_back(std::make_unique<CaseImpl<GotohOps>>(
        GotohProblem(std::move(a), std::move(b)), true));
  }
  {
    const std::size_t r = rows(4096);
    w.cases.push_back(std::make_unique<CaseImpl<SeamOps>>(
        SeamCarveProblem(dual_gradient_energy(plasma_image(r, 4096, rng()))),
        true));
  }
  {
    const std::size_t la = rows(4096);
    std::string a = seq(la), b = seq(4096);
    w.cases.push_back(std::make_unique<CaseImpl<LevOps>>(
        LevenshteinProblem(std::move(a), std::move(b)), true));
  }
  // One request per case x mode, in a fixed order; the gotoh requests run
  // twice per cycle. With twelve equal weights p50 falls exactly on the gap
  // between the ~30 ms kinds (levenshtein, seam) and the ~300 ms ones
  // (gotoh, nw) and jumps 10x with one sample; doubling gotoh puts p50
  // inside the compute-bound gotoh cluster (the memory-bound seam cluster
  // swings 2x with host load) and p90 inside the nw cluster.
  for (std::size_t c = 0; c < w.cases.size(); ++c)
    for (lddp::Mode m : {lddp::Mode::kCpuParallel, lddp::Mode::kGpu,
                         lddp::Mode::kHeterogeneous}) {
      w.cycle.push_back(Request{c, m});
      if (c == 1) w.cycle.push_back(Request{c, m});
    }
}

}  // namespace perfbench
