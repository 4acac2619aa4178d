// batch-mixed: one long-lived BatchEngine driven in waves of 32 requests —
// the only workload where lane cohorts, the stealing executor, admission
// and the timeline merge do most of the work.
#include "cases.h"
#include "ops.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kWaves = 4;  // distinct waves in one cycle

/// k-th of `count` stratified draws over [lo, hi]: every wave spans the
/// whole range, so the size mix (and its cost) barely moves with the seed.
std::size_t stratified(lddp::Rng& rng, std::size_t k, std::size_t count,
                       std::size_t lo, std::size_t hi) {
  const double u = (static_cast<double>(k) + rng.uniform01()) /
                   static_cast<double>(count);
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo));
}

}  // namespace

void add_batch_cases(Workload& w, std::uint64_t seed) {
  using namespace lddp::problems;
  using lddp::Mode;
  lddp::Rng rng(seed ^ 0xba7c4ed5eedull);
  w.wave = 32;
  auto seq = [&](std::size_t len) { return random_sequence(len, rng()); };
  // The wave layout is fixed: one horizontal table every 8 slots (3, 11,
  // 19, 27), one gpu/hetero request every 8 (7, 15, 23, 31), lane-eligible
  // requests between them. The seed draws contents and jitters sizes within
  // fixed strata, so every seed queues the same mix in the same order (a
  // seeded order would change lane-cohort formation from seed to seed).
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::size_t lane = 0, device = 0;
    for (std::size_t slot = 0; slot < w.wave; ++slot) {
      const std::size_t index = w.cases.size();
      if (slot % 8 == 3) {
        // Horizontal cpu tables above the lane cap (~1024 x 4096 cells).
        const std::size_t r =
            1024 + static_cast<std::size_t>(rng.uniform_int(0, 63));
        const std::size_t c =
            4096 - static_cast<std::size_t>(rng.uniform_int(0, 63));
        w.cases.push_back(std::make_unique<CaseImpl<CheckerboardOps>>(
            CheckerboardProblem(random_cost_board(r, c, rng())), false));
        w.cycle.push_back(Request{index, Mode::kCpuParallel});
      } else if (slot % 8 == 7) {
        // gpu / hetero requests at 512..1024.
        const std::size_t k = device++;
        const std::size_t s = stratified(rng, (k + wave) % 4, 4, 512, 1024);
        const std::size_t t = stratified(rng, (k + 2 * wave + 1) % 4, 4, 512,
                                         1024);
        const Mode m = k % 2 == 0 ? Mode::kGpu : Mode::kHeterogeneous;
        if (k < 2) {
          std::string a = seq(s), b = seq(t);
          w.cases.push_back(std::make_unique<CaseImpl<LevOps>>(
              LevenshteinProblem(std::move(a), std::move(b)), false));
        } else {
          w.cases.push_back(std::make_unique<CaseImpl<CheckerboardOps>>(
              CheckerboardProblem(random_cost_board(s, t, rng())), false));
        }
        w.cycle.push_back(Request{index, m});
      } else {
        // Lane-eligible lev/lcs at 256..1024 in cpu mode, half through
        // submit_frontier; the strata permutations differ per wave.
        const std::size_t l = lane++;
        const std::size_t la = stratified(rng, (7 * l + 5 * wave) % 24, 24,
                                          256, 1024);
        const std::size_t lb = stratified(rng, (11 * l + 3 * wave) % 24, 24,
                                          256, 1024);
        std::string a = seq(la), b = seq(lb);
        const bool frontier = (l / 2) % 2 == 1;
        if (l % 2 == 0)
          w.cases.push_back(std::make_unique<CaseImpl<LevOps>>(
              LevenshteinProblem(std::move(a), std::move(b)), frontier));
        else
          w.cases.push_back(std::make_unique<CaseImpl<LcsOps>>(
              LcsProblem(std::move(a), std::move(b)), frontier));
        w.cycle.push_back(Request{index, Mode::kCpuParallel});
      }
    }
  }
}

}  // namespace perfbench
