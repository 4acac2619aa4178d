// Storage-tier parity of simulated time: the full tier (FullStore) and the
// frontier tier (WindowStore) run the same strategy with the same
// schedule, so the frontier timeline is the full timeline plus one pinned
// download labelled "frontier.halo" after each front with GPU-computed
// cells. For every contributing set whose canonical pattern is
// anti-diagonal, horizontal, vertical or knight-move, in the cpu, gpu and
// hetero modes (hetero also at a t_switch/t_share small enough to split
// the smallest shapes), over degenerate and ragged shapes and two
// checkpoint intervals:
//   * the frontier timeline minus its halo ops equals the full timeline
//     op for op — resource, label and duration;
//   * CPU busy and GPU compute busy are equal across tiers;
//   * sim_full <= sim_frontier <= sim_full + the halos' total duration.
//
// Named exception, not covered here: Inverted-L (and its mirror). Its
// full tier keeps the paper's row-major storage with strided column
// pricing, while its frontier tier runs the CPU and GPU strategies over a
// coalesced ShellLayout window; the heterogeneous shell split has no
// window form at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/framework.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

using V = std::uint64_t;

constexpr const char* kHalo = "frontier.halo";

auto make_probe(int mask, std::size_t rows, std::size_t cols) {
  const ContributingSet deps(static_cast<std::uint8_t>(mask));
  return problems::make_function_problem<V>(
      rows, cols, deps, /*bound=*/0x9e3779b97f4a7c15ULL,
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

struct TierRun {
  sim::Timeline timeline;
  SolveStats stats;
};

template <typename P>
TierRun solve_tier(const P& p, RunConfig cfg, Storage storage,
                   std::size_t K) {
  TierRun r;
  cfg.storage = storage;
  cfg.checkpoint_interval = K;
  cfg.record_timeline = &r.timeline;
  r.stats = solve_frontier(p, cfg).stats;
  return r;
}

void expect_parity(const TierRun& full, const TierRun& front,
                   const std::string& what) {
  const sim::Timeline& a = full.timeline;
  const sim::Timeline& b = front.timeline;
  double halo_seconds = 0.0;
  sim::OpId ia = 0;
  for (sim::OpId ib = 0; ib < b.op_count(); ++ib) {
    if (std::strcmp(b.op_label(ib), kHalo) == 0) {
      EXPECT_EQ(b.resource_name(b.op_resource(ib)), "gpu.copy.d2h") << what;
      halo_seconds += b.op_duration(ib);
      continue;
    }
    ASSERT_LT(ia, a.op_count()) << what << ": extra frontier op " << ib;
    EXPECT_EQ(a.resource_name(a.op_resource(ia)),
              b.resource_name(b.op_resource(ib)))
        << what << " op " << ia;
    EXPECT_STREQ(a.op_label(ia), b.op_label(ib)) << what << " op " << ia;
    EXPECT_NEAR(a.op_duration(ia), b.op_duration(ib), 1e-12)
        << what << " op " << ia;
    ++ia;
  }
  EXPECT_EQ(ia, a.op_count()) << what << ": frontier timeline is short";
  for (sim::OpId op = 0; op < a.op_count(); ++op)
    EXPECT_STRNE(a.op_label(op), kHalo) << what << ": halo on the full tier";

  EXPECT_EQ(full.stats.cpu_busy_seconds, front.stats.cpu_busy_seconds)
      << what;
  EXPECT_EQ(full.stats.gpu_busy_seconds, front.stats.gpu_busy_seconds)
      << what;
  EXPECT_LE(full.stats.sim_seconds, front.stats.sim_seconds) << what;
  EXPECT_LE(front.stats.sim_seconds,
            full.stats.sim_seconds + halo_seconds + 1e-12)
      << what;
}

class StorageParityTest : public ::testing::TestWithParam<int> {};

TEST_P(StorageParityTest, FrontierIsFullPlusHalos) {
  const int mask = GetParam();
  const std::size_t shapes[][2] = {
      {1, 1}, {5, 11}, {23, 8}, {64, 64}, {130, 200}};
  for (const auto& shape : shapes) {
    const auto p = make_probe(mask, shape[0], shape[1]);
    for (const Mode mode :
         {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
      std::vector<HeteroParams> splits = {HeteroParams{}};
      if (mode == Mode::kHeterogeneous) splits.push_back(HeteroParams{4, 16});
      for (const HeteroParams& split : splits) {
        RunConfig cfg;
        cfg.mode = mode;
        cfg.hetero = split;
        const TierRun full = solve_tier(p, cfg, Storage::kFull, 0);
        for (const std::size_t K : {std::size_t{0}, std::size_t{3}}) {
          const TierRun front = solve_tier(p, cfg, Storage::kFrontier, K);
          expect_parity(full, front,
                        std::to_string(shape[0]) + "x" +
                            std::to_string(shape[1]) + " " + to_string(mode) +
                            " split=" + std::to_string(split.t_switch) + "/" +
                            std::to_string(split.t_share) +
                            " K=" + std::to_string(K));
        }
      }
    }
  }
}

std::vector<int> window_masks() {
  std::vector<int> masks;
  for (int mask = 1; mask <= 15; ++mask) {
    const Pattern pattern =
        classify(ContributingSet(static_cast<std::uint8_t>(mask)));
    if (pattern != Pattern::kInvertedL &&
        pattern != Pattern::kMirroredInvertedL)
      masks.push_back(mask);
  }
  return masks;
}

INSTANTIATE_TEST_SUITE_P(
    Sets, StorageParityTest, ::testing::ValuesIn(window_masks()),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          ContributingSet(static_cast<std::uint8_t>(info.param)).to_string();
      for (char& ch : name)
        if (ch == '+') ch = '_';
      return name;
    });

}  // namespace
}  // namespace lddp
