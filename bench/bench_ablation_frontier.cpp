// Ablation: frontier (checkpointed linear-space) storage versus the
// classic full table. Both measurements are *real wall-clock* — the
// storage tier changes how the host fills and reads tables, not the
// simulated platform schedule.
//
// Three measurements, all gated (the process exits non-zero on failure so
// CI catches regressions):
//
//  1. Value-only throughput: 4k x 4k Levenshtein and LCS, serial host
//     fill, best of 5. The full tier streams the whole O(n^2) grid
//     through memory (first-touch faults + write bandwidth); the
//     frontier tier's working set is two rolling rows plus checkpoint
//     harvests. Gate: frontier >= 1.3x cells/second at n >= 4096.
//  2. Traceback end-to-end: solve + alignment traceback (NW linear-gap
//     and Gotoh affine-gap — monotone backward walks, each band
//     rematerialized at most once). At the default K ~ sqrt(rows) the
//     walk recomputes about half the table into L2-resident band
//     scratch. Gate: frontier no slower than 1.15x full end-to-end.
//  3. Value-only throughput on the parallel CPU path (Mode::kCpuParallel):
//     4k x 4k Levenshtein and 2k x 2k Floyd-Steinberg dithering, best of
//     5, both tiers in the same run. The full tier fills a front-major
//     table that the result keeps as it is (nothing is unpacked into a
//     row-major grid), so its wall-clock should stay near the frontier
//     tier's. Gate: full no slower than 1.5x frontier.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/floyd_steinberg.h"
#include "problems/gotoh.h"
#include "problems/image.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"

namespace {

using namespace lddp;

int failures = 0;

/// What a pair's gate requires of the two tiers' wall-clock.
enum class Gate {
  kFrontierFaster,    ///< full / frontier >= limit
  kFrontierNotSlower, ///< frontier <= limit x full
  kFullNotSlower,     ///< full <= limit x frontier
};

/// Best-of-5 wall-clock for one storage tier in `mode`; returns seconds.
/// `reader` consumes the result each rep (the traceback, or a corner probe
/// for value-only runs) so the work cannot be optimized away.
template <typename P, typename Reader>
double best_wall(const P& p, Mode mode, Storage storage, Reader&& reader) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.storage = storage;
  return lddp::bench::min_wall_seconds(
      [&] {
        const auto r = solve_frontier(p, cfg);
        benchmark::DoNotOptimize(reader(r.table));
      },
      /*reps=*/5, /*warmup=*/1);
}

template <typename P, typename Reader>
void gated_pair(const char* name, std::size_t n, const P& p, Mode mode,
                double limit_ratio, Gate gate, lddp::bench::JsonWriter& json,
                Reader&& reader) {
  const double cells = static_cast<double>(p.rows()) * p.cols();
  const double full_s = best_wall(p, mode, Storage::kFull, reader);
  const double fr_s = best_wall(p, mode, Storage::kFrontier, reader);
  const double speedup = full_s / fr_s;
  std::printf("%-16s %6zu | full %8.1f ms | frontier %8.1f ms | %.2fx\n",
              name, n, full_s * 1e3, fr_s * 1e3, speedup);
  json.record_wall(std::string(name) + "/full", n, full_s * 1e3,
                   cells / full_s);
  json.record_wall(std::string(name) + "/frontier", n, fr_s * 1e3,
                   cells / fr_s);
  if (gate == Gate::kFrontierFaster && speedup < limit_ratio) {
    std::fprintf(stderr,
                 "GATE FAIL: %s frontier speedup %.2fx < %.2fx\n", name,
                 speedup, limit_ratio);
    ++failures;
  }
  if (gate == Gate::kFrontierNotSlower && fr_s > full_s * limit_ratio) {
    std::fprintf(stderr,
                 "GATE FAIL: %s frontier %.2fx slower than full "
                 "(limit %.2fx)\n",
                 name, fr_s / full_s, limit_ratio);
    ++failures;
  }
  if (gate == Gate::kFullNotSlower && full_s > fr_s * limit_ratio) {
    std::fprintf(stderr,
                 "GATE FAIL: %s full %.2fx slower than frontier "
                 "(limit %.2fx)\n",
                 name, full_s / fr_s, limit_ratio);
    ++failures;
  }
}

}  // namespace

int main() {
  lddp::bench::stabilize_allocator();
  lddp::bench::JsonWriter json("ablation_frontier");
  constexpr std::size_t kN = 4096;

  std::printf("=== Value-only host fill: full vs frontier storage "
              "(serial, best of 5; gate: frontier >= 1.3x) ===\n");
  {
    problems::LevenshteinProblem p(problems::random_sequence(kN, 1),
                                   problems::random_sequence(kN, 2));
    gated_pair("levenshtein", kN, p, Mode::kCpuSerial, 1.3,
               Gate::kFrontierFaster, json,
               [&](const auto& t) { return t.at(kN, kN); });
  }
  {
    problems::LcsProblem p(problems::random_sequence(kN, 3),
                           problems::random_sequence(kN, 4));
    gated_pair("lcs", kN, p, Mode::kCpuSerial, 1.3, Gate::kFrontierFaster,
               json, [&](const auto& t) { return t.at(kN, kN); });
  }

  std::printf("\n=== Solve + traceback end-to-end: full vs frontier at "
              "default K (gate: frontier <= 1.15x slower) ===\n");
  {
    problems::NeedlemanWunschProblem p(problems::random_sequence(kN, 5),
                                       problems::random_sequence(kN, 6));
    gated_pair("nw_traceback", kN, p, Mode::kCpuSerial, 1.15,
               Gate::kFrontierNotSlower, json,
               [&](const auto& t) {
                 return problems::nw_traceback(p, t).score;
               });
  }
  {
    problems::GotohProblem p(problems::random_sequence(kN, 7),
                             problems::random_sequence(kN, 8));
    gated_pair("gotoh_traceback", kN, p, Mode::kCpuSerial, 1.15,
               Gate::kFrontierNotSlower, json,
               [&](const auto& t) {
                 return problems::gotoh_traceback(p, t).score;
               });
  }

  std::printf("\n=== Value-only parallel CPU fill: full vs frontier "
              "storage (best of 5; gate: full <= 1.5x frontier) ===\n");
  {
    problems::LevenshteinProblem p(problems::random_sequence(kN, 1),
                                   problems::random_sequence(kN, 2));
    gated_pair("levenshtein_cpu", kN, p, Mode::kCpuParallel, 1.5,
               Gate::kFullNotSlower, json,
               [&](const auto& t) { return t.at(kN, kN); });
  }
  {
    constexpr std::size_t kDither = 2048;
    problems::FloydSteinbergProblem p(
        problems::plasma_image(kDither, kDither, 1));
    gated_pair("dither_cpu", kDither, p, Mode::kCpuParallel, 1.5,
               Gate::kFullNotSlower, json, [&](const auto& t) {
                 return t.at(kDither - 1, kDither - 1).out;
               });
  }

  // Footprint context for the numbers above (not gated): resident bytes
  // of each tier at this size.
  {
    problems::LevenshteinProblem p(problems::random_sequence(kN, 1),
                                   problems::random_sequence(kN, 2));
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    cfg.storage = Storage::kFrontier;
    const auto r = solve_frontier(p, cfg);
    std::printf("\nfootprint: full %.1f MiB vs frontier peak %.2f MiB "
                "(K=%zu, %zu checkpoint rows)\n",
                static_cast<double>(p.rows() * p.cols() *
                                    sizeof(std::int32_t)) /
                    (1 << 20),
                static_cast<double>(r.stats.peak_table_bytes) / (1 << 20),
                r.stats.checkpoint_interval, r.stats.checkpoint_rows);
  }

  json.save();
  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
