// Shared harness for the figure/table reproduction benches.
//
// Headline metric: *simulated* platform time (deterministic, reproduces
// the paper's Hetero-High / Hetero-Low testbeds); reported to
// google-benchmark as manual time so its output reads in simulated
// seconds. Real host wall-clock is attached as a counter. Each benchmark
// runs exactly one iteration — the simulation is deterministic, repetition
// adds nothing.
#pragma once

#include <benchmark/benchmark.h>

#include <climits>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/framework.h"
#include "core/tuner.h"
#include "util/csv.h"
#include "util/stopwatch.h"

#ifndef LDDP_GIT_SHA
#define LDDP_GIT_SHA "unknown"
#endif
#ifndef LDDP_CXX_FLAGS
#define LDDP_CXX_FLAGS "unknown"
#endif

namespace lddp::bench {

/// Pins the glibc allocator for wall-clock benches. Without this, each
/// rep's multi-megabyte DP tables are handed back to the kernel on free
/// (heap trim, or munmap of mmap'd chunks) and soft-faulted back in on
/// the next rep — ~1.5 us per 4 KiB page, which adds a constant
/// ~13 ms to BOTH arms of an 8x4 MB ablation and flattens every real
/// speedup toward 1x. Raising the trim and mmap thresholds keeps freed
/// pages resident in the arena, so warmed reps measure compute rather
/// than the VM subsystem. No-op on non-glibc platforms.
inline void stabilize_allocator() {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 64 * 1024 * 1024);
#endif
}

/// Machine-readable results sink: collects one record per measured
/// configuration and writes `BENCH_<name>.json` on save() — a flat array
/// downstream tooling (plots, regression gates) can consume without
/// parsing google-benchmark console output. Every file carries a
/// `build` stanza (compiler, flags, git SHA, batch-kernel default) so
/// wall-clock numbers from different toolchains are never compared
/// blindly.
class JsonWriter {
 public:
  explicit JsonWriter(std::string name) : name_(std::move(name)) {}

  /// Minimal JSON string escaping for compiler/flag strings.
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  /// `label` identifies the configuration (platform/mode/variant); `size`
  /// is the table side; times are in milliseconds of simulated platform
  /// time and real host wall-clock respectively.
  void record(const std::string& label, std::size_t size,
              double simulated_ms, double wall_ms) {
    rows_.push_back(Row{label, size, simulated_ms, wall_ms});
  }

  void record(const std::string& label, std::size_t size,
              const SolveStats& stats) {
    record(label, size, stats.sim_seconds * 1e3, stats.real_seconds * 1e3);
  }

  /// Wall-clock-only record for benches with no simulated timeline (e.g.
  /// host-side throughput ablations). Emits no `simulated_ms` field —
  /// previously such rows carried a misleading `"simulated_ms": 0.000000`.
  /// `rate` > 0 additionally records achieved throughput under the field
  /// name `rate_name` (cells/s by default).
  void record_wall(const std::string& label, std::size_t size, double wall_ms,
                   double rate = 0.0, const char* rate_name = "cells_per_s") {
    Row r{label, size, 0.0, wall_ms};
    r.has_sim = false;
    r.rate = rate;
    r.rate_name = rate_name;
    rows_.push_back(r);
  }

  /// Simulated-time-only record for benches that never measure host
  /// wall-clock per row (e.g. merged batch schedules). Emits no `wall_ms`
  /// field — previously such rows carried a bogus `"wall_ms": 0.000000`
  /// that downstream tooling could mistake for a measurement.
  void record_sim(const std::string& label, std::size_t size,
                  double simulated_ms) {
    Row r{label, size, simulated_ms, 0.0};
    r.has_wall = false;
    rows_.push_back(r);
  }

  /// Writes BENCH_<name>.json in the current working directory.
  void save() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    // Hardware context rides along with the toolchain stanza: wall-clock
    // rows (and especially executor ablations) are meaningless without
    // the core count they ran on.
    std::fprintf(f,
                 "  \"build\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
                 "\"git_sha\": \"%s\", \"batch_kernels_default\": %s, "
                 "\"hardware_concurrency\": %u, "
                 "\"executor_workers\": %zu},\n",
                 json_escape(__VERSION__).c_str(),
                 json_escape(LDDP_CXX_FLAGS).c_str(), LDDP_GIT_SHA,
                 RunConfig{}.batch_kernels ? "true" : "false",
                 std::thread::hardware_concurrency(),
                 std::size_t{1} + cpu::shared_executor_workers());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"size\": %zu",
                   r.label.c_str(), r.size);
      if (r.has_sim)
        std::fprintf(f, ", \"simulated_ms\": %.6f", r.simulated_ms);
      if (r.has_wall) std::fprintf(f, ", \"wall_ms\": %.6f", r.wall_ms);
      if (r.rate > 0.0)
        std::fprintf(f, ", \"%s\": %.0f", r.rate_name, r.rate);
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string label;
    std::size_t size;
    double simulated_ms;
    double wall_ms;
    double rate = 0.0;
    const char* rate_name = "cells_per_s";
    bool has_sim = true;
    bool has_wall = true;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// Best-of-N wall-clock measurement: runs `fn` `warmup` times untimed
/// (caches, allocators, thread pools), then `reps` timed repetitions and
/// returns the minimum in seconds — the standard estimator for host
/// wall-clock, which is noisy upward only.
template <typename Fn>
double min_wall_seconds(Fn&& fn, int reps = 3, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = -1.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    const double s = sw.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

/// Solves once and feeds the simulated time to google-benchmark.
template <typename P>
SolveStats run_once(benchmark::State& state, const P& problem,
                    const RunConfig& cfg) {
  SolveStats stats;
  for (auto _ : state) {
    auto result = solve(problem, cfg);
    benchmark::DoNotOptimize(result.table);
    stats = result.stats;
    state.SetIterationTime(stats.sim_seconds);
  }
  state.counters["sim_ms"] = stats.sim_seconds * 1e3;
  state.counters["real_ms"] = stats.real_seconds * 1e3;
  state.counters["cpu_busy_ms"] = stats.cpu_busy_seconds * 1e3;
  state.counters["gpu_busy_ms"] = stats.gpu_busy_seconds * 1e3;
  state.counters["h2d_KB"] = static_cast<double>(stats.h2d_bytes) / 1024.0;
  state.counters["d2h_KB"] = static_cast<double>(stats.d2h_bytes) / 1024.0;
  return stats;
}

inline RunConfig config_for(const std::string& platform_name, Mode mode) {
  RunConfig cfg;
  cfg.platform = platform_name == "Hetero-Low"
                     ? sim::PlatformSpec::hetero_low()
                     : sim::PlatformSpec::hetero_high();
  cfg.mode = mode;
  return cfg;
}

/// The three implementations every case-study figure compares.
inline const char* mode_label(Mode m) {
  switch (m) {
    case Mode::kCpuParallel:
      return "CPU";
    case Mode::kGpu:
      return "GPU";
    case Mode::kHeterogeneous:
      return "Framework";
    default:
      return "?";
  }
}

/// Prints (and CSV-dumps) a case-study figure: one row per table size, one
/// column per (platform, implementation) pair — the layout of the paper's
/// Figs 9, 10, 12 and 13.
template <typename Factory>
void case_study_series(const char* title, const char* csv_path,
                       const std::vector<std::size_t>& sizes,
                       Factory&& make_problem) {
  std::printf("\n=== %s (simulated ms) ===\n", title);
  std::printf("%8s | %10s %10s %10s | %10s %10s %10s\n", "size", "High/CPU",
              "High/GPU", "High/Frm", "Low/CPU", "Low/GPU", "Low/Frm");
  CsvWriter csv(csv_path);
  csv.header({"size", "high_cpu_ms", "high_gpu_ms", "high_framework_ms",
              "low_cpu_ms", "low_gpu_ms", "low_framework_ms"});
  for (std::size_t n : sizes) {
    const auto problem = make_problem(n);
    double t[6];
    int k = 0;
    for (const char* platform : {"Hetero-High", "Hetero-Low"}) {
      for (Mode mode :
           {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
        const RunConfig cfg = config_for(platform, mode);
        t[k++] = solve(problem, cfg).stats.sim_seconds * 1e3;
      }
    }
    std::printf("%8zu | %10.3f %10.3f %10.3f | %10.3f %10.3f %10.3f\n", n,
                t[0], t[1], t[2], t[3], t[4], t[5]);
    csv.row(n, t[0], t[1], t[2], t[3], t[4], t[5]);
  }
  csv.save();
}

}  // namespace lddp::bench
