// lddp_cli — run any bundled LDDP-Plus problem from the command line:
// choose the problem, execution mode, platform, size, split parameters, or
// let the tuner pick them; optionally dump a chrome://tracing schedule.
//
//   lddp_cli --problem levenshtein --size 4096 --mode hetero
//   lddp_cli --problem checkerboard --size 2048 --platform low --tune
//   lddp_cli --problem dither --size 1024 --trace dither.trace.json
//   lddp_cli --problem gotoh --size 1000 --mode gpu
//   lddp_cli --list
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/framework3.h"
#include "core/multi.h"
#include "core/tuner.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"
#include "problems/dtw.h"
#include "problems/floyd_steinberg.h"
#include "problems/gotoh.h"
#include "problems/lcs.h"
#include "problems/lcs3.h"
#include "problems/levenshtein.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "util/flags.h"

namespace {

using namespace lddp;

constexpr const char* kUsage = R"(usage: lddp_cli [flags]
  --problem NAME   levenshtein | lcs | lcs3 | nw | sw | gotoh | dtw
                   | checkerboard | columnmin | dither | seam | minnwn
                   | maxnw   (required)
  --size N         table side (default 1024)
  --mode M         serial | cpu | tiled | gpu | hetero | auto (default hetero)
  --platform P     high | low | phi (default high)
  --t-switch N     low-work fronts per end (default: model heuristic)
  --t-share N      CPU strip width in cells (default: model heuristic)
  --tile N         tile side: --mode tiled (default 64); gpu/hetero run
                   the tile-granular layer (0 = untiled default, -1 =
                   model-picked side)
  --seed N         workload seed (default 1)
  --band N         Sakoe-Chiba band for dtw (default 0 = off)
  --devices N      CPU + N copies of the platform's accelerator via the
                   multi-device strategy (horizontal problems only)
  --trace FILE     write the simulated schedule as chrome://tracing JSON
  --batch N        submit the request N times through the batch engine and
                   report merged-schedule throughput (default 1 = off)
  --sched S        batch scheduler: fifo | sjf | wfq (default fifo)
  --concurrency N  simulated in-flight solve slots for --batch (default 4)
  --batch-mix [SPEC]
                   rotate request configs across the batch. Bare flag keeps
                   the default cpu -> gpu -> hetero rotation; SPEC is a
                   comma list of per-request overrides MODE[:tile=N], e.g.
                   --batch-mix gpu:tile=8,hetero:tile=-1,cpu
  --batch-kernels on|off
                   vectorized batch-front cell kernels: compute interior
                   runs of each front in one SIMD call over packed
                   neighbour spans (default on; results are bit-identical,
                   off restores the scalar per-cell path exactly)
  --pack on|off    cross-solve packing for --batch: fuse co-ready GPU
                   fronts of in-flight solves into shared packed launches
                   (default on; results are bit-identical)
  --lane-pack on|off|N
                   inter-solve SIMD lane packing for --batch: execute
                   cohorts of same-class small CPU solves in vector
                   lockstep, one lane per solve. on (default) caps
                   cohorts at the active ISA's lane width (8 with AVX2,
                   else 4); N caps at N lanes; off disables. Results are
                   bit-identical to solo solves
  --deadline-ms MS per-request *simulated-time* deadline for --batch
                   requests (deterministic: independent of host load;
                   default 0 = none)
  --retries N      per-request retry budget for --batch: each retry walks
                   one rung down the degradation ladder (fused -> unfused
                   -> untiled -> scalar -> serial reference) with
                   deterministic simulated backoff (default 0)
  --chaos SEED[:RATE]
                   arm deterministic fault injection for --batch: every
                   injection site fails with probability RATE (default
                   0.02) as a pure function of (SEED, site, solve,
                   attempt), so failures replay bit-identically
  --storage S      table storage tier: full | frontier | auto. frontier
                   keeps the live front window + checkpoint rows every K
                   fronts and rematerializes bands on demand for reads
                   (bit-identical answers, O(n*K) transient memory); auto
                   lets the model pick. Omitted = the classic full table
  --checkpoint-k N checkpoint interval for --storage frontier/auto
                   (default 0 = ~sqrt(rows), clamped [4, 512])
  --mem-budget B   admission budget (bytes) on co-running solves' table
                   memory for --batch (default 0 = unlimited)
  --mem-stats      print memory observability: per-solve peak table bytes
                   and remat counters; with --batch also the in-flight
                   high-water and shared-arena hit/miss counters
  --tune           run the Section V-A parameter sweeps first; with
                   --batch, tunes through the shared cross-solve cache
  --list           list problems and exit
)";

Mode parse_mode(const std::string& s) {
  if (s == "serial") return Mode::kCpuSerial;
  if (s == "cpu") return Mode::kCpuParallel;
  if (s == "tiled") return Mode::kCpuTiled;
  if (s == "gpu") return Mode::kGpu;
  if (s == "hetero") return Mode::kHeterogeneous;
  if (s == "auto") return Mode::kAuto;
  throw CheckError("unknown --mode '" + s + "'");
}

sim::PlatformSpec parse_platform(const std::string& s) {
  if (s == "high") return sim::PlatformSpec::hetero_high();
  if (s == "low") return sim::PlatformSpec::hetero_low();
  if (s == "phi") return sim::PlatformSpec::hetero_phi();
  throw CheckError("unknown --platform '" + s + "'");
}

BatchSched parse_sched(const std::string& s) {
  if (s == "fifo") return BatchSched::kFifo;
  if (s == "sjf") return BatchSched::kSjf;
  if (s == "wfq") return BatchSched::kWfq;
  throw CheckError("unknown --sched '" + s + "'");
}

struct Report {
  SolveStats stats;
  std::string answer;
};

int g_devices = 1;  // set from --devices before dispatch
int g_batch = 1;    // --batch: replicate the request through BatchEngine
BatchConfig g_batch_cfg;
bool g_use_frontier = false;  // --storage frontier|auto given
bool g_mem_stats = false;     // --mem-stats

Storage parse_storage(const std::string& s) {
  if (s == "full") return Storage::kFull;
  if (s == "frontier") return Storage::kFrontier;
  if (s == "auto") return Storage::kAuto;
  throw CheckError("unknown --storage '" + s + "'");
}

/// --mem-stats footprint line for one frontier-capable table. Printed
/// after the answer is computed so remat counters include its reads.
template <typename V>
void print_table_mem(const FrontierTable<V>& t, const SolveStats& s) {
  std::printf("memory: peak table %.2f MiB (resident %.2f MiB)",
              static_cast<double>(s.peak_table_bytes) / (1 << 20),
              static_cast<double>(t.resident_bytes()) / (1 << 20));
  if (t.frontier()) {
    const auto& rs = t.remat_stats();
    std::printf(" | K=%zu (%zu checkpoint rows) | remat: %zu band(s), "
                "%zu rows, %zu cells",
                t.checkpoint_interval(), t.checkpoint_row_count(), rs.bands,
                rs.rows, rs.cells);
  }
  std::printf("\n");
}

/// Full-table fallback: the solve already recorded the host grid (plus
/// any wavefront-contiguous device copy) high-water in stats.
template <typename T>
void print_table_mem(const T&, const SolveStats& s) {
  std::printf("memory: peak table %.2f MiB (full storage)\n",
              static_cast<double>(s.peak_table_bytes) / (1 << 20));
}

/// One --batch-mix entry: per-request mode plus optional tile override.
struct MixEntry {
  Mode mode = Mode::kAuto;
  bool has_tile = false;
  long long tile = 0;
};
std::vector<MixEntry> g_batch_mix;  // empty = no mixing

/// Parses a --batch-mix value: a comma list of MODE[:tile=N] specs. The
/// bare flag (empty value) keeps the legacy cpu -> gpu -> hetero rotation.
std::vector<MixEntry> parse_batch_mix(const std::string& spec) {
  std::vector<MixEntry> mix;
  if (spec.empty()) {
    for (Mode m : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous})
      mix.push_back(MixEntry{m, false, 0});
    return mix;
  }
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    MixEntry entry;
    const std::size_t colon = item.find(':');
    if (colon != std::string::npos) {
      const std::string opt = item.substr(colon + 1);
      item.erase(colon);
      LDDP_CHECK_MSG(opt.rfind("tile=", 0) == 0,
                     "--batch-mix: unknown option '" << opt
                         << "' (expected tile=N)");
      try {
        entry.tile = std::stoll(opt.substr(5));
      } catch (const std::logic_error&) {
        throw CheckError("--batch-mix: bad tile in '" + opt + "'");
      }
      entry.has_tile = true;
    }
    LDDP_CHECK_MSG(!item.empty(), "--batch-mix: empty mode entry");
    entry.mode = parse_mode(item);
    mix.push_back(entry);
    if (comma == std::string::npos) break;
  }
  return mix;
}

/// Submits the request `g_batch` times through the BatchEngine and prints
/// the merged-schedule throughput report. With --batch-mix the replicas
/// rotate through the per-request specs so CPU-only and accelerator-heavy
/// solves overlap on the shared platform.
void print_batch_report(const BatchReport& rep, const BatchConfig& bc) {
  std::printf("batch: %zu solves, sched=%s, concurrency=%zu, pack=%s%s\n",
              rep.solves, to_string(bc.sched).c_str(), bc.concurrency,
              bc.pack_solves ? "on" : "off",
              g_batch_mix.empty() ? "" : ", mixed modes");
  std::printf("batch sim makespan=%.3f ms | serial %.3f ms | speedup "
              "%.2fx\n",
              rep.sim_makespan * 1e3, rep.serial_sim_seconds * 1e3,
              rep.speedup);
  std::printf("batch throughput=%.1f solves/s (serial %.1f) | latency "
              "p50=%.3f ms p99=%.3f ms\n",
              rep.solves_per_sec, rep.serial_solves_per_sec,
              rep.p50_latency * 1e3, rep.p99_latency * 1e3);
  std::printf("batch packing: %zu packs fused %zu rider op(s), saved "
              "%.3f ms\n",
              rep.packs, rep.packed_ops, rep.pack_saved_seconds * 1e3);
  if (rep.lane_eligible_solves > 0) {
    std::printf("batch lane packing: %zu/%zu solves in %zu cohort(s), "
                "occupancy %.0f%%, hit rate %.0f%% [%s]\n",
                rep.lane_packed_solves, rep.lane_eligible_solves,
                rep.lane_cohorts, rep.lane_occupancy * 100.0,
                rep.lane_hit_rate * 100.0, lanes::active_isa());
  }
  if (rep.tuner_lookups > 0) {
    std::printf("batch tuner cache: %zu/%zu hits (%.0f%%)\n",
                rep.tuner_hits, rep.tuner_lookups,
                rep.tuner_hit_rate * 100.0);
  }
  if (rep.ok_solves != rep.solves || rep.retry_attempts > 0) {
    std::printf("batch lifecycle: %zu ok, %zu retried, %zu degraded, "
                "%zu deadline, %zu cancelled, %zu failed | %zu retry "
                "attempt(s)\n",
                rep.ok_solves, rep.retried_solves, rep.degraded_solves,
                rep.deadline_solves, rep.cancelled_solves,
                rep.failed_solves, rep.retry_attempts);
  }
  if (g_mem_stats) {
    std::printf("batch memory: in-flight tables peak %.2f MiB",
                static_cast<double>(rep.peak_inflight_table_bytes) /
                    (1 << 20));
    if (rep.memory_budget_bytes > 0)
      std::printf(" of %.2f MiB budget (%zu deferral(s))",
                  static_cast<double>(rep.memory_budget_bytes) / (1 << 20),
                  rep.budget_deferrals);
    std::printf(" | arena: %zu hit(s), %zu miss(es), live peak %.2f MiB\n",
                rep.arena.hits, rep.arena.misses,
                static_cast<double>(rep.arena.peak_live_bytes) / (1 << 20));
  }
}

/// Submits the request `g_batch` times (rotating --batch-mix specs),
/// prints the merged report, and answers from the first success. Shared
/// by the full-table and frontier storage tiers via `submit_fn`.
template <typename P, typename SubmitFn, typename AnswerFn>
Report run_batch_generic(const P& problem, const RunConfig& cfg,
                         SubmitFn&& submit_fn, AnswerFn&& answer) {
  BatchConfig bc = g_batch_cfg;
  bc.platform = cfg.platform;
  bc.trace_path = cfg.trace_path;
  BatchEngine engine(bc);
  using Future = decltype(*submit_fn(engine, problem, cfg));
  std::vector<std::decay_t<Future>> futures;
  futures.reserve(static_cast<std::size_t>(g_batch));
  for (int k = 0; k < g_batch; ++k) {
    RunConfig rk = cfg;
    if (!g_batch_mix.empty()) {
      const MixEntry& e = g_batch_mix[static_cast<std::size_t>(k) %
                                      g_batch_mix.size()];
      rk.mode = e.mode;
      if (e.has_tile) rk.tile = e.tile;
    }
    auto f = submit_fn(engine, problem, rk);
    LDDP_CHECK_MSG(f.has_value(), "batch queue rejected a request");
    futures.push_back(std::move(*f));
  }
  const BatchReport rep = engine.wait();
  print_batch_report(rep, bc);
  // Under chaos / deadlines some futures legitimately carry structured
  // errors; answer from the first successful request.
  Report r;
  bool answered = false;
  for (auto& f : futures) {
    try {
      auto result = f.get();
      if (!answered) {
        r.stats = result.stats;
        r.answer = answer(result.table);
        answered = true;
        if (g_mem_stats) print_table_mem(result.table, result.stats);
      }
    } catch (const std::exception& e) {
      if (!answered && r.answer.empty())
        r.answer = std::string("(first request failed: ") + e.what() + ")";
    }
  }
  LDDP_CHECK_MSG(answered || rep.ok_solves + rep.retried_solves +
                                 rep.degraded_solves == 0,
                 "report counted successes but every future threw");
  return r;
}

template <typename P, typename AnswerFn>
Report run_batch(const P& problem, const RunConfig& cfg, AnswerFn&& answer) {
  if (g_use_frontier) {
    return run_batch_generic(
        problem, cfg,
        [](BatchEngine& e, const P& p, const RunConfig& rc) {
          return e.submit_frontier(p, rc);
        },
        answer);
  }
  return run_batch_generic(
      problem, cfg,
      [](BatchEngine& e, const P& p, const RunConfig& rc) {
        return e.submit(p, rc);
      },
      answer);
}

template <typename P, typename AnswerFn>
Report run(const P& problem, RunConfig cfg, bool tune_first,
           AnswerFn&& answer) {
  if (g_batch > 1) {
    LDDP_CHECK_MSG(g_devices == 1, "--batch and --devices are exclusive");
    return run_batch(problem, cfg, answer);
  }
  if (g_devices > 1) {
    LDDP_CHECK_MSG(!g_use_frontier, "--storage and --devices are exclusive");
    LDDP_CHECK_MSG(canonical(classify(problem.deps())) ==
                       Pattern::kHorizontal,
                   "--devices needs a horizontal-pattern problem");
    sim::Platform platform(
        cfg.platform.cpu,
        std::vector<sim::GpuSpec>(static_cast<std::size_t>(g_devices),
                                  cfg.platform.gpu));
    Report r;
    const auto table =
        solve_multi_horizontal(problem, platform, MultiSplit{}, &r.stats);
    r.answer = answer(table);
    return r;
  }
  if (tune_first) {
    RunConfig tune_cfg = cfg;
    const TuneResult t = tune(problem, tune_cfg);
    std::printf("tuned: t_switch=%lld t_share=%lld\n", t.best.t_switch,
                t.best.t_share);
    cfg.hetero = t.best;
  }
  Report r;
  if (g_use_frontier) {
    auto result = solve_frontier(problem, cfg);
    r.stats = result.stats;
    r.answer = answer(result.table);
    if (g_mem_stats) print_table_mem(result.table, result.stats);
    return r;
  }
  auto result = solve(problem, cfg);
  r.stats = result.stats;
  r.answer = answer(result.table);
  if (g_mem_stats) print_table_mem(result.table, r.stats);
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace lddp::problems;
  Flags flags(argc, argv);

  if (flags.get_bool("list")) {
    std::printf("levenshtein lcs lcs3 nw sw gotoh dtw checkerboard "
                "columnmin dither seam minnwn maxnw\n");
    return 0;
  }
  const std::string name = flags.get("problem", "");
  if (name.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const auto n = static_cast<std::size_t>(flags.get_int("size", 1024));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  RunConfig cfg;
  cfg.mode = parse_mode(flags.get("mode", "hetero"));
  cfg.platform = parse_platform(flags.get("platform", "high"));
  cfg.hetero.t_switch = flags.get_int("t-switch", -1);
  cfg.hetero.t_share = flags.get_int("t-share", -1);
  if (cfg.mode == Mode::kCpuTiled) {
    cfg.cpu_tile = static_cast<std::size_t>(flags.get_int("tile", 64));
  } else {
    cfg.tile = flags.get_int("tile", 0);
  }
  cfg.trace_path = flags.get("trace", "");
  // Solo solves run their host fronts on the process-wide work-stealing
  // executor; --batch requests use the engine's own.
  cfg.pool = &cpu::shared_stealing_pool();
  {
    const std::string bk = flags.get("batch-kernels", "");
    if (!bk.empty()) {
      LDDP_CHECK_MSG(bk == "on" || bk == "off",
                     "--batch-kernels must be on or off, got '" << bk << "'");
      cfg.batch_kernels = bk == "on";
    }
  }
  const bool tune_first = flags.get_bool("tune");
  g_devices = static_cast<int>(flags.get_int("devices", 1));
  LDDP_CHECK_MSG(g_devices >= 1, "--devices must be >= 1");
  g_batch = static_cast<int>(flags.get_int("batch", 1));
  LDDP_CHECK_MSG(g_batch >= 1, "--batch must be >= 1");
  g_batch_cfg.sched = parse_sched(flags.get("sched", "fifo"));
  g_batch_cfg.concurrency =
      static_cast<std::size_t>(flags.get_int("concurrency", 4));
  if (flags.has("batch-mix"))
    g_batch_mix = parse_batch_mix(flags.get("batch-mix", ""));
  {
    const std::string pack = flags.get("pack", "");
    if (!pack.empty()) {
      LDDP_CHECK_MSG(pack == "on" || pack == "off",
                     "--pack must be on or off, got '" << pack << "'");
      g_batch_cfg.pack_solves = pack == "on";
    }
  }
  {
    const std::string lp = flags.get("lane-pack", "");
    if (!lp.empty()) {
      if (lp == "on") {
        g_batch_cfg.lane_pack = -1;
      } else if (lp == "off") {
        g_batch_cfg.lane_pack = 0;
      } else {
        char* end = nullptr;
        const long long v = std::strtoll(lp.c_str(), &end, 10);
        LDDP_CHECK_MSG(end != nullptr && *end == '\0' && v >= 0,
                       "--lane-pack must be on, off or a lane count, got '"
                           << lp << "'");
        g_batch_cfg.lane_pack = v;
      }
    }
  }
  // Request lifecycle: simulated-time deadline, retry/degradation budget
  // and the deterministic chaos plan (batch mode only — a solo solve has
  // no lifecycle loop around it).
  g_batch_cfg.deadline_ms = flags.get_double("deadline-ms", 0.0);
  LDDP_CHECK_MSG(g_batch_cfg.deadline_ms >= 0.0,
                 "--deadline-ms must be >= 0");
  const long long retries = flags.get_int("retries", 0);
  LDDP_CHECK_MSG(retries >= 0, "--retries must be >= 0");
  g_batch_cfg.max_retries = static_cast<std::size_t>(retries);
  {
    const std::string chaos_spec = flags.get("chaos", "");
    if (!chaos_spec.empty())
      g_batch_cfg.chaos = chaos::ChaosSpec::parse(chaos_spec).plan();
  }
  // Storage tier: any --storage value routes through the frontier-capable
  // facade (full is the classic table behind it, so --mem-stats works
  // uniformly); omitted keeps the untouched full-table path.
  {
    const std::string st = flags.get("storage", "");
    if (!st.empty()) {
      cfg.storage = parse_storage(st);
      g_use_frontier = true;
    }
  }
  const long long ck = flags.get_int("checkpoint-k", 0);
  LDDP_CHECK_MSG(ck >= 0, "--checkpoint-k must be >= 0");
  cfg.checkpoint_interval = static_cast<std::size_t>(ck);
  const long long mem_budget = flags.get_int("mem-budget", 0);
  LDDP_CHECK_MSG(mem_budget >= 0, "--mem-budget must be >= 0");
  g_batch_cfg.memory_budget_bytes = static_cast<std::size_t>(mem_budget);
  g_mem_stats = flags.get_bool("mem-stats");
  // With --batch, --tune opts the engine's cross-solve tuning cache in
  // instead of running a solo pre-sweep: each auto-parameter request
  // tunes once per (problem, shape, mode) class and later ones reuse it.
  g_batch_cfg.tune_auto = tune_first && g_batch > 1;
  const auto band = static_cast<std::size_t>(flags.get_int("band", 0));

  Report r;
  if (name == "levenshtein") {
    LevenshteinProblem p(random_sequence(n, seed), random_sequence(n, seed + 1));
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "distance = " + std::to_string(t.at(n, n));
    });
  } else if (name == "lcs") {
    LcsProblem p(random_sequence(n, seed), random_sequence(n, seed + 1));
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "lcs length = " + std::to_string(t.at(n, n));
    });
  } else if (name == "lcs3") {
    // 3-D path: the k = 3 LDDP-Plus extension.
    Lcs3Problem p(random_sequence(n, seed), random_sequence(n, seed + 1),
                  random_sequence(n, seed + 2));
    SolveStats stats;
    const auto t = solve3(p, cfg, &stats);
    r.stats = stats;
    r.answer =
        "3-way lcs length = " + std::to_string(t.at(n, n, n));
  } else if (name == "nw") {
    NeedlemanWunschProblem p(random_sequence(n, seed),
                             random_sequence(n, seed + 1));
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "alignment score = " + std::to_string(t.at(n, n));
    });
  } else if (name == "sw") {
    SmithWatermanProblem p(random_sequence(n, seed),
                           random_sequence(n, seed + 1));
    r = run(p, cfg, tune_first, [](const auto& t) {
      return "best local score = " + std::to_string(sw_best_score(t));
    });
  } else if (name == "gotoh") {
    GotohProblem p(random_sequence(n, seed), random_sequence(n, seed + 1));
    r = run(p, cfg, tune_first, [](const auto& t) {
      return "affine score = " + std::to_string(gotoh_score(t));
    });
  } else if (name == "dtw") {
    DtwProblem p(random_walk_series(n, seed), random_walk_series(n, seed + 1),
                 band);
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "warp cost = " + std::to_string(t.at(n, n));
    });
  } else if (name == "checkerboard") {
    CheckerboardProblem p(random_cost_board(n, n, seed));
    r = run(p, cfg, tune_first, [](const auto& t) {
      return "cheapest path = " + std::to_string(checkerboard_best(t));
    });
  } else if (name == "columnmin") {
    ColumnMinPathProblem p(random_cost_board(n, n, seed));
    r = run(p, cfg, tune_first, [n](const auto& t) {
      auto best = t.at(0, n - 1);
      for (std::size_t i = 1; i < n; ++i)
        best = std::min(best, t.at(i, n - 1));
      return "cheapest path = " + std::to_string(best);
    });
  } else if (name == "dither") {
    FloydSteinbergProblem p(plasma_image(n, n, seed));
    r = run(p, cfg, tune_first, [](const auto& t) {
      std::size_t white = 0;
      for (std::size_t i = 0; i < t.rows(); ++i)
        for (std::size_t j = 0; j < t.cols(); ++j)
          white += t.at(i, j).out == 255;
      return std::to_string(white) + " white pixels";
    });
  } else if (name == "seam") {
    SeamCarveProblem p(dual_gradient_energy(plasma_image(n, n, seed)));
    r = run(p, cfg, tune_first, [&](const auto& t) {
      return "min seam energy = " +
             std::to_string(seam_energy(p.energy(), extract_seam(t)));
    });
  } else if (name == "minnwn") {
    MinNwNProblem p(n, n, 1);
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "corner = " + std::to_string(t.at(n - 1, n - 1));
    });
  } else if (name == "maxnw") {
    MaxNwProblem p(random_input_grid(n, n, seed), 3);
    r = run(p, cfg, tune_first, [n](const auto& t) {
      return "corner = " + std::to_string(t.at(n - 1, n - 1));
    });
  } else {
    std::fprintf(stderr, "unknown problem '%s'\n%s", name.c_str(), kUsage);
    return 2;
  }

  for (const auto& bad : flags.unknown())
    std::fprintf(stderr, "warning: unused flag --%s\n", bad.c_str());

  std::printf("%s\n", r.answer.c_str());
  std::printf("pattern=%s transfers=%s mode=%s platform=%s\n",
              to_string(r.stats.pattern).c_str(),
              to_string(r.stats.transfer).c_str(),
              to_string(r.stats.mode_used).c_str(),
              cfg.platform.name.c_str());
  std::printf("sim=%.3f ms (cpu busy %.3f, gpu busy %.3f, dma %.3f) | "
              "real=%.3f ms\n",
              r.stats.sim_seconds * 1e3, r.stats.cpu_busy_seconds * 1e3,
              r.stats.gpu_busy_seconds * 1e3,
              r.stats.copy_busy_seconds * 1e3, r.stats.real_seconds * 1e3);
  std::printf("fronts=%zu t_switch=%lld t_share=%lld pcie: %zu B up / %zu B "
              "down\n",
              r.stats.fronts, r.stats.t_switch, r.stats.t_share,
              r.stats.h2d_bytes, r.stats.d2h_bytes);
  if (!cfg.trace_path.empty())
    std::printf("trace written to %s\n", cfg.trace_path.c_str());
  return 0;
} catch (const lddp::CheckError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
