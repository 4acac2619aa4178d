// perfbench main program: set-up, the untraced end-to-end run, the traced
// per-layer run, correctness checks and the result line.
//
//   lddp_perfbench --workload solo-table --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ledger. The exit code is
// nonzero when any answer is wrong or any request failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/lane_kernels.h"
#include "cpu/calibrate.h"
#include "sim/platform.h"
#include "sim/timeline_merge.h"

#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"problems.kernel_ns_per_cell", "ns/cell", "lower", "solves_per_s",
       "solo-frontier"},
      {"front_runner.full_ns_per_cell", "ns/cell", "lower", "latency_ms_p90",
       "solo-table"},
      {"front_runner.window_ns_per_cell", "ns/cell", "lower", "solves_per_s",
       "solo-frontier"},
      {"front_runner.gather_share", "frac", "lower", "latency_ms_p90",
       "solo-table"},
      {"tables.alloc_ms", "ms", "lower", "latency_ms_p90", "solo-table"},
      {"tables.unpack_ns_per_cell", "ns/cell", "lower", "latency_ms_p90",
       "solo-table"},
      {"tables.peak_table_mib", "MiB", "lower", "peak_rss_mib",
       "solo-table,solo-frontier"},
      {"tables.checkpoint_rows", "count", "lower", "peak_rss_mib",
       "solo-frontier"},
      {"tables.traceback_ms", "ms", "lower", "latency_ms_p50",
       "solo-frontier"},
      {"tables.remat_ms", "ms", "lower", "latency_ms_p50", "solo-frontier"},
      {"lane.ns_per_cell", "ns/cell", "lower", "solves_per_s",
       "batch-mixed"},
      {"lane.occupancy", "frac", "higher", "cpu_ms_per_solve",
       "batch-mixed"},
      {"lane.hit_rate", "frac", "higher", "solves_per_s", "batch-mixed"},
      {"lane.cohorts", "count", "higher", "solves_per_s", "batch-mixed"},
      {"cpu.region_us", "us", "lower", "latency_ms_p90", "batch-mixed"},
      {"cpu.front_speedup", "x", "higher", "cpu_ms_per_solve",
       "batch-mixed"},
      {"cpu.busy_frac", "frac", "lower", "cpu_ms_per_solve", "batch-mixed"},
      {"sim.ops_per_solve", "count", "lower", "solves_per_s", "batch-mixed"},
      {"sim.record_ns_per_op", "ns/op", "lower", "solves_per_s",
       "batch-mixed"},
      {"sim.merge_ms_per_wave", "ms", "lower", "solves_per_s",
       "batch-mixed"},
      {"sim.merge_exact", "frac", "higher", "sim_ms_per_solve",
       "batch-mixed"},
      {"sim.cpu_busy_ms", "ms", "lower", "sim_ms_per_solve", "all"},
      {"sim.gpu_busy_ms", "ms", "lower", "sim_ms_per_solve", "all"},
      {"sim.copy_busy_ms", "ms", "lower", "sim_ms_per_solve", "all"},
      {"sim.pcie_mib", "MiB", "lower", "sim_ms_per_solve", "all"},
      {"sim.packs", "count", "higher", "sim_ms_per_solve", "batch-mixed"},
      {"sim.pack_saved_ms", "ms", "higher", "sim_ms_per_solve",
       "batch-mixed"},
      {"batch.submit_us", "us", "lower", "latency_ms_p50", "batch-mixed"},
      {"batch.queue_wait_ms", "ms", "lower", "latency_ms_p50",
       "batch-mixed"},
      {"batch.wait_ms", "ms", "lower", "solves_per_s", "batch-mixed"},
      {"batch.arena_hit_rate", "frac", "higher", "solves_per_s",
       "batch-mixed"},
      {"batch.retries", "count", "lower", "solves_per_s", "batch-mixed"},
      {"framework.solve_ms", "ms", "lower", "latency_ms_p50", "all"},
      {"framework.residual_ms", "ms", "lower", "latency_ms_p50", "all"},
      {"trace.overhead", "x", "higher", "solves_per_s", "all"},
  };
  return kMetrics;
}

namespace {

struct EndToEnd {
  const char* name;
  const char* unit;
};
constexpr EndToEnd kEndToEnd[] = {
    {"setup_s", "s"},          {"solves_per_s", "1/s"},
    {"latency_ms_p50", "ms"},  {"latency_ms_p90", "ms"},
    {"sim_ms_per_solve", "ms"}, {"cpu_ms_per_solve", "ms"},
    {"peak_rss_mib", "MiB"},   {"ok_frac", "frac"},
};

constexpr std::size_t kSetups = 3;
constexpr std::size_t kConcurrency = 4;

const char* const kWorkloads[] = {"solo-table", "solo-frontier",
                                  "batch-mixed"};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double nproc() {
  return static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Linear-interpolated quantile (the numpy default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

lddp::BatchConfig engine_config() {
  lddp::BatchConfig bc;
  bc.concurrency = kConcurrency;
  bc.threads_per_solve = 4;
  bc.queue_capacity = 64;
  return bc;
}

/// Everything set-up produces: the workload with its reference answers and,
/// for the batch workload, the warmed long-lived engine.
struct State {
  Workload w;
  std::unique_ptr<lddp::BatchEngine> engine;
};

/// Outcome tally of one pass over whole cycles.
struct Tally {
  std::vector<double> latency_s;  ///< per request (+inf when failed)
  double sim_s = 0.0;             ///< solo: sum of sim_seconds; batch: sum
                                  ///< of merged makespans
  std::vector<double> sim_trace;  ///< per request (solo) or wave (batch)
  double wall_s = 0.0;            ///< timed wall
  double cpu_s = 0.0;             ///< process CPU time over the timed wall
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed, refused or wrong
  /// Per-cycle throughput, for the stderr summary of host noise.
  std::vector<double> cycle_solves_per_s;
};

void record(Tally& t, const Workload& w, const Request& r, const Outcome& o,
            double latency_s) {
  ++t.attempted;
  const bool ok = !o.failed && o.answer == w.expected[r.case_index];
  if (!ok) {
    ++t.failed;
    std::fprintf(stderr, "wrong or failed: %s mode=%s\n",
                 w.cases[r.case_index]->label().c_str(),
                 lddp::to_string(r.mode).c_str());
  }
  t.latency_s.push_back(ok ? latency_s
                           : std::numeric_limits<double>::infinity());
}

Workload build(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "solo-table") add_solo_table_cases(w, seed);
  else if (name == "solo-frontier") add_solo_frontier_cases(w, seed);
  else if (name == "batch-mixed") add_batch_cases(w, seed);
  else throw std::runtime_error("unknown workload '" + name + "'");
  return w;
}

/// One batch wave (requests [begin, end) of the cycle) through the engine:
/// stage copies, submit all, take results in submission order, then
/// wait(). Per-request vectors are in submission order.
struct WaveRun {
  lddp::BatchReport report;
  std::vector<Outcome> outcomes;
  std::vector<double> latency_s;  ///< submit() until the result is taken
  std::vector<double> submit_s;   ///< the submit() call alone
  std::vector<Clock::time_point> t_in, t_out;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double wait_s = 0.0;
};

WaveRun run_wave(Workload& w, lddp::BatchEngine& engine, std::size_t begin,
                 std::size_t end) {
  for (std::size_t k = begin; k < end; ++k)
    w.cases[w.cycle[k].case_index]->stage();
  WaveRun out;
  std::vector<std::optional<Pending>> pend(end - begin);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t k = begin; k < end; ++k) {
    const Request& r = w.cycle[k];
    out.t_in.push_back(Clock::now());
    pend[k - begin] = w.cases[r.case_index]->submit(engine, r.mode);
    out.submit_s.push_back(seconds_since(out.t_in.back()));
  }
  for (std::size_t k = begin; k < end; ++k) {
    Outcome o;
    if (pend[k - begin]) o = pend[k - begin]->take();
    else o.failed = true;  // refused
    out.t_out.push_back(Clock::now());
    out.latency_s.push_back(std::chrono::duration<double>(
                                out.t_out.back() - out.t_in[k - begin])
                                .count());
    out.outcomes.push_back(o);
  }
  const auto tw = Clock::now();
  out.report = engine.wait();
  out.wait_s = seconds_since(tw);
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

State setup_once(const std::string& name, std::uint64_t seed) {
  State st;
  st.w = build(name, seed);
  for (const auto& c : st.w.cases) st.w.expected.push_back(c->reference());
  if (st.w.wave > 0) {
    st.engine = std::make_unique<lddp::BatchEngine>(engine_config());
    // Warm-up: the first wave once, untimed (threads, arenas, lane
    // kernels); its answers are checked like any other.
    const WaveRun warm = run_wave(st.w, *st.engine, 0, st.w.wave);
    for (std::size_t k = 0; k < st.w.wave; ++k)
      if (warm.outcomes[k].failed ||
          !(warm.outcomes[k].answer ==
            st.w.expected[st.w.cycle[k].case_index]))
        throw std::runtime_error("warm-up answer mismatch");
  }
  return st;
}

/// Untraced pass over whole cycles until the next cycle would overrun
/// `seconds` (always at least one cycle).
Tally run_untraced(State& st, double seconds, std::size_t max_cycles) {
  Workload& w = st.w;
  Tally t;
  const auto start = Clock::now();
  double last_cycle = 0.0;
  for (std::size_t cyc = 0; cyc < max_cycles; ++cyc) {
    const double elapsed = seconds_since(start);
    if (cyc > 0 && elapsed + last_cycle > seconds) break;
    const auto c0 = Clock::now();
    const std::size_t lat0 = t.latency_s.size(), failed0 = t.failed;
    const double wall0 = t.wall_s;
    if (w.wave == 0) {
      const double cpu0 = cpu_seconds();
      for (const Request& r : w.cycle) {
        const auto t0 = Clock::now();
        const Outcome o = w.cases[r.case_index]->run(r.mode);
        const double lat = seconds_since(t0);
        t.wall_s += lat;
        record(t, w, r, o, lat);
        t.sim_s += o.stats.sim_seconds;
        t.sim_trace.push_back(o.stats.sim_seconds);
      }
      t.cpu_s += cpu_seconds() - cpu0;
    } else {
      for (std::size_t b = 0; b < w.cycle.size(); b += w.wave) {
        const WaveRun wr = run_wave(w, *st.engine, b, b + w.wave);
        for (std::size_t k = 0; k < w.wave; ++k)
          record(t, w, w.cycle[b + k], wr.outcomes[k], wr.latency_s[k]);
        t.wall_s += wr.wall_s;
        t.cpu_s += wr.cpu_s;
        t.sim_s += wr.report.sim_makespan;
        t.sim_trace.push_back(wr.report.sim_makespan);
      }
    }
    last_cycle = seconds_since(c0);
    const double n = static_cast<double>(t.latency_s.size() - lat0);
    t.cycle_solves_per_s.push_back(
        (n - static_cast<double>(t.failed - failed0)) / (t.wall_s - wall0));
  }
  return t;
}

struct MergeOut {
  double seconds = 0.0;
  double makespan = 0.0;
  std::size_t packs = 0;
  double saved_s = 0.0;
};

/// The batch engine's merge (FIFO admission, `concurrency` slots, packing
/// on) replayed through the public TimelineMerger.
MergeOut merge_probe(const std::vector<lddp::sim::Timeline>& tls) {
  const lddp::BatchConfig defaults;
  MergeOut out;
  const auto t0 = Clock::now();
  lddp::sim::Platform platform(defaults.platform);
  lddp::sim::TimelineMerger merger(platform.timeline());
  merger.enable_packing(defaults.platform.gpu);
  std::size_t next = 0;
  auto dispatch = [&](double release, lddp::sim::OpId dep) {
    while (next < tls.size()) {
      const std::size_t j = next++;
      if (tls[j].op_count() == 0) continue;
      merger.add(tls[j], release, dep, /*packable=*/true);
      return;
    }
  };
  for (std::size_t s = 0; s < std::min(kConcurrency, tls.size()); ++s)
    dispatch(0.0, lddp::sim::kNoOp);
  while (merger.busy()) {
    const std::size_t f = merger.step();
    if (f == lddp::sim::TimelineMerger::kNone) continue;
    dispatch(merger.job_end(f), merger.job_last_op(f));
  }
  out.seconds = seconds_since(t0);
  out.makespan = platform.elapsed();
  out.packs = merger.pack_count();
  out.saved_s = merger.pack_saved_seconds();
  return out;
}

/// Batch-side ledger entries of one engine report and its merge replay.
void add_batch_report(Ledger& led, const lddp::BatchReport& rep,
                      const std::vector<lddp::sim::Timeline>& tls,
                      SpanLog& log, std::size_t request, long parent) {
  MergeOut mo;
  timed_span(log, "sim.merge", request, parent,
             [&] { mo = merge_probe(tls); });
  led["sim.merge_ms_per_wave"].add(mo.seconds * 1e3);
  led["sim.merge_exact"].add(mo.makespan == rep.sim_makespan ? 1.0 : 0.0);
  led["sim.packs"].add(static_cast<double>(rep.packs));
  led["sim.pack_saved_ms"].add(rep.pack_saved_seconds * 1e3);
  led["lane.hit_rate"].add(static_cast<double>(rep.lane_packed_solves),
                           static_cast<double>(rep.lane_eligible_solves));
  led["lane.cohorts"].add(static_cast<double>(rep.lane_cohorts));
  led["lane.occupancy"].add(rep.lane_occupancy);
  led["batch.retries"].add(static_cast<double>(rep.retry_attempts));
  Ratio& arena = led["batch.arena_hit_rate"];
  arena = Ratio{};
  arena.add(static_cast<double>(rep.arena.hits),
            static_cast<double>(rep.arena.hits + rep.arena.misses));
}

void add_wave_latencies(Ledger& led, const WaveRun& wr) {
  for (std::size_t k = 0; k < wr.outcomes.size(); ++k) {
    led["batch.submit_us"].add(wr.submit_s[k] * 1e6);
    led["batch.queue_wait_ms"].add(
        (wr.latency_s[k] - wr.outcomes[k].stats.real_seconds) * 1e3);
  }
  led["batch.wait_ms"].add(wr.wait_s * 1e3);
}

/// Lane-cohort probe over requests [begin, end): lane-eligible requests are
/// grouped by type and tier in submission order, up to the lane width;
/// solo workloads (nothing eligible) probe each request as a cohort of one.
void lane_probes(Ledger& led, SpanLog& log, const Workload& w,
                 std::size_t begin, std::size_t end, long parent) {
  std::vector<std::vector<const Case*>> groups;
  const std::size_t width = lddp::lanes::preferred_lane_width();
  for (std::size_t k = begin; k < end; ++k) {
    const Case* c = w.cases[w.cycle[k].case_index].get();
    if (w.wave > 0 && !lane_eligible(c->cells(), c->frontier(),
                                     w.cycle[k].mode))
      continue;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.size() < width && g[0]->type_id() == c->type_id() &&
             g[0]->frontier() == c->frontier() && w.wave > 0;
    });
    if (it == groups.end()) groups.push_back({c});
    else it->push_back(c);
  }
  for (const auto& g : groups) {
    double cells = 0.0, lockstep = 0.0, ns = 0.0;
    timed_span(log, "lane.cohort", begin, parent,
               [&] { ns = g[0]->lane_probe(g, &cells, &lockstep); });
    led["lane.ns_per_cell"].add(ns, cells);
  }
}

void check_probe(Tally& t, const Workload& w, const Request& r,
                 const ProbeTimes& pt) {
  const Answer& want = w.expected[r.case_index];
  if (pt.full_answer == want && pt.frontier_answer == want) return;
  ++t.failed;
  std::fprintf(stderr, "probe answer mismatch: %s\n",
               w.cases[r.case_index]->label().c_str());
}

/// Traced run: one untraced cycle, then the same cycle with spans and the
/// per-layer probes. Returns the ledger; failures land in `t`.
Ledger run_traced(State& st, SpanLog& log, Tally& t) {
  Workload& w = st.w;
  Ledger led;
  const Tally plain = run_untraced(st, 0.0, 1);
  t.attempted += plain.attempted;
  t.failed += plain.failed;
  std::vector<double> traced_sim;
  double traced_wall = 0.0;
  if (w.wave == 0) {
    // Solo: every request is a root span; probes are its children.
    for (std::size_t k = 0; k < w.cycle.size(); ++k) {
      const Request& r = w.cycle[k];
      const Case& c = *w.cases[r.case_index];
      const double cpu0 = cpu_seconds();
      const long root = log.open("framework.solve", k, -1);
      const Outcome o = c.run(r.mode);
      const double solve_s = log.close(root);
      led["cpu.busy_frac"].add(cpu_seconds() - cpu0, solve_s * nproc());
      record(t, w, r, o, solve_s);
      traced_sim.push_back(o.stats.sim_seconds);
      traced_wall += solve_s;
      const ProbeTimes pt = c.probe(ProbeCtx{&log, &led, k, root}, r.mode,
                                    o.stats);
      check_probe(t, w, r, pt);
      led["framework.solve_ms"].add(solve_s * 1e3);
      led["framework.residual_ms"].add(
          (solve_s - pt.front_runner_s - pt.tables_s - pt.traceback_s) * 1e3);
      lane_probes(led, log, w, k, k + 1, root);
    }
    // The same requests through a batch engine, four per wave (bounded
    // memory): batch-layer numbers on this workload's shapes.
    lddp::BatchEngine engine(engine_config());
    for (std::size_t b = 0; b < w.cycle.size(); b += kConcurrency) {
      const std::size_t e = std::min(b + kConcurrency, w.cycle.size());
      const long eroot = log.open("batch.engine_probe", b, -1);
      const WaveRun wr = run_wave(w, engine, b, e);
      std::vector<lddp::sim::Timeline> tls;
      for (std::size_t k = b; k < e; ++k) {
        record(t, w, w.cycle[k], wr.outcomes[k - b], wr.latency_s[k - b]);
        tls.push_back(
            w.cases[w.cycle[k].case_index]->engine_timeline(w.cycle[k].mode));
      }
      add_wave_latencies(led, wr);
      add_batch_report(led, wr.report, tls, log, b, eroot);
      log.close(eroot);
    }
  } else {
    for (std::size_t b = 0; b < w.cycle.size(); b += w.wave) {
      const long wroot = log.open("batch.wave", b, -1);
      const WaveRun wr = run_wave(w, *st.engine, b, b + w.wave);
      log.close(wroot);
      led["cpu.busy_frac"].add(wr.cpu_s, wr.wall_s * nproc());
      traced_sim.push_back(wr.report.sim_makespan);
      traced_wall += wr.wall_s;
      add_wave_latencies(led, wr);
      std::vector<lddp::sim::Timeline> tls;
      for (std::size_t k = 0; k < w.wave; ++k) {
        const Request& r = w.cycle[b + k];
        const Case& c = *w.cases[r.case_index];
        const Outcome& o = wr.outcomes[k];
        record(t, w, r, o, wr.latency_s[k]);
        const double solve_s = o.stats.real_seconds;
        const long root =
            log.add("batch.request", b + k, wroot, wr.t_in[k], wr.t_out[k]);
        const ProbeTimes pt =
            c.probe(ProbeCtx{&log, &led, b + k, root}, r.mode, o.stats);
        check_probe(t, w, r, pt);
        led["framework.solve_ms"].add(solve_s * 1e3);
        led["framework.residual_ms"].add(
            (solve_s - pt.front_runner_s - pt.tables_s - pt.traceback_s) *
            1e3);
        tls.push_back(c.engine_timeline(r.mode));
      }
      lane_probes(led, log, w, b, b + w.wave, wroot);
      add_batch_report(led, wr.report, tls, log, b, wroot);
    }
  }
  // Host timing must never feed the model: the traced pass prices every
  // request exactly as the untraced one did.
  if (traced_sim != plain.sim_trace) {
    ++t.failed;
    std::fprintf(stderr, "sim_ms_per_solve differs between traced and "
                         "untraced runs\n");
  }
  const double n = static_cast<double>(w.cycle.size());
  led["trace.overhead"].add(n / std::max(traced_wall, 1e-12),
                            n / std::max(plain.wall_s, 1e-12));
  return led;
}

std::string context_json(const std::string& workload, std::uint64_t seed,
                         int trace, double seconds) {
  std::string s = "{";
  s += "\"workload\": \"" + json_escape(workload) + "\"";
  s += ", \"seed\": " + std::to_string(seed);
  s += ", \"trace\": " + std::to_string(trace);
  s += ", \"seconds\": " + num(seconds);
  s += ", \"nproc\": " + num(nproc());
  s += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  s += ", \"flags\": \"" + json_escape(PERFBENCH_CXX_FLAGS) + "\"";
  s += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ", \"git_sha\": \"" + json_escape(PERFBENCH_GIT_SHA) + "\"";
  s += ", \"simd_isa\": \"" + json_escape(lddp::lanes::active_isa()) + "\"";
  s += ", \"vector_speedup\": " +
       num(lddp::cpu::calibrated_vector_speedup());
  s += "}";
  return s;
}

void write_spans(const std::filesystem::path& path, const std::string& workload,
                 const SpanLog& log) {
  std::ofstream out(path);
  for (std::size_t k = 0; k < log.spans().size(); ++k) {
    const Span& s = log.spans()[k];
    out << "{\"id\": " << k << ", \"name\": \"" << s.name
        << "\", \"workload\": \"" << workload << "\", \"request\": "
        << s.request << ", \"parent\": " << s.parent
        << ", \"start_s\": " << num(s.start_s) << ", \"end_s\": "
        << num(s.end_s) << "}\n";
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/results";
  bool list = false;
  bool describe = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    const std::string key = argv[k];
    auto value = [&]() -> std::string {
      if (k + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++k];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = std::stoi(value());
    else if (key == "--out") a.out_dir = value();
    else if (key == "--list") a.list = true;
    else if (key == "--describe") a.describe = true;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.trace != 0 && a.trace != 1)
    throw std::runtime_error("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// --describe: the metric catalogue (checked against BENCHMARK.json).
void describe() {
  std::string s = "{\"workloads\": [";
  for (std::size_t k = 0; k < std::size(kWorkloads); ++k)
    s += std::string(k ? ", " : "") + "\"" + kWorkloads[k] + "\"";
  s += "], \"end_to_end\": [";
  for (std::size_t k = 0; k < std::size(kEndToEnd); ++k)
    s += std::string(k ? ", " : "") + "{\"name\": \"" + kEndToEnd[k].name +
         "\", \"unit\": \"" + kEndToEnd[k].unit + "\"}";
  s += "], \"per_layer\": [";
  const auto& lm = layer_metrics();
  for (std::size_t k = 0; k < lm.size(); ++k)
    s += std::string(k ? ", " : "") + "{\"name\": \"" + lm[k].name +
         "\", \"unit\": \"" + lm[k].unit + "\", \"better\": \"" +
         lm[k].better + "\", \"moves\": \"" + lm[k].moves +
         "\", \"on\": \"" + lm[k].on + "\"}";
  s += "]}";
  std::printf("%s\n", s.c_str());
}

/// --list: the workload's request cycle for this seed, without solving.
void list_requests(const std::string& workload, std::uint64_t seed) {
  const Workload w = build(workload, seed);
  for (std::size_t k = 0; k < w.cycle.size(); ++k) {
    const Request& r = w.cycle[k];
    std::printf("%zu %s %s\n", k, w.cases[r.case_index]->label().c_str(),
                lddp::to_string(r.mode).c_str());
  }
}

int run(const Args& a) {
  namespace fs = std::filesystem;
  const std::string ctx = context_json(a.workload, a.seed, a.trace, a.seconds);
  std::printf("# context %s\n", ctx.c_str());
  std::fflush(stdout);

  // Set-up, repeated; the median is setup_s and the last state is used.
  std::vector<double> setups;
  State st;
  const std::size_t nsetup = a.trace ? 1 : kSetups;
  for (std::size_t k = 0; k < nsetup; ++k) {
    st = State{};
    const auto t0 = Clock::now();
    st = setup_once(a.workload, a.seed);
    setups.push_back(seconds_since(t0));
  }

  Tally t;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto origin = Clock::now();
  SpanLog log(origin);
  if (a.trace == 0) {
    t = run_untraced(st, a.seconds, std::numeric_limits<std::size_t>::max());
    const double n = static_cast<double>(t.attempted);
    const double ok = n - static_cast<double>(t.failed);
    metrics = {
        {"setup_s", {quantile(setups, 0.5), "s"}},
        {"solves_per_s", {ok / t.wall_s, "1/s"}},
        {"latency_ms_p50", {quantile(t.latency_s, 0.5) * 1e3, "ms"}},
        {"latency_ms_p90", {quantile(t.latency_s, 0.9) * 1e3, "ms"}},
        {"sim_ms_per_solve", {t.sim_s / n * 1e3, "ms"}},
        {"cpu_ms_per_solve", {t.cpu_s / n * 1e3, "ms"}},
        {"peak_rss_mib", {peak_rss_mib(), "MiB"}},
        {"ok_frac", {ok / n, "frac"}},
    };
    std::fprintf(stderr, "%zu requests in %zu cycles, %.2f s timed wall\n",
                 t.attempted, t.cycle_solves_per_s.size(), t.wall_s);
    // Median latency per request kind, to stderr: which requests set p50
    // and p90.
    std::map<std::string, std::vector<double>> by_kind;
    for (std::size_t k = 0; k < t.latency_s.size(); ++k) {
      const Request& r = st.w.cycle[k % st.w.cycle.size()];
      const std::string label = st.w.cases[r.case_index]->label();
      by_kind[label.substr(0, label.find(' ')) + " " + lddp::to_string(r.mode)]
          .push_back(t.latency_s[k]);
    }
    std::fprintf(stderr,
                 "  per-cycle solves_per_s: min %.4g p25 %.4g p50 %.4g p75 "
                 "%.4g max %.4g\n",
                 quantile(t.cycle_solves_per_s, 0.0),
                 quantile(t.cycle_solves_per_s, 0.25),
                 quantile(t.cycle_solves_per_s, 0.5),
                 quantile(t.cycle_solves_per_s, 0.75),
                 quantile(t.cycle_solves_per_s, 1.0));
    for (const auto& [kind, lat] : by_kind)
      std::fprintf(stderr, "  %-32s n=%-5zu p50=%9.3f ms\n", kind.c_str(),
                   lat.size(), quantile(lat, 0.5) * 1e3);
  } else {
    const Ledger led = run_traced(st, log, t);
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = led.find(m.name);
      metrics.push_back(
          {m.name, {it == led.end() ? 0.0 : it->second.value(), m.unit}});
      std::printf("# ledger %s -> %s @ %s\n", m.name, m.moves, m.on);
    }
  }

  const bool correct = t.failed == 0;
  std::string res = "{\"correct\": ";
  res += correct ? "true" : "false";
  res += ", \"attempted\": " + std::to_string(t.attempted);
  res += ", \"failed\": " + std::to_string(t.failed);
  res += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k)
    res += std::string(k ? ", " : "") + "\"" + metrics[k].first +
           "\": {\"value\": " + num(metrics[k].second.first) +
           ", \"unit\": \"" + metrics[k].second.second + "\"}";
  res += "}}";

  std::error_code ec;
  fs::create_directories(a.out_dir, ec);
  if (!ec) {
    const std::string stem = a.workload + "-seed" + std::to_string(a.seed) +
                             "-trace" + std::to_string(a.trace);
    std::ofstream(fs::path(a.out_dir) / (stem + ".json"))
        << "{\"context\": " << ctx << ", \"result\": " << res << "}\n";
    if (a.trace) write_spans(fs::path(a.out_dir) / (stem + ".spans.jsonl"),
                             a.workload, log);
  }
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse(argc, argv);
    if (a.describe) {
      perfbench::describe();
      return 0;
    }
    if (a.workload.empty()) throw std::runtime_error("--workload is required");
    if (a.list) {
      perfbench::list_requests(a.workload, a.seed);
      return 0;
    }
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
