// Case<Ops>: one problem instance driven through the public API, plus the
// outside-in layer probes run on its exact shape in the traced run.
//
// Ops supplies the problem type, its canonical layout, a type tag and the
// answer extraction (final cell, traceback, seam or bitmap digest) that a
// caller performs on the returned table — a Grid or a FrontierTable.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/framework.h"
#include "core/front_runner.h"
#include "core/lane_cohort.h"
#include "core/strategies/common.h"
#include "core/strategies/frontier_engine.h"
#include "cpu/stealing_executor.h"
#include "cpu/thread_pool.h"
#include "sim/platform.h"
#include "tables/frontier.h"
#include "tables/grid.h"

namespace perfbench {

inline constexpr double kMiB = 1024.0 * 1024.0;

template <typename Ops>
class CaseImpl final : public Case {
 public:
  using P = typename Ops::Problem;
  using V = typename P::Value;
  using Layout = typename Ops::Layout;

  CaseImpl(P problem, bool frontier)
      : p_(std::move(problem)), frontier_(frontier) {}

  std::string label() const override {
    return std::string(Ops::kName) + " " + std::to_string(p_.rows()) + "x" +
           std::to_string(p_.cols()) + (frontier_ ? " frontier" : " table");
  }
  std::size_t cells() const override { return p_.rows() * p_.cols(); }
  bool frontier() const override { return frontier_; }
  int type_id() const override { return Ops::kTypeId; }

  Answer reference() const override {
    lddp::RunConfig rc;
    rc.mode = lddp::Mode::kCpuSerial;
    const auto r = lddp::solve_frontier(p_, rc);
    return Ops::extract(p_, r.table);
  }

  Outcome run(lddp::Mode mode) const override {
    lddp::RunConfig rc;
    rc.mode = mode;
    Outcome o;
    try {
      if (frontier_) {
        const auto r = lddp::solve_frontier(p_, rc);
        o.answer = Ops::extract(p_, r.table);
        o.stats = r.stats;
      } else {
        const auto r = lddp::solve(p_, rc);
        o.answer = Ops::extract(p_, r.table);
        o.stats = r.stats;
      }
    } catch (...) {
      o.failed = true;
    }
    return o;
  }

  void stage() override { staged_ = std::make_unique<P>(p_); }

  std::optional<Pending> submit(lddp::BatchEngine& engine,
                                lddp::Mode mode) override {
    lddp::RunConfig rc;
    rc.mode = mode;
    P problem = staged_ ? std::move(*staged_) : p_;
    staged_.reset();
    if (frontier_) {
      auto f = engine.submit_frontier(std::move(problem), rc);
      if (!f) return std::nullopt;
      return Pending{take_fn(std::move(*f))};
    }
    auto f = engine.submit(std::move(problem), rc);
    if (!f) return std::nullopt;
    return Pending{take_fn(std::move(*f))};
  }

  ProbeTimes probe(const ProbeCtx& c, lddp::Mode mode,
                   const lddp::SolveStats& stats) const override;

  double lane_probe(const std::vector<const Case*>& mates, double* cells,
                    double* lockstep) const override {
    std::vector<const P*> probs;
    for (const Case* m : mates)
      probs.push_back(&static_cast<const CaseImpl*>(m)->p_);
    lddp::detail::LaneExecStats lst;
    const auto t0 = Clock::now();
    if (frontier_) {
      std::vector<std::size_t> ks;
      for (const P* q : probs)
        ks.push_back(lddp::detail::resolve_checkpoint_interval(0, q->rows()));
      auto tables = lddp::detail::solve_lane_cohort_frontier(
          probs, ks, /*batch_kernels=*/true, &lst);
      sink_ += tables.size();
    } else {
      auto tables =
          lddp::detail::solve_lane_cohort(probs, /*batch_kernels=*/true, &lst);
      sink_ += tables.size();
    }
    const double s = seconds_since(t0);
    *cells += static_cast<double>(lst.total_cells);
    *lockstep += static_cast<double>(lst.lockstep_cells);
    return s * 1e9;
  }

  lddp::sim::Timeline engine_timeline(lddp::Mode mode) const override {
    // The engine records a serial-scan charge for lane-eligible requests
    // (core/batch_engine.h) and the solo schedule for everything else.
    const std::size_t n = cells();
    if (lane_eligible(n, frontier_, mode)) {
      const lddp::RunConfig defaults;
      lddp::sim::Platform plat(defaults.platform);
      const bool use_batch =
          lddp::has_batch_front_v<P> && !p_.deps().has_w();
      plat.cpu_charge(n, lddp::detail::cpu_work_for(p_, use_batch),
                      /*parallel=*/false);
      return plat.timeline();
    }
    lddp::sim::Timeline tl;
    lddp::RunConfig rc;
    rc.mode = mode;
    rc.record_timeline = &tl;  // output sink only; no behaviour changes
    if (frontier_) {
      sink_ += lddp::solve_frontier(p_, rc).table.rows();
    } else {
      sink_ += lddp::solve(p_, rc).table.rows();
    }
    return tl;
  }

 private:
  template <typename Result>
  std::function<Outcome()> take_fn(std::future<Result> fut) {
    auto shared = std::make_shared<std::future<Result>>(std::move(fut));
    return [this, shared]() {
      Outcome o;
      try {
        const Result r = shared->get();
        o.answer = Ops::extract(p_, r.table);
        o.stats = r.stats;
      } catch (...) {
        o.failed = true;
      }
      return o;
    };
  }

  /// Contiguous-span kernel sweep over every front's interior runs; returns
  /// the cells computed.
  double kernel_sweep(const Layout& lay) const;

  P p_;
  bool frontier_;
  std::unique_ptr<P> staged_;
  mutable std::size_t sink_ = 0;  // keeps probe results observable
};

template <typename Ops>
double CaseImpl<Ops>::kernel_sweep(const Layout& lay) const {
  const lddp::ContributingSet deps = p_.deps();
  std::size_t widest = 0;
  for (std::size_t f = 0; f < lay.num_fronts(); ++f)
    widest = std::max(widest, lay.front_size(f));
  lddp::AlignedBuf<V> in, out;
  V* const src = in.ensure(widest);
  V* const dst = out.ensure(widest);
  std::fill(src, src + widest, V{});
  lddp::FrontSpan<V> s;
  s.w = deps.has_w() ? src : nullptr;
  s.nw = deps.has_nw() ? src : nullptr;
  s.n = deps.has_n() ? src : nullptr;
  s.ne = deps.has_ne() ? src : nullptr;
  s.out = dst;
  const lddp::Neighbors<V> nb{V{}, V{}, V{}, V{}};
  double cells = 0.0;
  for (std::size_t f = 0; f < lay.num_fronts(); ++f) {
    lddp::detail::FrontRun runs[2];
    const std::size_t nr = lddp::detail::front_runs(lay, f, runs);
    for (std::size_t r = 0; r < nr; ++r) {
      std::size_t a = 0, b = 0;
      lddp::detail::interior_lanes(runs[r], deps, lay.cols(), a, b);
      if (b <= a) continue;
      s.i0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(runs[r].i0) +
                                      static_cast<std::ptrdiff_t>(a) *
                                          runs[r].di);
      s.j0 = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(runs[r].j0) +
                                      static_cast<std::ptrdiff_t>(a) *
                                          runs[r].dj);
      s.di = runs[r].di;
      s.dj = runs[r].dj;
      s.len = b - a;
      bool done = false;
      if constexpr (lddp::BatchFrontProblem<P>) done = p_.compute_front(s);
      if (!done) {
        for (std::size_t k = 0; k < s.len; ++k) {
          const auto kk = static_cast<std::ptrdiff_t>(k);
          dst[k] = p_.compute(
              static_cast<std::size_t>(static_cast<std::ptrdiff_t>(s.i0) +
                                       kk * s.di),
              static_cast<std::size_t>(static_cast<std::ptrdiff_t>(s.j0) +
                                       kk * s.dj),
              nb);
        }
      }
      cells += static_cast<double>(s.len);
    }
  }
  sink_ += reinterpret_cast<const unsigned char*>(dst)[0];
  return cells;
}

template <typename Ops>
ProbeTimes CaseImpl<Ops>::probe(const ProbeCtx& c, lddp::Mode mode,
                                const lddp::SolveStats& stats) const {
  using lddp::detail::run_front_range;
  SpanLog& log = *c.log;
  Ledger& led = *c.ledger;
  const std::size_t n = p_.rows(), m = p_.cols();
  const double cells = static_cast<double>(n * m);
  const lddp::ContributingSet deps = p_.deps();
  const V bound = p_.boundary();
  const Layout lay(n, m);
  ProbeTimes out;

  // problems: the cell kernel alone, over contiguous spans.
  double kcells = 0.0;
  const double kernel_s =
      timed_span(log, "problems.kernel", c.request, c.parent,
                 [&] { kcells = kernel_sweep(lay); });
  led["problems.kernel_ns_per_cell"].add(kernel_s * 1e9, kcells);

  // tables: allocation (value-initialized, as the full-table strategies
  // allocate), then the front runner fills that grid front by front.
  std::optional<lddp::Grid<V>> grid;
  const double alloc_s = timed_span(log, "tables.alloc", c.request, c.parent,
                                    [&] { grid.emplace(n, m); });
  led["tables.alloc_ms"].add(alloc_s * 1e3);
  lddp::Grid<V>& g = *grid;
  auto gaddr = [&g](std::size_t i, std::size_t j) { return &g.at(i, j); };
  const double full_s =
      timed_span(log, "front_runner.full", c.request, c.parent, [&] {
        for (std::size_t f = 0; f < lay.num_fronts(); ++f)
          run_front_range(p_, deps, bound, lay, f, 0, lay.front_size(f), gaddr,
                          /*batch=*/true);
      });
  led["front_runner.full_ns_per_cell"].add(full_s * 1e9, cells);
  led["front_runner.gather_share"].add(
      std::max(0.0, full_s - kernel_s * cells / std::max(kcells, 1.0)),
      full_s);

  // front_runner over a contiguous rolling window, harvesting checkpoint
  // rows into a frontier table as the window engines do.
  const std::size_t w = lddp::detail::frontier_window_fronts(lay, deps);
  const std::size_t K = lddp::detail::resolve_checkpoint_interval(0, n);
  lddp::FrontierTable<V> ft = lddp::FrontierTable<V>::checkpointed(n, m, K);
  double window_s = 0.0, harvest_s = 0.0;
  if (w > 0) {
    lddp::AlignedBuf<V> win;
    lddp::detail::FrontWindow<V, Layout> fw{
        &lay, nullptr, w,
        lddp::detail::FrontWindow<V, Layout>::slot_stride(lay)};
    fw.base = win.ensure(fw.w * fw.stride);
    std::fill(fw.base, fw.base + fw.w * fw.stride, V{});
    auto waddr = [&fw](std::size_t i, std::size_t j) { return fw.addr(i, j); };
    timed_span(log, "front_runner.window", c.request, c.parent, [&] {
      for (std::size_t f = 0; f < lay.num_fronts(); ++f) {
        const auto t0 = Clock::now();
        run_front_range(p_, deps, bound, lay, f, 0, lay.front_size(f), waddr,
                        /*batch=*/true);
        const auto t1 = Clock::now();
        lddp::detail::harvest_front(ft, lay, f, n, K, waddr);
        window_s += std::chrono::duration<double>(t1 - t0).count();
        harvest_s += seconds_since(t1);
      }
    });
    lddp::detail::attach_row_remat(
        ft, [pp = &p_]() -> const P& { return *pp; }, /*batch=*/true);
  }
  led["front_runner.window_ns_per_cell"].add(window_s * 1e9, cells);

  // tables: the caller's traceback over the full table and over the
  // frontier table; the difference is rematerialization.
  Answer full_ans, front_ans;
  const double tb_full_s =
      timed_span(log, "tables.traceback_full", c.request, c.parent,
                 [&] { full_ans = Ops::extract(p_, g); });
  double tb_front_s = tb_full_s;
  if (w > 0)
    tb_front_s =
        timed_span(log, "tables.traceback_frontier", c.request, c.parent,
                   [&] { front_ans = Ops::extract(p_, ft); });
  else
    front_ans = full_ans;
  led["tables.traceback_ms"].add(tb_full_s * 1e3);
  led["tables.remat_ms"].add((tb_front_s - tb_full_s) * 1e3);
  out.full_answer = full_ans;
  out.frontier_answer = front_ans;
  led["tables.peak_table_mib"].add(
      static_cast<double>(stats.peak_table_bytes) / kMiB);
  led["tables.checkpoint_rows"].add(
      static_cast<double>(stats.checkpoint_rows));

  // cpu: the widest front on the shared stealing executor vs inline, and an
  // empty region at the morsel size the executor actually used.
  std::size_t fmax = 0;
  for (std::size_t f = 0; f < lay.num_fronts(); ++f)
    if (lay.front_size(f) > lay.front_size(fmax)) fmax = f;
  const std::size_t fs = lay.front_size(fmax);
  const std::size_t reps = std::max<std::size_t>(1, (1u << 21) / fs);
  const lddp::RunConfig defaults;
  const bool use_batch = lddp::detail::use_batch_front(p_, lay, deps, true);
  const lddp::cpu::WorkProfile work = lddp::detail::cpu_work_for(p_, use_batch);
  lddp::sim::Platform::CpuFrontOpts opts;
  opts.mem_amplification = lddp::classify(deps) == lddp::Pattern::kHorizontal
                               ? 1.0
                               : lddp::detail::kDiagonalCpuAmplification;
  std::atomic<std::size_t> morsel{std::numeric_limits<std::size_t>::max()};
  auto body = [&](std::size_t lo, std::size_t hi) {
    run_front_range(p_, deps, bound, lay, fmax, lo, hi, gaddr, true);
    std::size_t cur = morsel.load();
    while (hi - lo < cur && !morsel.compare_exchange_weak(cur, hi - lo)) {
    }
  };
  lddp::sim::Platform exec_plat(defaults.platform,
                                &lddp::cpu::shared_stealing_pool());
  lddp::sim::Platform inline_plat(defaults.platform, nullptr);
  const double exec_s = timed_span(log, "cpu.front_executor", c.request,
                                   c.parent, [&] {
                                     for (std::size_t r = 0; r < reps; ++r)
                                       exec_plat.cpu_front(fs, work, body,
                                                           opts);
                                   });
  const double inline_s = timed_span(log, "cpu.front_inline", c.request,
                                     c.parent, [&] {
                                       for (std::size_t r = 0; r < reps; ++r)
                                         inline_plat.cpu_front(fs, work, body,
                                                               opts);
                                     });
  led["cpu.front_speedup"].add(inline_s, exec_s);
  const std::size_t grain = std::min(morsel.load(), fs);
  constexpr std::size_t kRegions = 64;
  const double region_s =
      timed_span(log, "cpu.region", c.request, c.parent, [&] {
        for (std::size_t r = 0; r < kRegions; ++r)
          lddp::cpu::shared_executor().parallel_region(
              0, fs, grain, [](std::size_t, std::size_t) {});
      });
  led["cpu.region_us"].add(region_s * 1e6, kRegions);

  // tables: unpack of a wavefront-major buffer into the row-major grid
  // (the device-mode full-table path).
  std::vector<V> device(lay.size(), V{});
  const double unpack_s =
      timed_span(log, "tables.unpack", c.request, c.parent, [&] {
        lddp::detail::unpack_table(device.data(), lay, g, 0, m);
      });
  led["tables.unpack_ns_per_cell"].add(unpack_s * 1e9, cells);
  device = std::vector<V>();
  grid.reset();

  // sim: the recorded schedule, replayed op by op into a fresh timeline.
  const lddp::sim::Timeline tl = engine_timeline(mode);
  lddp::sim::Timeline fresh;
  for (std::size_t r = 0; r < tl.resource_count(); ++r)
    fresh.add_resource(tl.resource_name(static_cast<std::uint32_t>(r)));
  const double record_s =
      timed_span(log, "sim.record", c.request, c.parent, [&] {
        for (lddp::sim::OpId op = 0; op < tl.op_count(); ++op)
          fresh.record(tl.op_resource(op), tl.op_duration(op), tl.op_deps(op),
                       tl.op_label(op));
      });
  led["sim.ops_per_solve"].add(static_cast<double>(tl.op_count()));
  led["sim.record_ns_per_op"].add(record_s * 1e9,
                                  static_cast<double>(tl.op_count()));
  led["sim.cpu_busy_ms"].add(stats.cpu_busy_seconds * 1e3);
  led["sim.gpu_busy_ms"].add(stats.gpu_busy_seconds * 1e3);
  led["sim.copy_busy_ms"].add(stats.copy_busy_seconds * 1e3);
  led["sim.pcie_mib"].add(
      static_cast<double>(stats.h2d_bytes + stats.d2h_bytes) / kMiB);

  const bool device_mode = mode == lddp::Mode::kGpu ||
                           mode == lddp::Mode::kHeterogeneous;
  out.front_runner_s = frontier_ ? window_s : full_s;
  out.tables_s = frontier_ ? harvest_s
                           : alloc_s + (device_mode ? unpack_s : 0.0);
  out.traceback_s = frontier_ ? tb_front_s : tb_full_s;
  return out;
}

}  // namespace perfbench
