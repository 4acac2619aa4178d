// Shared types of the end-to-end benchmark (perfbench): requests, answers,
// the per-layer ledger and the span log.
//
// The benchmark drives only the public API (solve(), solve_frontier() plus
// tracebacks, BatchEngine::submit/submit_frontier/wait) and the public
// functions of each layer, and sets only RunConfig::mode and the batch's
// load-shape fields (concurrency, threads_per_solve, queue_capacity).
// Every other knob stays at its default, so a PR that changes a default is
// measured the way a caller sees it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/run_config.h"
#include "sim/timeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The answer a caller holds after a request: final cell / best score,
/// traceback score and length, or a digest of the returned image. Compared
/// field by field against the serial reference computed during set-up.
struct Answer {
  std::int64_t v[3] = {0, 0, 0};
  bool operator==(const Answer&) const = default;
};

/// FNV-1a over a byte sequence, for digests of alignments, seams and
/// bitmaps.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int k = 0; k < 8; ++k) {
      h ^= (x >> (8 * k)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  std::int64_t value() const { return static_cast<std::int64_t>(h >> 1); }
};

/// Running sum over a ratio: value() = num / den (0 when den is 0).
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  void add(double n, double d = 1.0) {
    num += n;
    den += d;
  }
  double value() const { return den > 0.0 ? num / den : 0.0; }
};

/// Per-layer accumulators of the traced run, keyed by ledger metric name.
using Ledger = std::map<std::string, Ratio>;

/// One span of the traced run. Spans stay in memory and are written when
/// the run ends.
struct Span {
  const char* name = "";
  std::size_t request = 0;
  long parent = -1;  ///< index of the causing span, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span and returns its index; close() stamps the end.
  long open(const char* name, std::size_t request, long parent) {
    spans_.push_back(Span{name, request, parent, now(), 0.0});
    return static_cast<long>(spans_.size()) - 1;
  }
  double close(long id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    return s.end_s - s.start_s;
  }
  /// Records a finished span measured elsewhere.
  long add(const char* name, std::size_t request, long parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, request, parent, at(start), at(end)});
    return static_cast<long>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(origin_); }
  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn` as a span named `name` under `parent`; returns its duration
/// in seconds.
template <typename Fn>
double timed_span(SpanLog& log, const char* name, std::size_t request,
                  long parent, Fn&& fn) {
  const long id = log.open(name, request, parent);
  fn();
  return log.close(id);
}

/// What the traced probes of one request hand back to the framework span.
struct ProbeTimes {
  double front_runner_s = 0.0;  ///< front runner on the request's tier
  double tables_s = 0.0;        ///< alloc + unpack on the request's path
  double traceback_s = 0.0;     ///< answer extraction on the request's tier
  /// The answer recomputed by the probes from their own full and frontier
  /// tables; both must equal the reference.
  Answer full_answer, frontier_answer;
};

/// Context of the traced probes of one request.
struct ProbeCtx {
  SpanLog* log = nullptr;
  Ledger* ledger = nullptr;
  std::size_t request = 0;
  long parent = -1;
};

/// A request's outcome on the request path.
struct Outcome {
  Answer answer;
  lddp::SolveStats stats;
  bool failed = false;  ///< threw, refused, or a structured failure
};

/// A submitted batch request: take() blocks on the future and extracts the
/// answer, the way a caller consumes it.
struct Pending {
  std::function<Outcome()> take;
};

/// One distinct problem instance (kind x input x shape) of a workload, with
/// its storage tier fixed: solve() returns the row-major table,
/// solve_frontier() the checkpointed one. Implemented per problem type in
/// cases.h; the workload code only sees this interface.
class Case {
 public:
  virtual ~Case() = default;
  virtual std::string label() const = 0;
  virtual std::size_t cells() const = 0;
  virtual bool frontier() const = 0;
  /// Serial-reference answer (Mode::kCpuSerial on the frontier tier).
  virtual Answer reference() const = 0;
  /// Request path of a solo caller: the solve*() call plus its traceback.
  virtual Outcome run(lddp::Mode mode) const = 0;
  /// Copies the problem for the next submit() (outside the timed wall).
  virtual void stage() = 0;
  /// Request path of a batch caller: submit() or submit_frontier() of the
  /// staged copy. Returns nothing when the engine refused the request.
  virtual std::optional<Pending> submit(lddp::BatchEngine& engine,
                                        lddp::Mode mode) = 0;
  /// Per-layer probes on this request's exact shape (traced run only).
  virtual ProbeTimes probe(const ProbeCtx& ctx, lddp::Mode mode,
                           const lddp::SolveStats& stats) const = 0;
  /// Lane-cohort entry point over same-type cases (this one first);
  /// returns ns spent and adds the cells and lockstep cells it ran.
  virtual double lane_probe(const std::vector<const Case*>& mates,
                            double* cells, double* lockstep) const = 0;
  /// The simulated schedule the batch engine records for this request.
  virtual lddp::sim::Timeline engine_timeline(lddp::Mode mode) const = 0;
  /// Type tag for grouping lane cohorts.
  virtual int type_id() const = 0;
};

/// One request of a workload's list: a case and the mode it runs in.
struct Request {
  std::size_t case_index = 0;
  lddp::Mode mode = lddp::Mode::kCpuParallel;
};

/// A workload instance: its cases, reference answers and request cycle.
/// The cycle repeats; runs consume whole cycles so every run sees the same
/// request mix.
struct Workload {
  std::vector<std::unique_ptr<Case>> cases;
  std::vector<Answer> expected;  ///< per case
  std::vector<Request> cycle;
  std::size_t wave = 0;  ///< batch: requests per wave (0 = solo)
};

/// Appends the solo-table / solo-frontier / batch-mixed cases.
void add_solo_table_cases(Workload& w, std::uint64_t seed);
void add_solo_frontier_cases(Workload& w, std::uint64_t seed);
void add_batch_cases(Workload& w, std::uint64_t seed);

/// Whether the batch engine runs this request as a lane job (its rule in
/// core/batch_engine.h: cpu-resolved, and on the full tier at most
/// kLaneMaxCells cells).
inline bool lane_eligible(std::size_t cells, bool frontier, lddp::Mode mode) {
  const lddp::Mode resolved = lddp::detail::resolve_auto(mode, cells);
  return (resolved == lddp::Mode::kCpuSerial ||
          resolved == lddp::Mode::kCpuParallel) &&
         (frontier || cells <= lddp::detail::kLaneMaxCells);
}

/// The per-layer ledger: every metric, its unit, and the end-to-end metric
/// and workload it should move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
  const char* on;
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench
