// Defining your own LDDP-Plus problem (Section V-C: "a user has to provide
// the function f and the initialization") and tuning it empirically.
//
// The problem here is a weighted "longest snake" score: each cell extends
// the best of its N and NE predecessors with a reward for increasing
// terrain height — contributing set {N, NE}, which the framework maps to
// the Horizontal pattern with one-way (GPU->CPU) pipelined transfers.
#include <cstdio>

#include "core/framework.h"
#include "core/tuner.h"
#include "problems/synthetic.h"

namespace {

// A problem type is any class satisfying lddp::LddpProblem: a Value type,
// table dimensions, the contributing set, a boundary value, and f itself.
class SnakeProblem {
 public:
  using Value = std::int64_t;

  explicit SnakeProblem(lddp::Grid<std::int32_t> height)
      : height_(std::move(height)) {}

  std::size_t rows() const { return height_.rows(); }
  std::size_t cols() const { return height_.cols(); }

  lddp::ContributingSet deps() const {
    return lddp::ContributingSet{lddp::Dep::kN, lddp::Dep::kNE};
  }

  Value boundary() const { return 0; }

  Value compute(std::size_t i, std::size_t j,
                const lddp::Neighbors<Value>& nb) const {
    const Value best = nb.n > nb.ne ? nb.n : nb.ne;
    const Value reward = height_.at(i, j) % 7;
    return best + reward;
  }

  lddp::cpu::WorkProfile work() const {
    return lddp::cpu::WorkProfile{11.0, 42.0, 24.0};
  }
  std::size_t input_bytes() const {
    return height_.size() * sizeof(std::int32_t);
  }

 private:
  lddp::Grid<std::int32_t> height_;
};

static_assert(lddp::LddpProblem<SnakeProblem>);

}  // namespace

int main() {
  using namespace lddp;

  SnakeProblem problem(problems::random_input_grid(1500, 1500, /*seed=*/3));

  std::printf("pattern: %s, transfers: %s\n",
              to_string(classify(problem.deps())).c_str(),
              to_string(transfer_need(problem.deps())).c_str());

  // Let the tuner find t_switch / t_share empirically (Section V-A).
  RunConfig cfg;
  cfg.platform = sim::PlatformSpec::hetero_high();
  const TuneResult tuned = tune(problem, cfg, /*samples_per_sweep=*/9);
  std::printf("tuned parameters: t_switch=%lld t_share=%lld\n",
              tuned.best.t_switch, tuned.best.t_share);
  std::printf("t_share sweep (cells -> simulated ms):\n");
  for (std::size_t k = 0; k < tuned.share_values.size(); ++k)
    std::printf("  %6lld -> %8.3f\n", tuned.share_values[k],
                tuned.share_seconds[k] * 1e3);

  cfg.mode = Mode::kHeterogeneous;
  cfg.hetero = tuned.best;
  const auto hetero = solve(problem, cfg);
  std::printf("heterogeneous (tuned): %.3f ms simulated\n",
              hetero.stats.sim_seconds * 1e3);
  for (Mode mode : {Mode::kCpuParallel, Mode::kGpu}) {
    RunConfig alt = cfg;
    alt.mode = mode;
    const auto r = solve(problem, alt);
    std::printf("%-22s: %.3f ms simulated (tables match: %s)\n",
                to_string(mode).c_str(), r.stats.sim_seconds * 1e3,
                r.table.to_grid() == hetero.table.to_grid() ? "yes" : "NO");
  }
  return 0;
}
