// Chrome-trace export of the simulated schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/levenshtein.h"
#include "sim/launch_graph.h"
#include "sim/platform.h"

namespace lddp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TraceExportTest, TimelineWritesLabelledEvents) {
  sim::Timeline tl;
  const auto cpu = tl.add_resource("cpu");
  const auto gpu = tl.add_resource("gpu.compute");
  const auto a = tl.record(cpu, 1e-3, sim::kNoOp, sim::kNoOp, "cpu.front");
  tl.record(gpu, 2e-3, a, sim::kNoOp, "kernel");
  EXPECT_EQ(tl.op_resource(a), cpu);
  EXPECT_STREQ(tl.op_label(a), "cpu.front");

  const std::string path = ::testing::TempDir() + "/lddp_trace_unit.json";
  tl.export_chrome_trace(path);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"cpu.front\""), std::string::npos);
  EXPECT_NE(body.find("\"kernel\""), std::string::npos);
  EXPECT_NE(body.find("\"gpu.compute\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(body.front(), '[');
  std::remove(path.c_str());
}

TEST(TraceExportTest, UnlabelledOpsGetPlaceholder) {
  sim::Timeline tl;
  const auto r = tl.add_resource("r");
  tl.record(r, 1e-3);
  const std::string path = ::testing::TempDir() + "/lddp_trace_unnamed.json";
  tl.export_chrome_trace(path);
  EXPECT_NE(slurp(path).find("\"op\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExportTest, SolveHonoursTracePath) {
  problems::LevenshteinProblem p(problems::random_sequence(64, 1),
                                 problems::random_sequence(64, 2));
  RunConfig cfg;
  cfg.mode = Mode::kHeterogeneous;
  cfg.trace_path = ::testing::TempDir() + "/lddp_trace_solve.json";
  solve(p, cfg);
  const std::string body = slurp(cfg.trace_path);
  EXPECT_NE(body.find("\"cpu\""), std::string::npos);
  // Kernels carry their strategy's KernelInfo name.
  EXPECT_NE(body.find("\"hetero.ad\""), std::string::npos);
  EXPECT_EQ(body.find("\"kernel\""), std::string::npos);
  EXPECT_NE(body.find("\"h2d\""), std::string::npos);
  std::remove(cfg.trace_path.c_str());

  cfg.mode = Mode::kGpu;
  cfg.trace_path = ::testing::TempDir() + "/lddp_trace_gpu.json";
  solve(p, cfg);
  EXPECT_NE(slurp(cfg.trace_path).find("\"gpu.front\""), std::string::npos);
  std::remove(cfg.trace_path.c_str());
}

// Tiled kernels are labelled by their strategy's KernelInfo name too,
// eager and fused: no op keeps the placeholder "kernel".
TEST(TraceExportTest, TiledKernelsCarryTheirName) {
  problems::LevenshteinProblem p(problems::random_sequence(128, 1),
                                 problems::random_sequence(128, 2));
  const std::pair<Mode, const char*> cases[] = {
      {Mode::kGpu, "gpu.tile"}, {Mode::kHeterogeneous, "hetero.tile"}};
  for (const auto& [mode, name] : cases) {
    for (bool fused : {false, true}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.tile = 16;
      cfg.hetero = {32, 32};
      cfg.fused_launches = fused;
      sim::Timeline tl;
      cfg.record_timeline = &tl;
      solve(p, cfg);
      std::size_t kernels = 0;
      for (sim::OpId op = 0; op < tl.op_count(); ++op) {
        EXPECT_STRNE(tl.op_label(op), "kernel") << name << " fused " << fused;
        if (std::strcmp(tl.op_label(op), name) == 0) ++kernels;
      }
      EXPECT_GT(kernels, 0u) << name << " fused " << fused;
    }
  }
}

// A kernel's name is its timeline label and nothing else: the same
// launches, eager and fused, record the same ops — resources, durations,
// deps — whatever the name.
TEST(TraceExportTest, KernelNameChangesOnlyTheLabel) {
  auto record = [](const char* name) {
    sim::Timeline tl;
    sim::Device dev(sim::GpuSpec::tesla_k20(), tl);
    sim::KernelInfo info;
    if (name != nullptr) info.name = name;
    const auto s = dev.default_stream();
    const auto a = dev.launch(s, info, 1000, [](std::size_t) {});
    dev.launch(s, info, 50000, [](std::size_t) {}, a);
    sim::LaunchGraph graph(dev, /*fused=*/true);
    for (std::size_t n : {10, 2000, 300})
      graph.launch(s, info, n, [](std::size_t) {});
    graph.replay();
    return tl;
  };
  const sim::Timeline plain = record(nullptr), named = record("unit.k");
  ASSERT_EQ(plain.op_count(), named.op_count());
  std::size_t kernels = 0;
  for (sim::OpId op = 0; op < plain.op_count(); ++op) {
    if (std::strcmp(plain.op_label(op), "kernel") == 0) {
      ++kernels;
      EXPECT_STREQ(named.op_label(op), "unit.k");
    } else {
      EXPECT_STREQ(named.op_label(op), plain.op_label(op));
    }
    EXPECT_EQ(plain.op_resource(op), named.op_resource(op));
    EXPECT_EQ(plain.op_duration(op), named.op_duration(op));
    EXPECT_EQ(plain.start_time(op), named.start_time(op));
    const auto da = plain.op_deps(op), db = named.op_deps(op);
    EXPECT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()));
  }
  EXPECT_EQ(kernels, 5u);
}

TEST(TraceExportTest, BadPathThrows) {
  sim::Timeline tl;
  tl.add_resource("r");
  EXPECT_THROW(tl.export_chrome_trace("/nonexistent_dir/trace.json"),
               CheckError);
}

}  // namespace
}  // namespace lddp
