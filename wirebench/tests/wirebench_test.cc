#include <unistd.h>

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "report.h"
#include "runner.h"

namespace wirebench {
namespace {

RunConfig ShortRun(const std::string& workload) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.5;
  config.setup_repeats = 1;
  // Relative to the test's working directory (the build directory).
  config.work_dir =
      "wirebench-test-" + std::to_string(getpid()) + "-" + workload;
  return config;
}

void ExpectMetric(const Report& report, const std::string& name,
                  const std::string& unit) {
  const Metric* m = report.Find(name);
  ASSERT_NE(m, nullptr) << name;
  EXPECT_EQ(m->unit, unit) << name;
}

TEST(WirebenchTest, ShortRunOfEachWorkloadEmitsItsMetrics) {
  // The end-to-end metrics of the verbs each workload issues.
  const std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      verbs = {
          {"point_mix",
           {{"solve_p50_us", "us"}, {"delta_p50_us", "us"},
            {"first_page_p50_us", "us"}}},
          {"answer_stream",
           {{"delta_p50_us", "us"}, {"first_page_p50_us", "us"},
            {"stream_p50_ms", "ms"}}},
          {"frontier_decide", {{"solve_p50_us", "us"}}},
      };
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    cqa::Result<Report> report = RunBenchmark(ShortRun(workload));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->correct) << report->first_error;
    EXPECT_GT(report->attempted, 0u);
    EXPECT_EQ(report->failed, 0u) << report->first_error;
    for (const auto& [name, unit] :
         std::vector<std::pair<std::string, std::string>>{
             {"throughput_rps", "req/s"},
             {"latency_p50_us", "us"},
             {"error_rate", "failed/attempted"},
             {"setup_s", "s"},
             {"peak_rss_mb", "MB"}}) {
      ExpectMetric(*report, name, unit);
    }
    for (const auto& [name, unit] : verbs.at(workload)) {
      ExpectMetric(*report, name, unit);
    }
    EXPECT_TRUE(report->layers.empty());
    EXPECT_TRUE(report->spans.empty());
  }
}

TEST(WirebenchTest, TracedChildSpansNestUnderTheirRoot) {
  RunConfig config = ShortRun("point_mix");
  config.trace = true;
  cqa::Result<Report> report = RunBenchmark(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->correct) << report->first_error;
  ASSERT_FALSE(report->spans.empty());

  std::map<uint64_t, const Span*> roots;
  for (const Span& s : report->spans) {
    if (s.parent == 0) roots[s.id] = &s;
  }
  std::set<std::string> child_names;
  size_t children = 0;
  for (const Span& s : report->spans) {
    if (s.parent == 0) continue;
    ++children;
    child_names.insert(s.name);
    auto root = roots.find(s.parent);
    ASSERT_NE(root, roots.end()) << s.name << " has no root";
    EXPECT_GE(s.start, root->second->start) << s.name;
    EXPECT_LE(s.end, root->second->end) << s.name;
    EXPECT_LE(s.start, s.end) << s.name;
  }
  EXPECT_GT(children, roots.size());
  for (const char* name :
       {"wire", "serve.service_solve", "serve.service_delta",
        "serve.service_first_page", "net.codec_encode", "net.codec_decode",
        "plan.get_or_compile_hit", "plan.compile", "core.classify",
        "cq.index_build", "cq.enumerate", "fo.decide", "solvers.fo_decide",
        "store.append", "db.apply"}) {
    EXPECT_EQ(child_names.count(name), 1u) << name;
  }
  for (const char* name :
       {"net.solve_self_us", "net.delta_self_us", "net.page_self_us",
        "serve.delta_self_us", "store.append_us", "db.apply_us",
        "store.wal_bytes_per_delta_byte", "plan.cache_hit_ratio",
        "trace.overhead_us"}) {
    EXPECT_NE(report->Find(name), nullptr) << name;
  }
}

TEST(WirebenchTest, TracedRunOfEachWorkloadEmitsTheSharedLayerMetrics) {
  // The per-layer metrics every workload reports (BENCHMARK.json's
  // per_layer list), plus each workload's own layers.
  const std::map<std::string, std::vector<std::string>> own = {
      {"point_mix", {"serve.delta_self_us", "store.append_us"}},
      {"answer_stream",
       {"cq.enumerate_us", "fo.decide_us", "net.page_self_us",
        "net.bytes_per_row", "serve.rows_decided_per_stream"}},
      {"frontier_decide",
       {"solvers.fo_decide_us", "solvers.terminal_cycle_decide_us",
        "solvers.ck_decide_us", "solvers.ack_decide_us",
        "solvers.sat_decide_us", "solvers.sat_clauses"}},
  };
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    RunConfig config = ShortRun(workload);
    config.trace = true;
    cqa::Result<Report> report = RunBenchmark(config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->correct) << report->first_error;
    for (const char* name :
         {"net.self_us", "net.codec_encode_us", "net.codec_decode_us",
          "serve.service_us", "plan.get_or_compile_hit_us",
          "plan.compile_us", "core.classify_us", "cq.index_build_us"}) {
      ExpectMetric(*report, name, "us");
      EXPECT_GT(report->Find(name)->value, 0) << name;
    }
    ExpectMetric(*report, "trace.overhead_us", "us");
    for (const std::string& name : own.at(workload)) {
      EXPECT_NE(report->Find(name), nullptr) << name;
    }
  }
}

TEST(WirebenchTest, RefusedRequestsCountInErrorRate) {
  RunConfig config = ShortRun("frontier_decide");
  config.refuse_every = 5;
  cqa::Result<Report> report = RunBenchmark(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // A refusal is a failure, not a wrong answer.
  EXPECT_TRUE(report->correct);
  EXPECT_GT(report->failed, 0u);
  EXPECT_NE(report->first_error.find("NotFound"), std::string::npos)
      << report->first_error;
  const Metric* error_rate = report->Find("error_rate");
  ASSERT_NE(error_rate, nullptr);
  EXPECT_DOUBLE_EQ(error_rate->value,
                   static_cast<double>(report->failed) / report->attempted);
  EXPECT_GT(error_rate->value, 0.1);
}

}  // namespace
}  // namespace wirebench
