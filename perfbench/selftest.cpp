// Self-tests of the benchmark's own code: the percentile helper, the
// error-rate accounting, the result line, and a seconds-long smoke run of
// the whole pipeline on a tiny spec (25 agents, 10 steps).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanksAndCountsSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = percentile(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99).value, 99.01);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0).value, 100.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0}), 2.5);
}

TEST(Percentile, EdgeCases) {
  const Percentile none = percentile({}, 0.99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
  const Percentile one = percentile({7.0}, 0.99);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_DOUBLE_EQ(one.value, 7.0);
  EXPECT_ANY_THROW(percentile({1.0, 2.0}, 1.5));
}

TEST(OpCount, FailedRunsCountAllTheirOperations) {
  OpCount ops;
  EXPECT_DOUBLE_EQ(ops.error_rate(), 1.0);  // nothing attempted
  ops.add_run(10, true);
  EXPECT_DOUBLE_EQ(ops.error_rate(), 0.0);
  ops.add_run(5, false);
  EXPECT_EQ(ops.attempted, 15u);
  EXPECT_EQ(ops.failed, 5u);
  EXPECT_DOUBLE_EQ(ops.error_rate(), 5.0 / 15.0);
  ops.fail_all();
  EXPECT_EQ(ops.failed, 15u);
  EXPECT_DOUBLE_EQ(ops.error_rate(), 1.0);
}

TEST(ResultJson, HasTheContractKeys) {
  Outcome o;
  o.correct = true;
  o.ops.add_run(3, true);
  o.metrics = {{"run_s", 1.5, "s"}};
  EXPECT_EQ(result_json(o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}

TEST(Workloads, NamesAreUniqueAndRecordedDigestsExist) {
  std::set<std::string> names;
  for (const Workload& w : workloads()) {
    EXPECT_TRUE(names.insert(w.name).second) << w.name;
    EXPECT_NE(find_workload(w.name), nullptr);
    EXPECT_NE(recorded_digest(w.name, kDefaultSeed), 0u) << w.name;
    EXPECT_NE(recorded_digest(w.name, kHeldOutSeed), 0u) << w.name;
  }
  EXPECT_EQ(find_workload("nope"), nullptr);
}

Workload tiny(const std::vector<std::string>& extra) {
  Workload w{"smoke", "scaling_ville1", {"window_begin=4320", "window_end=4330"},
             10.0};
  w.overrides.insert(w.overrides.end(), extra.begin(), extra.end());
  return w;
}

std::set<std::string> names_of(const Outcome& o) {
  std::set<std::string> out;
  for (const Metric& m : o.metrics) out.insert(m.name);
  return out;
}

TEST(Smoke, UntracedRunReportsEveryEndToEndMetric) {
  // DES, then the engine through ScenarioDriver::run.
  for (const std::vector<std::string>& backend :
       {std::vector<std::string>{},
        std::vector<std::string>{"backend=engine", "clock=wall", "workers=2",
                                 "call_latency_us=0"}}) {
    Options opt;
    opt.seconds = 0.001;
    const Outcome o = run(tiny(backend), opt);
    EXPECT_TRUE(o.correct);
    EXPECT_EQ(o.ops.failed, 0u);
    // Two runs of 25 agents x 10 steps plus the window's calls each.
    EXPECT_GT(o.ops.attempted, 2u * 250u);
    EXPECT_EQ(o.ops.attempted % 2, 0u);
    EXPECT_EQ(names_of(o), (std::set<std::string>{"setup_s", "run_s", "sim_s",
                                                  "speedup_vs_sync", "peak_rss_mib",
                                                  "success_rate"}));
    for (const Metric& m : o.metrics) EXPECT_GT(m.value, 0.0) << m.name;
  }
}

TEST(Smoke, SeveralTracesRunEachOnceAndTheFirstTwice) {
  Workload w = tiny({});
  w.traces = 3;
  Options opt;
  opt.seconds = 0.001;
  const Outcome o = run(w, opt);
  EXPECT_TRUE(o.correct);
  EXPECT_EQ(o.ops.failed, 0u);
  // Four runs of 25 agents x 10 steps plus each trace's window calls.
  EXPECT_GT(o.ops.attempted, 4u * 250u);
  for (const Metric& m : o.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST(Smoke, TracedEngineRunReportsEveryLayer) {
  Options opt;
  opt.trace = true;
  const Outcome o = run(
      tiny({"backend=engine", "clock=wall", "workers=2", "call_latency_us=0"}), opt);
  EXPECT_TRUE(o.correct);
  const std::set<std::string> names = names_of(o);
  for (const char* expected :
       {"world.map_s", "trace.generate_s", "trace.slice_s", "replay.des_events",
        "core.commit_p99_us", "core.commit_samples", "engine.step_fn_p99_us",
        "engine.llm_busy_s", "traced.run_s", "traced.overhead"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

}  // namespace
}  // namespace perfbench
