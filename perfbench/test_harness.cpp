// Tests of the benchmark's own measurement code: percentile selection under
// the ten-samples-beyond rule, open-loop due-time accounting and span
// self-time arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_FALSE(percentile(one_to(199), 95.0).has_value());
  ASSERT_TRUE(percentile(one_to(200), 95.0).has_value());
  // Nearest rank 190 of 200: samples 191..200 lie beyond it.
  EXPECT_EQ(*percentile(one_to(200), 95.0), 190.0);
  EXPECT_EQ(*percentile(one_to(240), 95.0), 228.0);
  EXPECT_FALSE(percentile(one_to(999), 99.0).has_value());
  EXPECT_TRUE(percentile(one_to(1000), 99.0).has_value());
  EXPECT_FALSE(percentile(one_to(19), 50.0).has_value());
  EXPECT_EQ(*percentile(one_to(20), 50.0), 10.0);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(240);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(*percentile(v, 50.0), 120.0);
  EXPECT_EQ(*percentile(v, 95.0), 228.0);
}

TEST(Percentile, RejectsOutOfRangeP) {
  EXPECT_THROW(percentile(one_to(10), 0.0), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(10), 100.0), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// A simulated clock: submit() and sleep() advance it; each job finishes a
// fixed service time after it was submitted.
struct FakeSystem {
  double t = 0.0;
  double service_s = 0.05;
  std::size_t stalled_job = static_cast<std::size_t>(-1);
  double stall_s = 0.0;
  std::vector<double> submit_at;

  explicit FakeSystem(std::size_t jobs) : submit_at(jobs, -1.0) {}

  // Job i due at start + i / rate.
  std::vector<OpenLoopRecord> run(double start_s, double rate_per_s) {
    std::vector<double> offsets(submit_at.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      offsets[i] = static_cast<double>(i) / rate_per_s;
    }
    return run(OpenLoopSchedule{start_s, offsets});
  }

  std::vector<OpenLoopRecord> run(const OpenLoopSchedule& schedule) {
    return run_open_loop(
        schedule, 0.001, [&] { return t; },
        [&](double until) { t = std::max(t, until); },
        [&](std::size_t i) {
          submit_at[i] = t;
          if (i == stalled_job) t += stall_s;
        },
        [&](std::size_t i) {
          const bool done = t >= submit_at[i] + service_s;
          return JobProgress{true, done};
        });
  }
};

TEST(OpenLoop, JobsAreDueOnScheduleAndTimedFromDue) {
  FakeSystem sys(10);
  const auto records = sys.run(1.0, 10.0);
  ASSERT_EQ(records.size(), 10u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(records[i].due_s, 1.0 + 0.1 * static_cast<double>(i));
    EXPECT_NEAR(records[i].lateness_s(), 0.0, 1e-12);
    // Service time, rounded up to the 1 ms poll.
    EXPECT_GE(records[i].latency_s(), 0.05 - 1e-12);
    EXPECT_LE(records[i].latency_s(), 0.051 + 1e-9);
  }
}

TEST(OpenLoop, ExplicitOffsetsSetTheDueTimes) {
  FakeSystem sys(3);
  const auto records = sys.run(OpenLoopSchedule{2.0, {0.0, 0.01, 0.5}});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].due_s, 2.0);
  EXPECT_DOUBLE_EQ(records[1].due_s, 2.01);
  EXPECT_DOUBLE_EQ(records[2].due_s, 2.5);
  for (const OpenLoopRecord& r : records) {
    EXPECT_NEAR(r.lateness_s(), 0.0, 1e-12);
  }
}

TEST(OpenLoop, StalledSubmitChargesTheJobsQueuedBehindIt) {
  FakeSystem sys(10);
  sys.stalled_job = 2;
  sys.stall_s = 0.35;  // job 2's submit blocks until t = 1.55
  const auto records = sys.run(1.0, 10.0);
  // Jobs 3, 4 and 5 were due during the stall: they are submitted late and
  // their latency counts from the due time, not the late submit.
  for (std::size_t i = 3; i <= 5; ++i) {
    EXPECT_NEAR(records[i].submitted_s, 1.55, 1e-9) << i;
    EXPECT_NEAR(records[i].lateness_s(), 1.55 - records[i].due_s, 1e-9) << i;
    EXPECT_GE(records[i].latency_s(), records[i].lateness_s() + 0.05 - 1e-9)
        << i;
  }
  EXPECT_GT(records[3].latency_s(), records[5].latency_s());
  // Jobs due after the stall ended are unaffected.
  EXPECT_NEAR(records[7].lateness_s(), 0.0, 1e-12);
  EXPECT_LE(records[7].latency_s(), 0.051 + 1e-9);
  // The stalled job itself is charged from its own due time too.
  EXPECT_GE(records[2].latency_s(), 0.35 - 1e-9);
}

TEST(OpenLoop, QueueWaitIsDueToFirstProgress) {
  OpenLoopRecord r;
  r.due_s = 2.0;
  r.submitted_s = 2.5;
  r.started_s = 3.0;
  r.done_s = 4.0;
  EXPECT_DOUBLE_EQ(r.queue_wait_s(), 1.0);
  EXPECT_DOUBLE_EQ(r.latency_s(), 2.0);
  EXPECT_DOUBLE_EQ(r.lateness_s(), 0.5);
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  return Span{name, start, end, parent};
}

TEST(SelfTime, SubtractsChildCoverage) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("a", 10, 30, 0),
      span("b", 40, 70, 0),
      span("a.x", 12, 20, 1),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 30);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 8);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children recorded on two threads under one parent may overlap.
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("c", 10, 50, 0),
      span("c", 30, 60, 0),
      span("c", 55, 58, 0),
  };
  EXPECT_EQ(self_times(spans)[0], 100 - 50);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      span("root", 10, 50, -1),
      span("c", 0, 20, 0),
      span("d", 40, 90, 0),
  };
  EXPECT_EQ(self_times(spans)[0], 40 - 10 - 10);
}

TEST(SelfTime, AggregateSumsByName) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("step", 0, 10, 0),
      span("step", 20, 50, 0),
  };
  const auto agg = aggregate(spans);
  EXPECT_EQ(agg.at("step").count, 2u);
  EXPECT_EQ(agg.at("step").total_ns, 40);
  EXPECT_DOUBLE_EQ(agg.at("step").mean_ns(), 20.0);
  EXPECT_EQ(agg.at("root").self_ns, 60);
}

TEST(Tracer, NestsSpansPerThread) {
  Tracer tr;
  {
    Scope outer(&tr, "outer");
    { Scope inner(&tr, "inner"); }
    { Scope inner(&tr, "inner"); }
  }
  { Scope other(&tr, "other"); }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  for (const Span& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
  const auto self = self_times(spans);
  EXPECT_GE(self[0], 0);
}

TEST(Tracer, NullTracerScopeIsANoOp) {
  Scope s(nullptr, "nothing");
  SUCCEED();
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  const std::string line =
      result_line(true, 3, 0, {{"setup_s", 0.25, "s"}, {"x", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": "
            "{\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
}

TEST(Setup, TimedSetupKeepsTheLastResultAndOneMedian) {
  std::vector<double> setup_s{0.5};
  int calls = 0;
  const int last = timed_setup(5, setup_s, [&] { return ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(last, 5);
  ASSERT_EQ(setup_s.size(), 2u);
  EXPECT_GE(setup_s[1], 0.0);
  EXPECT_LT(setup_s[1], 0.5);
  // At least one call, whatever reps says.
  EXPECT_EQ(timed_setup(0, setup_s, [&] { return ++calls; }), 6);
}

TEST(Steal, ShareOfBusyTicksStolenBetweenReadings) {
  const CpuTicks before{1000.0, 10.0};
  EXPECT_DOUBLE_EQ(steal_share(before, CpuTicks{1400.0, 110.0}), 0.25);
  EXPECT_DOUBLE_EQ(steal_share(before, CpuTicks{1400.0, 10.0}), 0.0);
  // No busy ticks in between (or no /proc/stat): nothing to correct.
  EXPECT_DOUBLE_EQ(steal_share(before, before), 0.0);
  EXPECT_DOUBLE_EQ(steal_share(CpuTicks{}, CpuTicks{}), 0.0);
}

}  // namespace
}  // namespace perfbench
