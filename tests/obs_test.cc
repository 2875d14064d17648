// Unit tests for src/obs: counter/gauge/histogram semantics, concurrent
// increments, snapshotJson round-trip and the SP_TIMED span macro.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/statusd.h"
#include "obs/timer.h"

namespace sp::obs {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(Histogram, MomentsAndPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.stat.count(), 100u);
    EXPECT_DOUBLE_EQ(snap.stat.mean(), 50.5);
    EXPECT_DOUBLE_EQ(snap.stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(snap.stat.max(), 100.0);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(99), 99.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, ReservoirKeepsCountExactPastCap)
{
    Histogram h;
    const size_t n = Histogram::kShardSampleCap + 500;
    for (size_t i = 0; i < n; ++i)
        h.record(1.0);
    // All records land on the calling thread's shard; the retained
    // sample set is capped but the running moments stay exact.
    EXPECT_EQ(h.count(), n);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.stat.count(), n);
    EXPECT_LE(snap.samples.count(), Histogram::kShardSampleCap);
    EXPECT_DOUBLE_EQ(snap.samples.percentile(50), 1.0);
}

TEST(Registry, FindOrCreateReturnsStableHandles)
{
    Registry reg;
    Counter &a = reg.counter("x.count");
    Counter &b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    a.inc(7);
    EXPECT_EQ(b.value(), 7u);
    Gauge &g = reg.gauge("x.gauge");
    g.set(2.0);
    EXPECT_EQ(reg.gauge("x.gauge").value(), 2.0);
    reg.histogram("x.hist").record(1.0);
    EXPECT_EQ(reg.histogram("x.hist").count(), 1u);
}

TEST(Registry, ConcurrentIncrementsFromFourThreads)
{
    Registry reg;
    Counter &counter = reg.counter("threads.count");
    Histogram &hist = reg.histogram("threads.hist");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.inc();
                hist.record(static_cast<double>(t));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads * kPerThread));
    const auto snap = hist.snapshot();
    EXPECT_EQ(snap.stat.count(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(snap.stat.min(), 0.0);
    EXPECT_DOUBLE_EQ(snap.stat.max(), kThreads - 1.0);
}

TEST(Registry, SnapshotJsonRoundTrip)
{
    Registry reg;
    reg.counter("fuzz.execs").inc(5000);
    reg.gauge("infer.queue_depth").set(3.0);
    for (int i = 1; i <= 4; ++i)
        reg.histogram("exec.run_us").record(static_cast<double>(i));

    const std::string json = reg.snapshotJson();
    // Structural sanity: balanced braces, one top-level object.
    int depth = 0, min_depth = 1;
    for (size_t i = 0; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        if (json[i] == '}')
            --depth;
        if (i > 0 && i + 1 < json.size())
            min_depth = std::min(min_depth, depth);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GE(min_depth, 1);

    // Every registered metric surfaces with its value.
    EXPECT_NE(json.find("\"fuzz.execs\":5000"), std::string::npos);
    EXPECT_NE(json.find("\"infer.queue_depth\":3"), std::string::npos);
    EXPECT_NE(json.find("\"exec.run_us\":{\"count\":4"),
              std::string::npos);
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
    EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
}

TEST(Registry, ResetZeroesEverything)
{
    Registry reg;
    Counter &a = reg.counter("a");
    Gauge &b = reg.gauge("b");
    Histogram &c = reg.histogram("c");
    a.inc(3);
    b.set(4.0);
    c.record(5.0);
    reg.reset();
    EXPECT_EQ(reg.counter("a").value(), 0u);
    EXPECT_EQ(reg.gauge("b").value(), 0.0);
    EXPECT_EQ(reg.histogram("c").count(), 0u);

    // Names stay registered, so handles taken before the reset still
    // point at the live metrics: the property every cached
    // instrumentation site relies on when a campaign zeroes the
    // registry.
    EXPECT_EQ(&reg.counter("a"), &a);
    EXPECT_EQ(&reg.gauge("b"), &b);
    EXPECT_EQ(&reg.histogram("c"), &c);
    a.inc(2);
    b.set(0.5);
    c.record(7.0);
    EXPECT_EQ(reg.counter("a").value(), 2u);
    EXPECT_EQ(reg.gauge("b").value(), 0.5);
    EXPECT_EQ(reg.histogram("c").count(), 1u);
    EXPECT_EQ(reg.histogram("c").stat().max(), 7.0);
}

TEST(ScopedTimer, RecordsOnlyWhenTimingEnabled)
{
    Histogram h;
    setTimingEnabled(false);
    {
        ScopedTimer span(h);
    }
    EXPECT_EQ(h.count(), 0u);
    setTimingEnabled(true);
    {
        ScopedTimer span(h);
    }
    setTimingEnabled(false);
    ASSERT_EQ(h.count(), 1u);
    EXPECT_GE(h.snapshot().stat.min(), 0.0);
}

TEST(ScopedTimer, SpTimedMacroFeedsGlobalRegistry)
{
    Histogram &hist =
        Registry::global().histogram("obs_test.sp_timed_us");
    hist.reset();
    setTimingEnabled(true);
    {
        SP_TIMED("obs_test.sp_timed_us");
    }
    setTimingEnabled(false);
    EXPECT_EQ(hist.count(), 1u);
}

TEST(Registry, VisitWalksAllMetricFamiliesSorted)
{
    Registry reg;
    reg.counter("z.count").inc(4);
    reg.counter("a.count").inc(1);
    reg.gauge("mid.level").set(2.5);
    reg.histogram("lat.us").record(10.0);
    reg.histogram("lat.us").record(20.0);

    std::vector<std::string> counters;
    std::vector<std::string> gauges;
    std::vector<std::string> hists;
    reg.visit(
        [&](const std::string &name, const Counter &c) {
            counters.push_back(name + "=" + std::to_string(c.value()));
        },
        [&](const std::string &name, const Gauge &g) {
            gauges.push_back(name + "=" + std::to_string(g.value()));
        },
        [&](const std::string &name, const Histogram &h) {
            hists.push_back(name + "#" + std::to_string(h.count()));
        });
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0], "a.count=1");  // sorted
    EXPECT_EQ(counters[1], "z.count=4");
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_EQ(gauges[0].find("mid.level=2.5"), 0u);
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists[0], "lat.us#2");
}

TEST(Registry, UnregisterGaugesWithPrefixDropsOnlyMatches)
{
    Registry reg;
    reg.gauge("run.worker.w0").set(1.0);
    reg.gauge("run.worker.w1").set(1.0);
    reg.gauge("run.workers_total").set(2.0);
    reg.gauge("other.metric").set(3.0);
    reg.unregisterGaugesWithPrefix("run.worker.w");

    const std::string snapshot = reg.snapshotJson();
    EXPECT_EQ(snapshot.find("run.worker.w0"), std::string::npos);
    EXPECT_EQ(snapshot.find("run.worker.w1"), std::string::npos);
    EXPECT_NE(snapshot.find("run.workers_total"), std::string::npos);
    EXPECT_NE(snapshot.find("other.metric"), std::string::npos);
    // Re-creating a dropped gauge starts fresh.
    EXPECT_EQ(reg.gauge("run.worker.w0").value(), 0.0);
}

TEST(Prometheus, RendersCountersGaugesAndSummaries)
{
    auto &reg = Registry::global();
    reg.counter("promtest.events.total").inc(7);
    reg.gauge("promtest.depth").set(1.5);
    for (int i = 1; i <= 100; ++i)
        reg.histogram("promtest.lat_us").record(i);

    const std::string text = renderPrometheus();
    // Dots sanitize to underscores, everything gains the sp_ prefix.
    EXPECT_NE(text.find("# TYPE sp_promtest_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_events_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sp_promtest_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_depth 1.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE sp_promtest_lat_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us_count 100"),
              std::string::npos);
    EXPECT_NE(text.find("sp_promtest_lat_us_sum"), std::string::npos);
}

}  // namespace
}  // namespace sp::obs
