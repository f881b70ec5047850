#include <gtest/gtest.h>

#include <thread>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"

namespace rootsim::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.hits");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name + labels resolves to the same series.
  EXPECT_EQ(&registry.counter("test.hits"), &c);
  EXPECT_EQ(registry.counter_total("test.hits"), 42u);
}

TEST(Counter, LabelOrderIsNormalized) {
  MetricsRegistry registry;
  Counter& a = registry.counter("q", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("q", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b) << "label order must not create a second series";
  a.inc(3);
  EXPECT_EQ(registry.counter_value("q", {{"b", "2"}, {"a", "1"}}), 3u);
}

TEST(Counter, DistinctLabelsAreDistinctSeries) {
  MetricsRegistry registry;
  registry.counter("q", {{"rcode", "NOERROR"}}).inc(5);
  registry.counter("q", {{"rcode", "REFUSED"}}).inc(2);
  EXPECT_EQ(registry.counter_total("q"), 7u);
  EXPECT_EQ(registry.counter_value("q", {{"rcode", "REFUSED"}}), 2u);
  EXPECT_EQ(registry.counter_value("q", {{"rcode", "SERVFAIL"}}), 0u);
}

TEST(Gauge, SetAddAndSetMax) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("zone.serial");
  g.set(2023121200);
  g.set_max(2023111200);  // lower: ignored
  EXPECT_EQ(g.value(), 2023121200);
  g.set_max(2023121201);
  EXPECT_EQ(g.value(), 2023121201);
  Gauge& h = registry.gauge("wall");
  h.add(1.5);
  h.add(2.5);
  EXPECT_DOUBLE_EQ(h.value(), 4.0);
}

TEST(LockedHistogram, RecordsIntoALogLinearHistogram) {
  MetricsRegistry registry;
  LockedHistogram& h = registry.histogram("rtt_us", {{"family", "v4"}});
  EXPECT_EQ(&registry.histogram("rtt_us", {{"family", "v4"}}), &h);
  for (uint64_t v : {3u, 10u, 10u, 31250u}) h.observe(v);
  LogLinearHistogram copy = h.value();
  EXPECT_EQ(copy.count(), 4u);
  EXPECT_EQ(copy.sum(), 3u + 10u + 10u + 31250u);
  EXPECT_EQ(copy.max(), 31250u);
  EXPECT_DOUBLE_EQ(copy.quantile(0.5), 10.5);  // inside unit bucket [10, 11)
  // The copy is a snapshot: later observes do not reach it.
  h.observe(7);
  EXPECT_EQ(copy.count(), 4u);
  EXPECT_EQ(h.value().count(), 5u);
}

TEST(Registry, SnapshotIsDeterministicallyOrdered) {
  // Registration order must not leak into iteration order.
  MetricsRegistry first, second;
  first.counter("b.metric").inc(1);
  first.counter("a.metric", {{"k", "2"}}).inc(2);
  first.counter("a.metric", {{"k", "1"}}).inc(3);
  second.counter("a.metric", {{"k", "1"}}).inc(3);
  second.counter("b.metric").inc(1);
  second.counter("a.metric", {{"k", "2"}}).inc(2);
  EXPECT_EQ(first.to_text(), second.to_text());
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
  auto samples = first.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.metric");
  EXPECT_EQ(samples[0].labels, LabelSet({{"k", "1"}}));
  EXPECT_EQ(samples[2].name, "b.metric");
}

TEST(Registry, TextExportFormat) {
  MetricsRegistry registry;
  registry.counter("prober.queries", {{"rcode", "NOERROR"}}).inc(12);
  registry.histogram("rtt_us").observe(15);
  std::string text = registry.to_text();
  EXPECT_NE(text.find("prober.queries{rcode=NOERROR} 12\n"), std::string::npos)
      << text;
  // Quantiles interpolate inside the unit bucket [15, 16).
  EXPECT_NE(text.find("rtt_us count=1 sum=15 p50=15.5 p90=15.9 p99=16.0\n"),
            std::string::npos)
      << text;
}

TEST(Registry, JsonlExportFormat) {
  MetricsRegistry registry;
  registry.counter("c", {{"k", "v"}}).inc(7);
  EXPECT_EQ(registry.to_jsonl(),
            "{\"metric\":\"c\",\"labels\":{\"k\":\"v\"},\"type\":\"counter\","
            "\"value\":7}\n");
  // A histogram's value is the log-linear histogram's own JSON object.
  MetricsRegistry histograms;
  LockedHistogram& h = histograms.histogram("h");
  h.observe(4);
  EXPECT_EQ(histograms.to_jsonl(),
            "{\"metric\":\"h\",\"type\":\"histogram\",\"value\":" +
                h.value().to_json() + "}\n");
}

TEST(Registry, VolatileMetricsExcludedByDefault) {
  MetricsRegistry registry;
  registry.gauge("campaign.phase_wall_ms", {{"phase", "audit"}},
                 /*volatile_metric=*/true)
      .set(123.4);
  registry.counter("stable").inc(1);
  EXPECT_EQ(registry.snapshot().size(), 1u);
  EXPECT_EQ(registry.to_text().find("phase_wall"), std::string::npos);
  EXPECT_EQ(registry.snapshot(/*include_volatile=*/true).size(), 2u);
}

TEST(Registry, ConcurrentIncrementsDoNotLose) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hot");
  LockedHistogram& h = registry.histogram("hist");
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1000);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  const LogLinearHistogram totals = h.value();
  EXPECT_EQ(totals.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(totals.sum(), static_cast<uint64_t>(kThreads) * kPerThread * 1000);
}

// Merging a shard registry adds buckets element-wise, so the merged
// series' quantiles are *exactly* the single-pass quantiles — not
// approximately, byte for byte on the double.
TEST(LockedHistogram, RegistryMergeEqualsSinglePass) {
  MetricsRegistry single_reg, a_reg, b_reg;
  LockedHistogram& single = single_reg.histogram("h");
  LockedHistogram& a = a_reg.histogram("h");
  LockedHistogram& b = b_reg.histogram("h");
  uint64_t state = 7;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t value = (state >> 33) % 250000;
    single.observe(value);
    (i % 3 ? a : b).observe(value);
  }
  a_reg.merge_from(b_reg);
  const LogLinearHistogram merged = a.value();
  const LogLinearHistogram reference = single.value();
  ASSERT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.sum(), reference.sum());
  for (double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(merged.quantile(q), reference.quantile(q)) << "q=" << q;
  EXPECT_EQ(a_reg.to_jsonl(), single_reg.to_jsonl());
}

TEST(NullSink, HelpersAreNoOps) {
  Obs null_sink;
  EXPECT_FALSE(null_sink.enabled());
  null_sink.count("anything");  // must not crash
  EXPECT_EQ(null_sink.counter_handle("x"), nullptr);
  EXPECT_EQ(null_sink.histogram_handle("x"), nullptr);
  inc(nullptr);
  observe(nullptr, 3);
  RunReport report = RunReport::capture(null_sink);
  EXPECT_TRUE(report.metrics.empty());
  EXPECT_EQ(report.one_line(), "obs: (no samples recorded)");
}

TEST(RunReport, OneLineAndCounterLookups) {
  Recorder recorder;
  Obs obs = recorder.obs();
  obs.count("prober.probes", 2);
  obs.count("prober.queries", {{"rcode", "NOERROR"}}, 90);
  obs.count("prober.queries", {{"rcode", "TIMEOUT"}}, 4);
  RunReport report = RunReport::capture(recorder);
  EXPECT_EQ(report.counter_total("prober.queries"), 94u);
  EXPECT_EQ(report.counter_value("prober.queries", {{"rcode", "TIMEOUT"}}), 4u);
  std::string line = report.one_line();
  EXPECT_NE(line.find("probes=2"), std::string::npos) << line;
  EXPECT_NE(line.find("queries=94"), std::string::npos) << line;
}

}  // namespace
}  // namespace rootsim::obs
