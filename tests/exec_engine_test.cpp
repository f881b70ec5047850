// Determinism suite for the exec engine: parallel fan-out must be
// output-equivalent to serial execution — same observation vectors, same
// metric totals, byte-identical trace dumps — for every worker count.
#include "exec/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/profiler.h"
#include "measure/campaign.h"
#include "netsim/flight_recorder.h"
#include "obs/obs.h"
#include "util/strings.h"
#include "util/timeutil.h"

namespace rootsim {
namespace {

TEST(ParallelFor, WorkStealCoversEveryUnitExactlyOnce) {
  constexpr size_t kUnits = 103;  // deliberately not a multiple of workers
  constexpr size_t kWorkers = 4;
  std::vector<std::atomic<int>> hits(kUnits);
  exec::parallel_for(kUnits, kWorkers, [&](size_t unit, size_t worker) {
    hits[unit].fetch_add(1);
    ASSERT_LT(worker, kWorkers);
  });
  for (size_t unit = 0; unit < kUnits; ++unit)
    ASSERT_EQ(hits[unit].load(), 1) << unit;
}

// Many tiny units across every worker count: a TSan-visible stress of the
// steal path (with units outnumbering workers 100:1, thieves and owners race
// on the same slots constantly). Correctness bar stays exactly-once.
TEST(ParallelFor, WorkStealStressManyTinyUnits) {
  constexpr size_t kUnits = 1600;
  for (size_t workers : {2, 3, 8, 16}) {
    std::vector<std::atomic<int>> hits(kUnits);
    std::atomic<uint64_t> sum{0};
    exec::parallel_for(kUnits, workers, [&](size_t unit, size_t) {
      hits[unit].fetch_add(1);
      sum.fetch_add(unit);
    });
    for (size_t unit = 0; unit < kUnits; ++unit)
      ASSERT_EQ(hits[unit].load(), 1) << unit << " @" << workers << " workers";
    EXPECT_EQ(sum.load(), uint64_t{kUnits} * (kUnits - 1) / 2);
  }
}

TEST(ParallelFor, MoreWorkersThanUnitsAndZeroUnits) {
  std::vector<std::atomic<int>> hits(3);
  exec::parallel_for(3, 16, [&](size_t unit, size_t) { hits[unit]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  bool ran = false;
  exec::parallel_for(0, 4, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Work stealing packs unit ranges into 32 bits: a multi-worker region of
// 2^32 units is refused up front, before any unit runs — on both entry
// points.
TEST(ParallelFor, RejectsRegionsWorkStealingCannotPack) {
  constexpr size_t kTooMany = size_t{1} << 32;
  std::atomic<bool> ran{false};
  EXPECT_THROW(
      exec::parallel_for(kTooMany, 2, [&](size_t, size_t) { ran = true; }),
      std::length_error);
  exec::Profiler profiler;
  EXPECT_THROW(exec::parallel_for(kTooMany, 4, &profiler,
                                  [&](size_t, size_t) { ran = true; }),
               std::length_error);
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(profiler.unit_count(), 0u);
}

TEST(ResolveWorkers, RequestedThenEnvThenOne) {
  EXPECT_EQ(exec::resolve_workers(3), 3u);
  setenv("ROOTSIM_WORKERS", "5", 1);
  EXPECT_EQ(exec::resolve_workers(0), 5u);
  setenv("ROOTSIM_WORKERS", "junk", 1);
  EXPECT_EQ(exec::resolve_workers(0), 1u);
  unsetenv("ROOTSIM_WORKERS");
  EXPECT_EQ(exec::resolve_workers(0), 1u);
}

TEST(TracerAbsorb, ReproducesSerialIdsAndSpanLinks) {
  // Serial reference: one tracer records both probes.
  obs::Tracer serial(64);
  uint64_t s1 = serial.begin_span("probe", 100, {{"unit", "0"}});
  serial.event(s1, "query", 101);
  serial.end_span(s1, 102);
  uint64_t s2 = serial.begin_span("probe", 200, {{"unit", "1"}});
  serial.event(s2, "query", 201);
  serial.end_span(s2, 202);

  // Sharded: each probe records into its own tracer, merged in unit order.
  obs::Tracer main(64);
  obs::Tracer shard0(64);
  obs::Tracer shard1(64);
  uint64_t a = shard0.begin_span("probe", 100, {{"unit", "0"}});
  shard0.event(a, "query", 101);
  shard0.end_span(a, 102);
  uint64_t b = shard1.begin_span("probe", 200, {{"unit", "1"}});
  shard1.event(b, "query", 201);
  shard1.end_span(b, 202);
  main.absorb(std::move(shard0));
  main.absorb(std::move(shard1));

  EXPECT_EQ(main.to_jsonl(), serial.to_jsonl());
  EXPECT_EQ(main.recorded(), serial.recorded());
  EXPECT_EQ(shard0.size(), 0u);
  EXPECT_EQ(shard0.recorded(), 0u);
}

TEST(TracerAbsorb, RingDropAccountingMatchesSerial) {
  constexpr size_t kCapacity = 8;
  auto record_unit = [](obs::Tracer& t, size_t unit) {
    uint64_t span =
        t.begin_span("u", static_cast<util::UnixTime>(unit), {});
    for (int e = 0; e < 5; ++e)
      t.event(span, "e", static_cast<util::UnixTime>(unit));
    t.end_span(span, static_cast<util::UnixTime>(unit));
  };
  obs::Tracer serial(kCapacity);
  for (size_t unit = 0; unit < 6; ++unit) record_unit(serial, unit);

  obs::Tracer main(kCapacity);
  obs::Tracer shard0(kCapacity);
  obs::Tracer shard1(kCapacity);
  for (size_t unit = 0; unit < 3; ++unit) record_unit(shard0, unit);
  for (size_t unit = 3; unit < 6; ++unit) record_unit(shard1, unit);
  main.absorb(std::move(shard0));
  main.absorb(std::move(shard1));

  EXPECT_EQ(main.to_jsonl(), serial.to_jsonl());
  EXPECT_EQ(main.dropped(), serial.dropped());
  EXPECT_EQ(main.recorded(), serial.recorded());
}

TEST(MetricsMerge, CountersGaugesHistogramsFold) {
  obs::MetricsRegistry main;
  obs::MetricsRegistry shard;
  main.counter("c", {{"k", "v"}}).inc(2);
  shard.counter("c", {{"k", "v"}}).inc(3);
  shard.counter("only_in_shard");  // zero-valued: series must still appear
  main.gauge("g").set(5);
  shard.gauge("g").set(3);  // gauges are monotone: merge takes the max
  main.histogram("h").observe(1);
  shard.histogram("h").observe(5);
  shard.histogram("h").observe(9000);

  main.merge_from(shard);
  EXPECT_EQ(main.counter_value("c", {{"k", "v"}}), 5u);
  EXPECT_EQ(main.counter_value("only_in_shard", {}), 0u);
  EXPECT_NE(main.to_jsonl().find("only_in_shard"), std::string::npos);

  auto samples = main.snapshot();
  bool checked_gauge = false, checked_hist = false;
  for (const auto& sample : samples) {
    if (sample.name == "g") {
      EXPECT_DOUBLE_EQ(sample.value, 5.0);
      checked_gauge = true;
    }
    if (sample.name == "h") {
      EXPECT_EQ(sample.histogram.count(), 3u);
      EXPECT_EQ(sample.histogram.sum(), 1u + 5u + 9000u);
      EXPECT_EQ(sample.histogram.max(), 9000u);
      auto buckets = sample.histogram.nonzero_buckets();
      ASSERT_EQ(buckets.size(), 3u);
      EXPECT_EQ(buckets[0].lower, 1u);  // unit buckets below 16 are exact
      EXPECT_EQ(buckets[1].lower, 5u);
      EXPECT_LE(buckets[2].lower, 9000u);
      EXPECT_GT(buckets[2].upper, 9000u);
      checked_hist = true;
    }
  }
  EXPECT_TRUE(checked_gauge);
  EXPECT_TRUE(checked_hist);
}

// Adversarially skewed unit durations: one unit costs ~100x the rest, and
// work stealing drains the rest of its block around it. The *outputs* —
// metrics, trace, rssac002 — must be byte-identical to a serial run for every
// worker count and every position of the long pole, because obs shards are
// per unit and merge in unit order.
class SkewedUnits : public ::testing::TestWithParam<size_t> {};

std::string skewed_run(size_t workers, size_t units, size_t heavy_unit) {
  obs::Recorder main;
  exec::ObsShards shards(main.obs(), units);
  exec::parallel_for(
      units, workers,
      [&](size_t unit, size_t) {
        obs::Obs sink = shards.shard(unit);
        uint64_t span = sink.tracer->begin_span(
            "unit", static_cast<util::UnixTime>(unit),
            {{"unit", util::format("%zu", unit)}});
        sink.count("units.done");
        sink.count("units.kind", {{"heavy", unit == heavy_unit ? "1" : "0"}});
        obs::Rssac002Sample sample;
        sample.instance = "test-instance";
        sample.when = static_cast<util::UnixTime>(1694593200 + unit);
        sample.udp_queries = 1;
        sample.delivered = true;
        sample.query_bytes = 40 + unit % 7;
        sample.response_bytes = 500 + unit % 13;
        sample.source_id = unit % 5;
        sink.rssac002->record(sample);
        // The long pole: enough wall time that every other worker finishes
        // its own block and has to steal to stay busy.
        const auto cost = std::chrono::microseconds(unit == heavy_unit ? 20000 : 200);
        std::this_thread::sleep_for(cost);
        sink.tracer->end_span(span, static_cast<util::UnixTime>(unit));
      });
  shards.merge();
  return main.metrics().to_jsonl() + "\n--\n" + main.tracer().to_jsonl() +
         "\n--\n" + main.rssac002().to_jsonl();
}

TEST_P(SkewedUnits, ExportsByteIdenticalAtEveryWorkerCount) {
  constexpr size_t kUnits = 24;
  const size_t heavy_unit = GetParam();
  const std::string serial = skewed_run(1, kUnits, heavy_unit);
  ASSERT_FALSE(serial.empty());
  for (size_t workers : {2, 4, 8}) {
    EXPECT_EQ(skewed_run(workers, kUnits, heavy_unit), serial)
        << workers << " workers, heavy unit " << heavy_unit;
  }
}

// The long pole first, last, and at an arbitrary interior position (17 plays
// the "random" draw — fixed so failures reproduce).
INSTANTIATE_TEST_SUITE_P(HeavyUnitPositions, SkewedUnits,
                         ::testing::Values(0u, 23u, 17u));

// Work stealing must actually steal under skew: with the heavy unit first,
// worker 0 is pinned to it while the rest of its block gets stolen away.
TEST(WorkSteal, SkewTriggersSteals) {
  constexpr size_t kUnits = 32;
  exec::Profiler profiler;
  exec::parallel_for(kUnits, 4, &profiler, [&](size_t unit, size_t) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(unit == 0 ? 20000 : 200));
  });
  uint64_t total_steals = 0;
  for (const auto& report : profiler.worker_reports())
    total_steals += report.steal_count;
  EXPECT_GT(total_steals, 0u);
  EXPECT_NE(profiler.to_json().find("\"sched\":\"steal\""), std::string::npos);
}

bool observations_equal(const measure::ZoneAuditObservation& a,
                        const measure::ZoneAuditObservation& b) {
  return a.vp_id == b.vp_id && a.table2_vp_id == b.table2_vp_id &&
         a.root_index == b.root_index && a.family == b.family &&
         a.old_b_address == b.old_b_address && a.when == b.when &&
         a.soa_serial == b.soa_serial && a.verdict == b.verdict &&
         a.zonemd == b.zonemd &&
         a.affects_all_servers == b.affects_all_servers && a.note == b.note;
}

struct AuditRun {
  std::vector<measure::ZoneAuditObservation> observations;
  std::string metrics_jsonl;
  std::string trace_jsonl;
  std::string rssac002_jsonl;
  uint64_t flight_recorded = 0;
};

AuditRun run_audit(size_t workers,
                   netsim::FlightRecorder* flight_recorder = nullptr) {
  measure::CampaignConfig config;
  config.zone.tld_count = 30;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  config.transport.flight_recorder = flight_recorder;
  obs::Recorder recorder;
  measure::Campaign campaign(config, recorder.obs());
  AuditRun run;
  run.observations = campaign.run_zone_audit(12, workers);
  run.metrics_jsonl = recorder.metrics().to_jsonl();
  run.trace_jsonl = recorder.tracer().to_jsonl();
  run.rssac002_jsonl = recorder.rssac002().to_jsonl();
  if (flight_recorder) run.flight_recorded = flight_recorder->recorded();
  return run;
}

// The tentpole acceptance property: worker count must not be observable in
// any output — observations, metric export, trace export.
TEST(ZoneAudit, WorkerCountInvisibleInEveryOutput) {
  AuditRun serial = run_audit(1);
  ASSERT_FALSE(serial.observations.empty());
  ASSERT_FALSE(serial.metrics_jsonl.empty());
  ASSERT_FALSE(serial.trace_jsonl.empty());
  ASSERT_FALSE(serial.rssac002_jsonl.empty());
  for (size_t workers : {2, 4, 8}) {
    AuditRun parallel = run_audit(workers);
    ASSERT_EQ(parallel.observations.size(), serial.observations.size())
        << workers << " workers";
    for (size_t i = 0; i < serial.observations.size(); ++i)
      ASSERT_TRUE(
          observations_equal(parallel.observations[i], serial.observations[i]))
          << workers << " workers, observation " << i;
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.trace_jsonl, serial.trace_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.rssac002_jsonl, serial.rssac002_jsonl)
        << workers << " workers";
  }
}

// A cold audit whose clean samples land on both serials of the same days
// (a three-day schedule, so same-day serial pairs share unchanged RRSIGs
// through the signature cache). Zone builds, signature-cache lookups and
// verify-memo lookups race across workers here, yet every serial is built
// once and the sig-cache and verify-memo totals are exact, so the counters
// match at every worker count.
TEST(ZoneAudit, ColdZoneCountersIdenticalAtEveryWorkerCount) {
  struct ColdRun {
    std::vector<measure::ZoneAuditObservation> observations;
    std::string metrics_jsonl;
    uint64_t zones_built = 0, hits = 0, misses = 0, resets = 0;
    uint64_t memo_hits = 0, memo_misses = 0, memo_resets = 0;
  };
  auto run = [](size_t workers) {
    measure::CampaignConfig config;
    config.zone.tld_count = 30;
    config.zone.rsa_modulus_bits = 512;
    config.vp_scale = 0.05;
    config.schedule.start = util::make_time(2023, 10, 8);
    config.schedule.end = util::make_time(2023, 10, 11);
    obs::Recorder recorder;
    measure::Campaign campaign(config, recorder.obs());
    ColdRun result;
    result.observations = campaign.run_zone_audit(24, workers);
    const auto& metrics = recorder.metrics();
    result.metrics_jsonl = metrics.to_jsonl();
    result.zones_built = metrics.counter_total("rss.zones_built");
    result.hits = metrics.counter_total("rss.sig_cache.hits");
    result.misses = metrics.counter_total("rss.sig_cache.misses");
    result.resets = metrics.counter_total("rss.sig_cache.resets");
    result.memo_hits = metrics.counter_total("dnssec.verify_memo.hits");
    result.memo_misses = metrics.counter_total("dnssec.verify_memo.misses");
    result.memo_resets = metrics.counter_total("dnssec.verify_memo.resets");
    return result;
  };
  const ColdRun serial = run(1);
  std::set<uint32_t> serials;
  for (const auto& obs : serial.observations) {
    ASSERT_EQ(obs.verdict, dnssec::ValidationStatus::Valid) << obs.note;
    serials.insert(obs.soa_serial);
  }
  size_t same_day_pairs = 0;
  for (uint32_t s : serials)
    if (s % 100 == 0 && serials.count(s + 1)) ++same_day_pairs;
  ASSERT_GE(same_day_pairs, 2u) << "samples must hit both serials of a day";
  EXPECT_EQ(serial.zones_built, serials.size());
  EXPECT_GT(serial.hits, 0u);
  EXPECT_EQ(serial.resets, 0u);
  // Several samples share each serial, so the memo answers repeat
  // signatures; every valid verification is a hit or a miss.
  EXPECT_GT(serial.memo_hits, 0u);
  EXPECT_GT(serial.memo_misses, 0u);
  EXPECT_EQ(serial.memo_resets, 0u);
  for (size_t workers : {2, 4, 8}) {
    const ColdRun parallel = run(workers);
    ASSERT_EQ(parallel.observations.size(), serial.observations.size());
    for (size_t i = 0; i < serial.observations.size(); ++i)
      ASSERT_TRUE(
          observations_equal(parallel.observations[i], serial.observations[i]))
          << workers << " workers, observation " << i;
    EXPECT_EQ(parallel.zones_built, serial.zones_built) << workers;
    EXPECT_EQ(parallel.hits, serial.hits) << workers;
    EXPECT_EQ(parallel.misses, serial.misses) << workers;
    EXPECT_EQ(parallel.resets, serial.resets) << workers;
    EXPECT_EQ(parallel.memo_hits, serial.memo_hits) << workers;
    EXPECT_EQ(parallel.memo_misses, serial.memo_misses) << workers;
    EXPECT_EQ(parallel.memo_resets, serial.memo_resets) << workers;
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl) << workers;
  }
}

// Same property with the *diagnostic* surfaces switched on: the exec-pool
// profiler (via ROOTSIM_PROFILE) and a shared flight recorder (one shard per
// worker transport) must not leak
// into any deterministic export for any worker count. The profiler's own
// artifact and the flight ring are wall-clock/scheduling-ordered and are
// deliberately not byte-compared — only their presence and totals are.
TEST(ZoneAudit, ByteIdenticalWithProfilerAndFlightRecorderEnabled) {
  const char* profile_path = "PROF_exec_engine_test.json";
  setenv("ROOTSIM_PROFILE", profile_path, 1);
  netsim::FlightRecorder serial_flight(64);
  AuditRun serial = run_audit(1, &serial_flight);
  ASSERT_FALSE(serial.rssac002_jsonl.empty());
  EXPECT_GT(serial.flight_recorded, 0u);
  std::FILE* artifact = std::fopen(profile_path, "r");
  EXPECT_NE(artifact, nullptr) << "profiler artifact was not written";
  if (artifact) std::fclose(artifact);
  for (size_t workers : {2, 4, 8}) {
    netsim::FlightRecorder flight(64);
    AuditRun parallel = run_audit(workers, &flight);
    ASSERT_EQ(parallel.observations.size(), serial.observations.size())
        << workers << " workers";
    for (size_t i = 0; i < serial.observations.size(); ++i)
      ASSERT_TRUE(
          observations_equal(parallel.observations[i], serial.observations[i]))
          << workers << " workers, observation " << i;
    EXPECT_EQ(parallel.metrics_jsonl, serial.metrics_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.trace_jsonl, serial.trace_jsonl)
        << workers << " workers";
    EXPECT_EQ(parallel.rssac002_jsonl, serial.rssac002_jsonl)
        << workers << " workers";
    // The flight recorder sees the same *set* of exchanges in any schedule.
    EXPECT_EQ(parallel.flight_recorded, serial.flight_recorded)
        << workers << " workers";
  }
  unsetenv("ROOTSIM_PROFILE");
  std::remove(profile_path);
}

// The SLO plane rides the same shard/merge path, so its exports inherit the
// same acceptance bar: slo.jsonl and incidents.jsonl byte-identical at every
// worker count (the steal schedule must be as invisible as the worker
// count). Shortened schedule covering the b.root renumbering window keeps
// the test fast.
TEST(SloTimeline, ExportsByteIdenticalAcrossWorkers) {
  measure::CampaignConfig config;
  config.zone.tld_count = 25;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  config.schedule.start = util::make_time(2023, 11, 20);
  config.schedule.end = util::make_time(2023, 12, 10);
  const measure::Campaign campaign(config);

  auto run = [&](size_t workers) {
    netsim::FlightRecorder flight(64);
    measure::SloTimelineOptions options;
    options.flight_recorder = &flight;
    options.workers = workers;
    auto result = campaign.run_slo_timeline(options);
    return std::pair<std::string, std::string>(result.slo_jsonl,
                                               result.incidents_jsonl);
  };

  auto serial = run(1);
  ASSERT_FALSE(serial.first.empty());
  ASSERT_FALSE(serial.second.empty());
  for (size_t workers : {2u, 8u}) {
    auto parallel = run(workers);
    EXPECT_EQ(parallel.first, serial.first)
        << "slo.jsonl @" << workers << " workers";
    EXPECT_EQ(parallel.second, serial.second)
        << "incidents.jsonl @" << workers << " workers";
  }
}

}  // namespace
}  // namespace rootsim
