// Shared setup for the experiment harnesses: the full-scale campaign (675
// VPs, complete Fig. 2 schedule, seed 42) that every bench reproduces its
// table or figure from. Numbers printed by the benches are recorded in
// EXPERIMENTS.md next to the paper's values.
//
// Every bench records into a shared obs::Recorder; print_header() arms an
// exit hook that prints the bench's wall time and a one-line RunReport so
// each harness ends with the query/AXFR/validation totals behind its table.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "exec/engine.h"
#include "measure/campaign.h"
#include "obs/report.h"
#include "scenario/apply.h"
#include "scenario/library.h"

namespace rootsim::bench {

/// The spec behind the shared campaign; benches derive their observation
/// instants from it instead of re-hardcoding the 2023 timeline.
inline const scenario::ScenarioSpec& paper_spec() {
  static const scenario::ScenarioSpec spec = scenario::paper_2023();
  return spec;
}

/// The b.root renumbering instant (2023-11-27) — the pivot every Section 6
/// before/after figure keys on.
inline util::UnixTime paper_change() {
  return scenario::renumbering_time(paper_spec());
}

/// Whole-day offsets from the renumbering change (negative = before); the
/// paper dates its passive collections relative to this pivot.
inline util::UnixTime change_day(int days, int64_t seconds = 0) {
  return paper_change() + days * util::kSecondsPerDay + seconds;
}

/// A steady-state instant late in the campaign (two weeks before the
/// horizon closes, 2023-12-10) for microbenches that need "some zone".
inline util::UnixTime late_campaign(int64_t seconds = 0) {
  return paper_spec().horizon.end - 14 * util::kSecondsPerDay + seconds;
}

/// Mid-campaign instant snapped to a day boundary — a representative
/// quiet day for replay-style benches.
inline util::UnixTime mid_campaign() {
  const scenario::Horizon& horizon = paper_spec().horizon;
  util::UnixTime mid = horizon.start + (horizon.end - horizon.start) / 2;
  return mid - mid % util::kSecondsPerDay;
}

inline measure::CampaignConfig paper_campaign_config() {
  // The built-in paper-2023 scenario (full VP set, Fig. 2 schedule, seed
  // 42); a moderate TLD count keeps AXFR-heavy benches quick while
  // preserving zone structure (delegations, DS, glue, DNSSEC).
  measure::CampaignConfig config = scenario::paper_campaign_config();
  config.zone.tld_count = 120;
  config.zone.rsa_modulus_bits = 768;
  return config;
}

inline obs::Recorder& paper_recorder() {
  static obs::Recorder recorder;
  return recorder;
}

inline const measure::Campaign& paper_campaign() {
  static const measure::Campaign campaign(paper_campaign_config(),
                                          paper_recorder().obs());
  return campaign;
}

namespace detail {

inline std::chrono::steady_clock::time_point& bench_start() {
  static auto start = std::chrono::steady_clock::now();
  return start;
}

inline void print_run_report() {
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - bench_start())
                       .count();
  auto report = obs::RunReport::capture(paper_recorder());
  std::printf("\n----------------------------------------------------------------\n");
  std::printf("wall time: %.2f s\n", seconds);
  std::printf("%s\n", report.one_line().c_str());
}

}  // namespace detail

/// The shared recorder's work totals that BENCH_*.json reports. Take one
/// reading before and one after the measured region and pass the
/// difference: the recorder is cumulative over the whole process (warm-up
/// runs, earlier worker counts), so raw totals over-count.
struct WorkCounts {
  uint64_t route_selections = 0;  ///< netsim.route_selections
  uint64_t signatures = 0;        ///< dnssec.signatures_checked

  static WorkCounts now() {
    const auto& metrics = paper_recorder().metrics();
    return {metrics.counter_total("netsim.route_selections"),
            metrics.counter_total("dnssec.signatures_checked")};
  }
  WorkCounts operator-(const WorkCounts& before) const {
    return {route_selections - before.route_selections,
            signatures - before.signatures};
  }
};

/// Machine-readable bench result: writes BENCH_<name>.json in the working
/// directory with the measured region's wall time (`wall_ms` < 0 means
/// "since print_header") and its work counts and rates. Committed copies of
/// these files live in the repo root next to EXPERIMENTS.md so perf changes
/// leave an auditable trail. Host parallelism (`hardware_concurrency`) and
/// the scheduler (always "steal") are recorded so tools/bench_compare.py can
/// refuse wall-time comparisons across hosts instead of calling a slower
/// machine a regression.
/// `extra` (optional) is pre-rendered JSON appended as additional top-level
/// fields — e.g. a "deterministic" object of seed-pure counters that
/// tools/bench_compare.py diffs exactly. Pass without leading comma, e.g.
/// `"\"deterministic\": {\"probes\": 42}"`.
inline void write_bench_json(const std::string& name, size_t threads,
                             double wall_ms, const WorkCounts& work,
                             const std::string& extra = "") {
  if (wall_ms < 0)
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - detail::bench_start())
                  .count();
  double seconds = wall_ms / 1000.0;
  auto rate = [seconds](uint64_t count) {
    return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
  };
  std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"wall_ms\": %.3f,\n"
               "  \"route_selections\": %llu,\n"
               "  \"route_selections_per_s\": %.1f,\n"
               "  \"signatures\": %llu,\n"
               "  \"signatures_per_s\": %.1f,\n"
               "  \"threads\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"sched\": \"steal\"",
               name.c_str(), wall_ms,
               static_cast<unsigned long long>(work.route_selections),
               rate(work.route_selections),
               static_cast<unsigned long long>(work.signatures),
               rate(work.signatures), threads,
               std::thread::hardware_concurrency());
  if (!extra.empty()) std::fprintf(out, ",\n  %s", extra.c_str());
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

/// Writes the recorder's RSSAC002 per-instance daily telemetry to `path`
/// (one JSON object per instance-day; render with tools/obs_report.py).
/// No-op when the campaign recorded no telemetry.
inline void write_rssac002(const std::string& path = "rssac002.jsonl") {
  const auto& collector = paper_recorder().rssac002();
  if (collector.empty()) return;
  if (collector.write_jsonl(path, paper_campaign_config().scenario_name))
    std::printf("wrote %s (%zu instance-day records)\n", path.c_str(),
                collector.record_count());
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_reference) {
  // Construct the recorder *before* registering the atexit hook so it
  // outlives the hook, then pin the wall clock's t0.
  paper_recorder();
  detail::bench_start();
  static bool armed = [] {
    std::atexit(detail::print_run_report);
    return true;
  }();
  (void)armed;
  const measure::CampaignConfig config = paper_campaign_config();
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("seed=%llu, 675 VPs, %s..%s\n",
              static_cast<unsigned long long>(config.seed),
              util::format_date(config.schedule.start).c_str(),
              util::format_date(config.schedule.end).c_str());
  std::printf("================================================================\n\n");
}

}  // namespace rootsim::bench
