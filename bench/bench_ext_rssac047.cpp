// Extension experiment: RSSAC047-style service metrics, now measured two
// ways that cannot disagree — the streaming SLO monitor watches thresholds
// online over the paper timeline (detecting the b.root renumbering and the
// ZONEMD rollout as attributed incidents), and the batch report is a replay
// over the same collector (analysis/rssac_metrics.h). Plus the §5
// clustered-site failure what-if, grounding the paper's RSSAC037 framing.
//
// Artifacts: slo.jsonl + incidents.jsonl (render with tools/slo_report.py)
// and BENCH_rssac047.json, whose "deterministic" counter object is diffed
// exactly by tools/bench_compare.py against the committed baseline.
#include <cmath>
#include <map>

#include "analysis/rssac_metrics.h"
#include "bench_common.h"
#include "netsim/flight_recorder.h"
#include "obs/incident.h"
#include "util/strings.h"
#include "util/table.h"

using namespace rootsim;

int main() {
  bench::print_header(
      "Extension — streaming RSSAC047 SLO monitor + cluster-failure what-if",
      "The Roots Go Deep §1 (RSSAC037 framing) + §4 (b.root, ZONEMD) + §5");
  const bench::WorkCounts start_counts = bench::WorkCounts::now();
  const measure::Campaign& campaign = bench::paper_campaign();

  // --- The streaming monitor over the full paper timeline. ---
  netsim::FlightRecorder flight(1024);
  measure::SloTimelineOptions options;
  options.flight_recorder = &flight;
  auto timeline = campaign.run_slo_timeline(options);

  std::printf("--- streaming SLO monitor (windows of %lld h simulated time) ---\n",
              static_cast<long long>(obs::SloCollector::kBucketSeconds / 3600));
  std::printf("probes: %llu (%llu failed)  latency samples: %llu  "
              "publication: %llu  integrity: %llu (%llu failed)\n",
              static_cast<unsigned long long>(timeline.probes),
              static_cast<unsigned long long>(timeline.failed_probes),
              static_cast<unsigned long long>(timeline.latency_samples),
              static_cast<unsigned long long>(timeline.publication_count),
              static_cast<unsigned long long>(timeline.integrity_checks),
              static_cast<unsigned long long>(timeline.integrity_failures));
  std::printf("evaluated windows: %zu  incidents: %zu\n\n",
              timeline.windows.size(), timeline.incidents.size());

  util::TextTable incident_table(
      {"id", "letter", "family", "metric", "opened", "closed", "cause"});
  std::map<std::string, size_t> incidents_by_metric;
  for (const auto& incident : timeline.incidents) {
    ++incidents_by_metric[std::string(obs::to_string(incident.metric))];
    incident_table.add_row(
        {util::format("%u", incident.id),
         std::string(1, static_cast<char>('a' + incident.root)),
         incident.v6 ? "v6" : "v4", std::string(obs::to_string(incident.metric)),
         util::format_datetime(incident.opened),
         incident.open() ? "OPEN" : util::format_datetime(incident.closed),
         incident.cause});
  }
  std::printf("%s\n", incident_table.render().c_str());
  std::printf("[both §4 events surface here: letter b availability blamed on\n"
              " b.root-renumbering, and the ZONEMD private-algorithm phase as\n"
              " integrity incidents that heal at the sha384 switch]\n\n");

  std::FILE* out = std::fopen("slo.jsonl", "w");
  if (out) {
    std::fwrite(timeline.slo_jsonl.data(), 1, timeline.slo_jsonl.size(), out);
    std::fclose(out);
    std::printf("wrote slo.jsonl (%zu windows)\n", timeline.windows.size());
  }
  out = std::fopen("incidents.jsonl", "w");
  if (out) {
    std::fwrite(timeline.incidents_jsonl.data(), 1,
                timeline.incidents_jsonl.size(), out);
    std::fclose(out);
    std::printf("wrote incidents.jsonl (%zu incidents)\n\n",
                timeline.incidents.size());
  }

  // --- The batch report: a replay over the same collector implementation. ---
  auto report = analysis::compute_rssac_metrics(campaign);
  util::TextTable table({"Root", "avail v4", "avail v6", "med RTT v4",
                         "med RTT v6", "p95 v4", "p95 v6", "pub lat s"});
  for (const auto& metrics : report.per_root) {
    table.add_row({std::string(1, metrics.letter),
                   util::TextTable::pct(metrics.availability_v4, 2),
                   util::TextTable::pct(metrics.availability_v6, 2),
                   util::TextTable::num(metrics.median_rtt_v4, 1),
                   util::TextTable::num(metrics.median_rtt_v6, 1),
                   util::TextTable::num(metrics.p95_rtt_v4, 1),
                   util::TextTable::num(metrics.p95_rtt_v6, 1),
                   util::TextTable::num(metrics.median_publication_latency_s, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("worst per-root availability: %.3f%%  [RSSAC047 target: 99.96%%\n"
              " for the whole service — anycast redundancy absorbs per-site\n"
              " outages; a probe only fails while its *selected* site is dark]\n\n",
              100 * report.worst_availability);

  auto impact = analysis::simulate_cluster_failure(campaign);
  std::printf("--- §5 what-if: most-clustered facility goes dark ---\n");
  std::printf("facility %u hosts sites of %zu roots\n", impact.facility,
              impact.roots_hosted);
  std::printf("selections moved: %zu of %zu (%.2f%%)\n", impact.selections_moved,
              impact.selections_total,
              100.0 * impact.selections_moved / impact.selections_total);
  std::printf("RTT delta for moved clients: median %+.1f ms, p90 %+.1f ms, "
              "max %+.1f ms\n",
              impact.rtt_delta_ms.median, impact.rtt_delta_ms.p90,
              impact.rtt_delta_ms.max);
  std::printf("\n[the paper: such a failure 'can, instantaneously, shift\n"
              " traffic to other locations' and may push resolvers to other\n"
              " root deployments — here is the size of that shift]\n");

  // Seed-pure counters: identical on every machine, worker count, and steal
  // schedule, so bench_compare.py diffs them exactly.
  std::string deterministic = util::format(
      "\"deterministic\": {\n"
      "    \"slo_probes\": %llu,\n"
      "    \"slo_failed_probes\": %llu,\n"
      "    \"slo_latency_samples\": %llu,\n"
      "    \"slo_publication_samples\": %llu,\n"
      "    \"slo_staleness_samples\": %llu,\n"
      "    \"slo_integrity_checks\": %llu,\n"
      "    \"slo_integrity_failures\": %llu,\n"
      "    \"slo_windows\": %zu,\n"
      "    \"incidents\": %zu,\n"
      "    \"incidents_availability\": %zu,\n"
      "    \"incidents_integrity\": %zu,\n"
      "    \"worst_availability_bp\": %.0f\n"
      "  }",
      static_cast<unsigned long long>(timeline.probes),
      static_cast<unsigned long long>(timeline.failed_probes),
      static_cast<unsigned long long>(timeline.latency_samples),
      static_cast<unsigned long long>(timeline.publication_count),
      static_cast<unsigned long long>(timeline.staleness_samples),
      static_cast<unsigned long long>(timeline.integrity_checks),
      static_cast<unsigned long long>(timeline.integrity_failures),
      timeline.windows.size(), timeline.incidents.size(),
      incidents_by_metric["availability"], incidents_by_metric["integrity"],
      std::floor(10000.0 * report.worst_availability));
  // The measured region is the whole bench (wall_ms -1: since
  // print_header), so the counts are taken from the same instant.
  bench::write_bench_json("rssac047", exec::resolve_workers(0), -1,
                          bench::WorkCounts::now() - start_counts,
                          deterministic);
  return 0;
}
