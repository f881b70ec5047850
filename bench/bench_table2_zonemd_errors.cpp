// Table 2: ZONEMD/RRSIG validation errors for zones obtained via AXFR —
// the full audit over the fault plan plus sampled clean transfers.
#include "analysis/zonemd_report.h"
#include "bench_common.h"
#include "exec/engine.h"
#include "util/table.h"

using namespace rootsim;

int main() {
  bench::print_header("Table 2 — ZONEMD validation errors for zones from AXFRs",
                      "The Roots Go Deep, Table 2 + Section 7");
  const measure::Campaign& campaign = bench::paper_campaign();
  // Fan the audit out over ROOTSIM_WORKERS threads (default 1); the table
  // below is identical for every worker count.
  size_t workers = exec::resolve_workers();
  const bench::WorkCounts before = bench::WorkCounts::now();
  const auto start = std::chrono::steady_clock::now();
  auto observations = campaign.run_zone_audit(/*clean_samples=*/400, workers);
  const double audit_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  const bench::WorkCounts work = bench::WorkCounts::now() - before;
  auto report = analysis::summarize_zone_audit(observations);

  util::TextTable table({"Reason", "#SOA", "First Obs.", "Last Obs.", "#Obs.",
                         "Server", "VPid"});
  for (const auto& row : report.rows) {
    table.add_row({row.reason, std::to_string(row.distinct_soas),
                   util::format_datetime(row.first_observed),
                   util::format_datetime(row.last_observed),
                   std::to_string(row.observations), row.servers, row.vp_ids});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("total transfers audited : %zu\n", report.total_observations);
  std::printf("clean                   : %zu\n", report.clean_observations);
  std::printf("failing                 : %zu\n", report.failing_observations);
  std::printf("catchable by ZONEMD     : %zu\n", report.catchable_by_zonemd);
  // Past a reset (the memo's entry bound) the hit/miss split depends on the
  // schedule, so the resets are printed with it.
  if (const auto* cache = campaign.authority().signature_cache())
    std::printf("signature cache         : %llu hits, %llu misses, %llu resets\n",
                static_cast<unsigned long long>(cache->hits()),
                static_cast<unsigned long long>(cache->misses()),
                static_cast<unsigned long long>(cache->resets()));
  std::printf("\n[paper: 6 time-related errors on 2 VPs; 8 bitflipped transfers\n"
              " on 3 VPs over 5 servers; stale zones at 2 d.root sites (Tokyo\n"
              " 3 VPs/12 obs, Leeds 7 VPs/40 obs); 15 distinct bad zone files\n"
              " from 66 observations out of 75.7M transfers]\n");
  bench::write_bench_json("table2_zonemd_errors", workers, audit_ms, work);
  // Per-instance daily telemetry from every server the audit touched.
  bench::write_rssac002();
  return 0;
}
