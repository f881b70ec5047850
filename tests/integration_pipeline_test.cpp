// Capstone integration test: one campaign, every analysis, and the
// cross-analysis consistency properties that must hold between them.
#include <gtest/gtest.h>

#include "analysis/colocation.h"
#include "analysis/coverage.h"
#include "analysis/distance.h"
#include "analysis/propagation.h"
#include "analysis/rtt.h"
#include "analysis/stability.h"
#include "analysis/zonemd_report.h"
#include "localroot/local_root.h"
#include "obs/report.h"
#include "util/strings.h"

namespace rootsim {
namespace {

const measure::Campaign& campaign() {
  static const measure::Campaign* instance = [] {
    measure::CampaignConfig config;
    config.zone.tld_count = 30;
    config.zone.rsa_modulus_bits = 512;
    config.vp_scale = 0.2;
    return new measure::Campaign(config);
  }();
  return *instance;
}

TEST(Pipeline, CoverageObservedSitesAreRealSites) {
  auto coverage = analysis::compute_coverage(campaign());
  for (uint32_t site_id : coverage.observed_sites)
    ASSERT_LT(site_id, campaign().topology().sites.size());
  // Every root has at least one observed site (all are queried every round).
  std::array<bool, rss::kRootCount> seen{};
  for (uint32_t site_id : coverage.observed_sites)
    seen[campaign().topology().sites[site_id].root_index] = true;
  for (size_t root = 0; root < rss::kRootCount; ++root)
    EXPECT_TRUE(seen[root]) << static_cast<char>('a' + root);
}

TEST(Pipeline, StabilityAndCoverageAgreeOnMultiSiteObservation) {
  // A VP whose (root, family) stream records >= 1 change necessarily
  // observed >= 2 sites of that root; coverage must therefore include the
  // secondary site of a churny selection.
  const auto& router = campaign().router();
  auto coverage = analysis::compute_coverage(campaign());
  size_t checked = 0;
  for (const auto& vp : campaign().vantage_points()) {
    auto selection = router.prepare_selection(vp.view, 6, util::IpFamily::V6);
    if (selection.primary_site == selection.secondary_site) continue;
    // Sample a few rounds; if the secondary ever appears, coverage must
    // have it too (coverage samples rounds the same way).
    for (size_t s = 0; s < 64; ++s) {
      uint64_t round = (s * 997) % campaign().schedule().round_count();
      uint32_t site = netsim::AnycastRouter::site_at_round(selection, round);
      if (site == selection.secondary_site) {
        EXPECT_TRUE(coverage.observed_sites.count(site))
            << "secondary site observed by stability but not coverage";
        ++checked;
        break;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Pipeline, DistanceAndRttAreCoherent) {
  // For every VP, the RTT of the selected site must be at least the fiber
  // RTT of the *closest* global site (physics lower bound), except detour
  // fast-paths which are calibrated distributions (still positive).
  auto distance_v4 = analysis::compute_distance(campaign(), 5, util::IpFamily::V4);
  const auto& router = campaign().router();
  size_t i = 0;
  for (const auto& vp : campaign().vantage_points()) {
    const auto& sample = distance_v4.samples[i++];
    EXPECT_EQ(sample.vp_id, vp.view.vp_id);
    netsim::RouteResult route = router.route(vp.view, 5, util::IpFamily::V4);
    if (!route.via_detour) {
      EXPECT_GE(route.rtt_ms + 1e-9, util::fiber_rtt_ms(sample.actual_km) *
                                         0.99);
    }
    EXPECT_GT(route.rtt_ms, 0);
  }
}

TEST(Pipeline, ColocationBoundedByDeploymentReality) {
  auto colocation = analysis::compute_colocation(campaign());
  // Max cluster cannot exceed the most roots hosted at any one facility.
  std::map<netsim::FacilityId, std::set<uint32_t>> roots_at;
  for (const auto& site : campaign().topology().sites)
    roots_at[site.facility].insert(site.root_index);
  size_t max_cohosted = 0;
  for (const auto& [facility, roots] : roots_at)
    max_cohosted = std::max(max_cohosted, roots.size());
  EXPECT_LE(static_cast<size_t>(colocation.max_colocated_roots), max_cohosted);
}

TEST(Pipeline, AuditVerdictsConsistentWithZonemdTimeline) {
  auto observations = campaign().run_zone_audit(60);
  auto zonemd_verifiable_from = util::make_time(2023, 12, 6, 20, 30);
  auto zonemd_present_from = util::make_time(2023, 9, 13);
  for (const auto& obs : observations) {
    if (obs.verdict != dnssec::ValidationStatus::Valid) continue;
    // Clean transfers' ZONEMD status must match the rollout stage at the
    // SERVED serial's time (stale servers can lag the probe time).
    util::UnixTime serial_era = obs.when;
    if (obs.zonemd == dnssec::ZonemdStatus::Verified) {
      EXPECT_GE(serial_era, zonemd_verifiable_from)
          << util::format_datetime(obs.when);
    }
    if (obs.zonemd == dnssec::ZonemdStatus::NoZonemd &&
        obs.table2_vp_id == 0) {
      EXPECT_LT(serial_era, zonemd_present_from + util::kSecondsPerDay)
          << util::format_datetime(obs.when);
    }
  }
}

TEST(Pipeline, LocalRootServesWhatTheProberTransfers) {
  // The local root's accepted copy equals the zone a direct probe returns.
  localroot::LocalRootService service(campaign(),
                                      campaign().vantage_points()[0]);
  util::UnixTime now = util::make_time(2023, 12, 10, 9, 0);
  ASSERT_TRUE(service.refresh(now).success);
  auto probe = campaign().prober().probe(
      campaign().vantage_points()[0], campaign().catalog().server(1).ipv6, now,
      campaign().schedule().round_at(now));
  auto direct = dns::Zone::from_axfr(probe.axfr->records, dns::Name());
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*service.zone(), *direct);
}

measure::CampaignConfig small_obs_config() {
  measure::CampaignConfig config;
  config.zone.tld_count = 20;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  return config;
}

TEST(Pipeline, RunReportCountersReconcileWithProbeRecords) {
  obs::Recorder recorder;
  measure::Campaign campaign(small_obs_config(), recorder.obs());

  util::UnixTime now = util::make_time(2023, 12, 10, 9, 0);
  uint64_t round = campaign.schedule().round_at(now);
  auto addresses =
      campaign.catalog().service_addresses(campaign.schedule().config().end);

  size_t probes = 0, queries = 0, timeouts = 0, tcp_retries = 0;
  size_t axfr_ok = 0, axfr_refused = 0;
  for (size_t v = 0; v < 3 && v < campaign.vantage_points().size(); ++v) {
    for (size_t a = 0; a < 6 && a < addresses.size(); ++a) {
      measure::ProbeRecord record = campaign.prober().probe(
          campaign.vantage_points()[v], addresses[a], now, round);
      ++probes;
      queries += record.queries.size();
      for (const auto& query : record.queries) {
        if (query.timed_out) ++timeouts;
        if (query.retried_over_tcp) ++tcp_retries;
      }
      if (record.axfr) {
        if (record.axfr->refused) ++axfr_refused;
        else ++axfr_ok;
      }
      EXPECT_NE(record.trace_span, 0u)
          << "probes must open a span when a tracer is attached";
    }
  }

  auto report = obs::RunReport::capture(recorder);
  // The registry totals must reconcile *exactly* with the ProbeRecords the
  // same probes returned — the instrumentation measures, it never invents.
  EXPECT_EQ(report.counter_total("prober.probes"), probes);
  EXPECT_EQ(report.counter_total("prober.queries"), queries);
  EXPECT_EQ(report.counter_total("prober.query_timeouts"), timeouts);
  EXPECT_EQ(report.counter_total("prober.tcp_retries"), tcp_retries);
  EXPECT_EQ(report.counter_value("prober.axfr", {{"result", "ok"}}), axfr_ok);
  EXPECT_EQ(report.counter_value("prober.axfr", {{"result", "refused"}}),
            axfr_refused);
  // Server-side accounting: one message answered per query that reached the
  // instance, plus one more for every truncation retried over TCP.
  EXPECT_EQ(report.counter_total("rss.queries_served"),
            queries - timeouts + tcp_retries);
  EXPECT_EQ(report.counter_total("rss.axfr"), axfr_ok + axfr_refused);
  // Every probe routed exactly once.
  EXPECT_EQ(report.counter_total("netsim.route_selections"), probes);
  // Per-query rcode series sum back to the query total.
  uint64_t by_rcode = 0;
  for (const auto& sample : report.metrics)
    if (sample.name == "prober.queries") by_rcode += sample.count;
  EXPECT_EQ(by_rcode, queries);
}

TEST(Pipeline, AuditValidationCountersReconcileWithObservations) {
  obs::Recorder recorder;
  measure::Campaign campaign(small_obs_config(), recorder.obs());
  auto observations = campaign.run_zone_audit(/*clean_samples=*/30);

  size_t validated = 0, valid_verdicts = 0;
  for (const auto& obs : observations) {
    bool skipped_validation =
        obs.note == "axfr-refused" || obs.note == "axfr-timeout" ||
        util::starts_with(obs.note, "axfr-framing-broken");
    if (skipped_validation) continue;
    ++validated;
    if (obs.verdict == dnssec::ValidationStatus::Valid) ++valid_verdicts;
  }
  auto report = obs::RunReport::capture(recorder);
  EXPECT_EQ(report.counter_total("dnssec.validations"), validated);
  EXPECT_EQ(report.counter_value("dnssec.validations", {{"status", "valid"}}),
            valid_verdicts);
  EXPECT_EQ(report.counter_total("campaign.clean_samples"), 30u);
  EXPECT_EQ(report.counter_total("campaign.fault_events"),
            campaign.fault_plan().size());
}

TEST(Pipeline, EqualSeedsEmitByteIdenticalTraceDumps) {
  auto run = [] {
    obs::Recorder recorder;
    measure::Campaign campaign(small_obs_config(), recorder.obs());
    campaign.run_zone_audit(/*clean_samples=*/10);
    return std::pair<std::string, std::string>(
        recorder.tracer().to_jsonl(), recorder.metrics().to_jsonl());
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first.first, second.first) << "trace dumps must be byte-identical";
  EXPECT_EQ(first.second, second.second)
      << "metric exports must be byte-identical";
  EXPECT_FALSE(first.first.empty());
}

TEST(Pipeline, PropagationDelaysWithinSearchWindow) {
  analysis::PropagationOptions options;
  options.max_instances_per_root = 4;
  auto report = analysis::measure_soa_propagation(
      campaign(), util::make_time(2023, 9, 20, 12, 0), options);
  for (const auto& row : report.per_root)
    for (double delay : row.delays_s) {
      EXPECT_GE(delay, 0);
      EXPECT_LE(delay, static_cast<double>(options.search_window_s));
    }
}

}  // namespace
}  // namespace rootsim
