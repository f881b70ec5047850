#include "measure/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "netsim/flight_recorder.h"
#include "scenario/apply.h"

namespace rootsim::measure {
namespace {

CampaignConfig fast_config() {
  CampaignConfig config = scenario::paper_campaign_config();
  config.zone.tld_count = 25;
  config.zone.rsa_modulus_bits = 512;
  config.vp_scale = 0.05;
  return config;
}

TEST(Campaign, AssemblesAllComponents) {
  Campaign campaign(fast_config());
  EXPECT_EQ(campaign.schedule().round_count(), 10272u);
  EXPECT_GT(campaign.vantage_points().size(), 10u);
  EXPECT_GT(campaign.topology().sites.size(), 1000u);
  EXPECT_FALSE(campaign.fault_plan().empty());
  // Router calibrated to the schedule length.
  EXPECT_EQ(campaign.router().config().campaign_rounds,
            campaign.schedule().round_count());
}

TEST(Campaign, VpScaleShrinksProportionally) {
  Campaign small(fast_config());
  // Full Table 3 is 675; 5% ~ 35 (at least 1 per region).
  EXPECT_LT(small.vantage_points().size(), 60u);
  EXPECT_GE(small.vantage_points().size(), 6u);
  std::set<util::Region> regions;
  for (const auto& vp : small.vantage_points()) regions.insert(vp.view.region);
  EXPECT_EQ(regions.size(), util::kRegionCount);  // every region survives
}

TEST(Campaign, ZoneAuditFindsAllFaultClasses) {
  Campaign campaign(fast_config());
  auto observations = campaign.run_zone_audit(/*clean_samples=*/40);
  ASSERT_FALSE(observations.empty());
  size_t not_incepted = 0, expired = 0, bogus = 0, valid = 0;
  for (const auto& obs : observations) {
    switch (obs.verdict) {
      case dnssec::ValidationStatus::SignatureNotIncepted: ++not_incepted; break;
      case dnssec::ValidationStatus::SignatureExpired: ++expired; break;
      case dnssec::ValidationStatus::BogusSignature: ++bogus; break;
      case dnssec::ValidationStatus::Valid: ++valid; break;
      default: break;
    }
  }
  EXPECT_GT(not_incepted, 0u) << "clock-skew VPs must yield inception errors";
  EXPECT_GT(expired, 0u) << "stale d.root sites must yield expired signatures";
  EXPECT_GT(bogus, 0u) << "bitflips must yield bogus signatures";
  EXPECT_GT(valid, 30u) << "clean samples must validate";
}

TEST(Campaign, ZoneAuditCleanSamplesAllValid) {
  Campaign campaign(fast_config());
  auto observations = campaign.run_zone_audit(/*clean_samples=*/60);
  for (const auto& obs : observations) {
    if (obs.table2_vp_id != 0) continue;  // planned fault
    EXPECT_EQ(obs.verdict, dnssec::ValidationStatus::Valid)
        << "clean transfer failed at " << util::format_datetime(obs.when)
        << " note=" << obs.note;
  }
}

TEST(Campaign, ZoneAuditBitflipsDetectedByZonemdWhenVerifiable) {
  Campaign campaign(fast_config());
  auto observations = campaign.run_zone_audit(0);
  for (const auto& obs : observations) {
    if (obs.verdict != dnssec::ValidationStatus::BogusSignature) continue;
    // After 2023-12-06, ZONEMD is verifiable and must flag the corruption;
    // before that, the record is absent or unsupported.
    if (obs.when >= util::make_time(2023, 12, 6, 20, 30)) {
      EXPECT_EQ(obs.zonemd, dnssec::ZonemdStatus::Mismatch);
    }
  }
}

TEST(Campaign, ZoneAuditObservationsSortedByTime) {
  Campaign campaign(fast_config());
  auto observations = campaign.run_zone_audit(20);
  for (size_t i = 1; i < observations.size(); ++i)
    EXPECT_LE(observations[i - 1].when, observations[i].when);
}

TEST(Campaign, DeterministicAudit) {
  Campaign a(fast_config());
  Campaign b(fast_config());
  auto obs_a = a.run_zone_audit(10);
  auto obs_b = b.run_zone_audit(10);
  ASSERT_EQ(obs_a.size(), obs_b.size());
  for (size_t i = 0; i < obs_a.size(); ++i) {
    EXPECT_EQ(obs_a[i].verdict, obs_b[i].verdict);
    EXPECT_EQ(obs_a[i].soa_serial, obs_b[i].soa_serial);
  }
}

TEST(Campaign, VpFallbackStandInsAreUniquePerPlannedVp) {
  // vp_scale = 0.05 keeps ~35 of 675 VPs, so most planned fault VP ids are
  // missing and get stand-ins. Distinct planned ids must never collapse onto
  // the same stand-in (the modulo-aliasing bug this assignment replaced).
  Campaign campaign(fast_config());
  auto observations = campaign.run_zone_audit(0);

  std::map<uint32_t, uint32_t> planned_to_stand_in;
  std::set<uint32_t> scaled_ids;
  for (const auto& vp : campaign.vantage_points())
    scaled_ids.insert(vp.view.vp_id);

  const std::string marker = "vp-fallback: planned vp ";
  for (const auto& obs : observations) {
    size_t at = obs.note.find(marker);
    if (at == std::string::npos) continue;
    unsigned planned = 0, stand_in = 0;
    ASSERT_EQ(std::sscanf(obs.note.c_str() + at,
                          "vp-fallback: planned vp %u not in scaled set "
                          "(stand-in vp %u)",
                          &planned, &stand_in),
              2)
        << obs.note;
    // The observation keeps the plan's VP identity, not the stand-in's.
    EXPECT_EQ(obs.vp_id, planned);
    EXPECT_FALSE(scaled_ids.count(planned)) << planned;
    EXPECT_TRUE(scaled_ids.count(stand_in)) << stand_in;
    auto [it, inserted] = planned_to_stand_in.emplace(planned, stand_in);
    // Stable: every event of the same planned VP uses the same stand-in.
    EXPECT_EQ(it->second, stand_in) << planned;
  }
  ASSERT_GT(planned_to_stand_in.size(), 1u) << "fixture no longer scales down";

  // Injectivity: no two planned VPs share a stand-in.
  std::set<uint32_t> distinct_stand_ins;
  for (const auto& [planned, stand_in] : planned_to_stand_in)
    distinct_stand_ins.insert(stand_in);
  EXPECT_EQ(distinct_stand_ins.size(), planned_to_stand_in.size());
}

// The audit runs exactly the campaign config's fault plan — here a trimmed,
// edited plan no scenario ships — and fault_plan() hands that plan back.
TEST(Campaign, ZoneAuditFollowsTheConfiguredFaultPlan) {
  CampaignConfig config = fast_config();
  std::vector<FaultEvent> plan;
  for (size_t i = 0; i < config.fault_plan.size(); i += 3)
    plan.push_back(config.fault_plan[i]);
  ASSERT_GT(plan.size(), 2u);
  ASSERT_LT(plan.size(), config.fault_plan.size());
  plan[1].vp_id = 9999;  // no paper VP has this id; a stand-in probes for it
  config.fault_plan = plan;
  Campaign campaign(config);

  ASSERT_EQ(campaign.fault_plan().size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(campaign.fault_plan()[i].vp_id, plan[i].vp_id) << i;
    EXPECT_EQ(campaign.fault_plan()[i].table2_vp_id, plan[i].table2_vp_id) << i;
    EXPECT_EQ(campaign.fault_plan()[i].when, plan[i].when) << i;
  }

  std::multiset<int> planned_table2, audited_table2;
  std::multiset<uint32_t> planned_vps, audited_vps;
  for (const FaultEvent& event : plan) {
    planned_table2.insert(event.table2_vp_id);
    planned_vps.insert(event.vp_id);
  }
  for (const auto& obs : campaign.run_zone_audit(/*clean_samples=*/0)) {
    audited_table2.insert(obs.table2_vp_id);
    audited_vps.insert(obs.vp_id);
  }
  EXPECT_EQ(audited_table2, planned_table2);
  EXPECT_EQ(audited_vps, planned_vps);
  EXPECT_EQ(audited_vps.count(9999), 1u);
}

TEST(Campaign, LossyAuditIsIdenticalAcrossWorkerCounts) {
  // The transport RNG is keyed by path coordinates, never by worker or
  // execution order: a lossy campaign must produce byte-identical
  // observation vectors at any worker count.
  CampaignConfig config = fast_config();
  config.transport.defaults.loss = 0.3;
  Campaign campaign(config);
  auto serial = campaign.run_zone_audit(16, 1);
  ASSERT_FALSE(serial.empty());
  size_t timeouts = 0;
  for (const auto& obs : serial)
    if (obs.note.find("axfr-timeout") != std::string::npos) ++timeouts;
  EXPECT_GT(timeouts, 0u) << "30% loss should kill some transfers";
  for (size_t workers : {2u, 8u}) {
    auto parallel = campaign.run_zone_audit(16, workers);
    ASSERT_EQ(parallel.size(), serial.size()) << workers;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].vp_id, serial[i].vp_id) << workers << ":" << i;
      EXPECT_EQ(parallel[i].root_index, serial[i].root_index)
          << workers << ":" << i;
      EXPECT_EQ(parallel[i].when, serial[i].when) << workers << ":" << i;
      EXPECT_EQ(parallel[i].soa_serial, serial[i].soa_serial)
          << workers << ":" << i;
      EXPECT_EQ(parallel[i].verdict, serial[i].verdict) << workers << ":" << i;
      EXPECT_EQ(parallel[i].zonemd, serial[i].zonemd) << workers << ":" << i;
      EXPECT_EQ(parallel[i].note, serial[i].note) << workers << ":" << i;
    }
  }
}

// The tentpole acceptance property for the SLO plane: run the monitor over
// the paper timeline and both headline events must come out the other side
// as *detected, attributed* incidents — the b.root renumbering as an
// availability breach on letter b blamed on the scripted event, and the
// ZONEMD private-algorithm rollout phase as integrity breaches blamed on
// the zone-pipeline hint.
TEST(Campaign, SloTimelineDetectsAndAttributesPaperEvents) {
  // Full paper schedule (the ZONEMD rollout spans Sep-Dec); scaled VP set
  // keeps the run to a few seconds.
  Campaign campaign(fast_config());
  netsim::FlightRecorder flight(256);
  SloTimelineOptions options;
  options.flight_recorder = &flight;
  options.workers = 4;
  SloTimelineResult result = campaign.run_slo_timeline(options);

  ASSERT_FALSE(result.windows.empty());
  ASSERT_FALSE(result.incidents.empty());
  EXPECT_GT(result.probes, 0u);
  EXPECT_GT(result.failed_probes, 0u);  // outage model + scripted event
  EXPECT_GT(result.integrity_failures, 0u);  // private-algorithm phase

  bool broot_availability = false;
  bool zonemd_integrity = false;
  for (const obs::Incident& incident : result.incidents) {
    if (incident.root == 1 &&
        incident.metric == obs::SloMetric::Availability &&
        incident.cause == "b.root-renumbering") {
      broot_availability = true;
      EXPECT_FALSE(incident.open()) << "renumbering window ended; must heal";
      // Opened within the paper's event neighbourhood (hysteresis can pull
      // the open back to the first breached window before the event peak).
      EXPECT_GE(incident.opened, util::make_time(2023, 11, 20));
      EXPECT_LE(incident.opened, util::make_time(2023, 11, 28));
      EXPECT_LT(incident.worst_value, 0.99);
    }
    if (incident.metric == obs::SloMetric::Integrity &&
        incident.cause == "zonemd-private-algorithm") {
      zonemd_integrity = true;
      EXPECT_FALSE(incident.open()) << "sha384 switch must close it";
    }
  }
  EXPECT_TRUE(broot_availability)
      << "b.root renumbering not detected/attributed:\n"
      << result.incidents_jsonl;
  EXPECT_TRUE(zonemd_integrity)
      << "ZONEMD rollout not detected/attributed:\n"
      << result.incidents_jsonl;
}

TEST(FaultPlan, MatchesTable2Structure) {
  auto plan = scenario::paper_campaign_config().fault_plan;
  size_t clock_events = 0, bitflips = 0, stale = 0;
  for (const auto& event : plan) {
    switch (event.kind) {
      case FaultEvent::Kind::ClockSkew: ++clock_events; break;
      case FaultEvent::Kind::Bitflip: ++bitflips; break;
      case FaultEvent::Kind::StaleServer: ++stale; break;
    }
  }
  EXPECT_EQ(clock_events, 6u);  // paper: six time-related validation errors
  EXPECT_EQ(bitflips, 8u);      // paper: eight transfers with bitflips
  EXPECT_EQ(stale, 12u + 40u);  // Tokyo 12 + Leeds 40 observations
  // The bitflips affect five distinct servers: d, g, b(old), c, g(v4).
  std::set<std::pair<int, bool>> flip_targets;
  for (const auto& event : plan)
    if (event.kind == FaultEvent::Kind::Bitflip)
      flip_targets.insert({event.root_index, event.family == util::IpFamily::V4});
  EXPECT_EQ(flip_targets.size(), 5u);
}

}  // namespace
}  // namespace rootsim::measure
