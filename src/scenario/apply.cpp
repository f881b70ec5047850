#include "scenario/apply.h"

#include <algorithm>

#include "scenario/library.h"

namespace rootsim::scenario {

namespace {

measure::FaultEvent to_fault_event(const FaultSpec& fault) {
  measure::FaultEvent event;
  switch (fault.kind) {
    case FaultSpec::Kind::ClockSkew:
      event.kind = measure::FaultEvent::Kind::ClockSkew;
      break;
    case FaultSpec::Kind::Bitflip:
      event.kind = measure::FaultEvent::Kind::Bitflip;
      break;
    case FaultSpec::Kind::StaleServer:
      event.kind = measure::FaultEvent::Kind::StaleServer;
      break;
  }
  event.vp_id = fault.vp_id;
  event.root_index = fault.root;
  event.family = fault.family == 1 ? util::IpFamily::V6 : util::IpFamily::V4;
  event.old_b_address = fault.old_b_address;
  event.when = fault.when;
  event.clock_offset_s = fault.clock_offset_s;
  if (fault.server_frozen_at > 0)
    event.server_frozen_at = fault.server_frozen_at;
  event.table2_vp_id = fault.table2_vp_id;
  return event;
}

rss::ScriptedOutage make_outage(const Event& event, util::UnixTime start,
                                util::UnixTime end, double fraction) {
  rss::ScriptedOutage outage;
  outage.root_index = event.letter;
  outage.start = start;
  outage.end = end;
  outage.site_fraction = fraction;
  outage.region = event.region;
  outage.label = event.label;
  return outage;
}

netsim::ConditionWindow make_condition_window(const Event& event) {
  netsim::ConditionWindow window;
  window.start = event.window.start;
  window.end = event.window.end;
  window.root_index = event.letter;
  window.add.loss = event.loss;
  window.add.extra_rtt_ms = event.extra_rtt_ms;
  window.add.jitter_ms = event.jitter_ms;
  return window;
}

obs::CauseHint make_hint(const Event& event) {
  obs::CauseHint hint;
  hint.start = event.window.start;
  hint.end = event.window.end;
  hint.root = event.letter;
  hint.label = event.label;
  hint.weight = 2.0;
  return hint;
}

}  // namespace

Applied apply(const ScenarioSpec& spec) {
  Applied applied;
  measure::CampaignConfig& campaign = applied.campaign;
  campaign.seed = spec.seed;
  campaign.scenario_name = spec.name;

  campaign.schedule.start = spec.horizon.start;
  campaign.schedule.end = spec.horizon.end;
  campaign.schedule.base_interval_s = spec.horizon.base_interval_s;
  campaign.schedule.dense_interval_s = spec.horizon.dense_interval_s;
  for (const TimeWindow& window : spec.horizon.dense_windows)
    campaign.schedule.dense_windows.push_back({window.start, window.end});

  campaign.zone.zonemd_private_start = spec.zone.zonemd_private_start;
  campaign.zone.zonemd_sha384_start = spec.zone.zonemd_sha384_start;
  campaign.zone.ksk_roll_at = spec.zone.ksk_roll_at;
  campaign.zone.broot_change = renumbering_time(spec);

  applied.distribution.czds_broken_zonemd_start =
      spec.zone.czds_broken_zonemd.start;
  applied.distribution.czds_broken_zonemd_end =
      spec.zone.czds_broken_zonemd.end;

  for (const FaultSpec& fault : spec.faults)
    campaign.fault_plan.push_back(to_fault_event(fault));

  for (const DeploymentOverride& deployment : spec.deployments) {
    measure::CampaignConfig::DeploymentOverride override_spec;
    override_spec.root_index = deployment.letter;
    override_spec.global_sites = deployment.global_sites;
    override_spec.local_sites = deployment.local_sites;
    campaign.deployment_overrides.push_back(override_spec);
  }

  for (const Event& event : spec.events) {
    switch (event.kind) {
      case EventKind::SiteOutage:
      case EventKind::Renumbering:
        // Renumbering's zone-record flip is the broot_change above; the
        // outage is the convergence window the monitor watches.
        campaign.scripted_outages.push_back(
            make_outage(event, event.window.start, event.window.end,
                        event.site_fraction));
        break;
      case EventKind::Ddos: {
        // The overwhelmed fraction of *global* sites stops answering...
        rss::ScriptedOutage outage =
            make_outage(event, event.window.start, event.window.end,
                        event.site_fraction);
        outage.site_type = static_cast<int>(netsim::SiteType::Global);
        campaign.scripted_outages.push_back(outage);
        // ...and everything that still answers does so through congestion.
        if (event.loss > 0 || event.extra_rtt_ms > 0 || event.jitter_ms > 0)
          campaign.transport.condition_windows.push_back(
              make_condition_window(event));
        break;
      }
      case EventKind::RouteLeak:
      case EventKind::TransportDegradation:
        // No sites dark — the path itself degrades; attribution needs an
        // explicit hint since there is no outage to derive one from.
        campaign.transport.condition_windows.push_back(
            make_condition_window(event));
        if (!event.label.empty())
          campaign.extra_hints.push_back(make_hint(event));
        break;
      case EventKind::LetterAdded:
        // Dark from the dawn of the campaign until service begins.
        campaign.scripted_outages.push_back(make_outage(
            event, spec.horizon.start, event.window.start, 1.0));
        break;
      case EventKind::LetterRemoved:
        campaign.scripted_outages.push_back(
            make_outage(event, event.window.start, spec.horizon.end, 1.0));
        break;
      case EventKind::SiteGrowth: {
        // The not-yet-built fraction decays to zero in `stages` batches.
        // Same label across stages: the pure (site_id, label) hash with a
        // declining fraction yields nested dark subsets, so a site that
        // comes online stays online.
        const int stages = std::max(1, event.stages);
        const int64_t span = event.window.end - event.window.start;
        for (int stage = 0; stage < stages; ++stage) {
          const util::UnixTime from =
              event.window.start + span * stage / stages;
          const util::UnixTime to =
              event.window.start + span * (stage + 1) / stages;
          campaign.scripted_outages.push_back(make_outage(
              event, from, to,
              event.site_fraction * static_cast<double>(stages - stage) /
                  static_cast<double>(stages)));
        }
        break;
      }
    }
  }

  if (spec.route_fallback) applied.slo.route_fallback_candidates = 8;
  return applied;
}

measure::CampaignConfig paper_campaign_config() {
  return apply(paper_2023()).campaign;
}

rss::DistributionConfig paper_distribution_config() {
  return apply(paper_2023()).distribution;
}

}  // namespace rootsim::scenario

namespace rootsim::measure {

// The scenario-taking Campaign entry point lives here so the measure library
// never links (or even sees) the scenario layer.

SloTimelineResult Campaign::run_slo_timeline(
    const scenario::ScenarioSpec& spec, SloTimelineOptions options) const {
  // The campaign config (built from the same spec) already carries the
  // spec's outages and hints; only the monitor-side knobs are spec-derived
  // here. Re-injecting the outages would double the scripted list.
  if (spec.route_fallback && options.route_fallback_candidates == 0)
    options.route_fallback_candidates = 8;
  return run_slo_timeline(options);
}

}  // namespace rootsim::measure
