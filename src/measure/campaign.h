// Campaign assembly: wires catalog + zone authority + topology + router +
// vantage points + schedule + fault plan into one reproducible experiment.
//
// Everything downstream (the analysis module, the bench harnesses, the
// examples) starts from a Campaign. A campaign is a pure function of its
// config; the config for a given timeline comes from a scenario spec via
// scenario::apply() (the paper's setup is scenario::paper_campaign_config()).
#pragma once

#include <memory>
#include <string>

#include "measure/faults.h"
#include "measure/prober.h"
#include "measure/schedule.h"
#include "measure/vantage.h"
#include "netsim/routing.h"
#include "obs/incident.h"
#include "obs/obs.h"
#include "rss/catalog.h"
#include "rss/outages.h"
#include "rss/zone_authority.h"

namespace rootsim::scenario {
struct ScenarioSpec;
}  // namespace rootsim::scenario

namespace rootsim::measure {

struct CampaignConfig {
  uint64_t seed = 42;
  /// Name of the scenario this config was derived from; stamped as a
  /// `{"scenario":...}` header line on the slo/incidents JSONL exports so
  /// datasets from different scenarios stay distinguishable. Empty = no
  /// header (ad-hoc configs).
  std::string scenario_name;
  netsim::TopologyConfig topology;
  netsim::RouterConfig router;
  VantageSetConfig vantage;
  ScheduleConfig schedule;
  rss::ZoneAuthorityConfig zone;
  /// Link conditions and retry policy of the simulated transport every
  /// client↔server exchange rides (defaults: clean, loss-free paths).
  netsim::TransportConfig transport;
  /// Scale factor < 1 shrinks the VP set for fast tests (keeps proportions).
  double vp_scale = 1.0;
  /// Scheduled faulty transfers the zone audit executes (scenario data; the
  /// paper's Table 2 plan comes from the `paper-2023` spec).
  std::vector<FaultEvent> fault_plan;
  /// Labelled service-affecting event windows of the scenario timeline; the
  /// SLO monitor layers them over the background outage model and offers
  /// each label to incident attribution.
  std::vector<rss::ScriptedOutage> scripted_outages;
  /// Additional attribution hints for events that degrade paths without
  /// darkening sites (route leaks, DDoS collateral on surviving sites).
  std::vector<obs::CauseHint> extra_hints;
  /// Per-letter deployment edits applied over the catalog's Table 4 site
  /// counts before the topology is built (scenario events like collapsing a
  /// letter to unicast).
  struct DeploymentOverride {
    int root_index = 0;
    std::array<int, util::kRegionCount> global_sites{};
    std::array<int, util::kRegionCount> local_sites{};
  };
  std::vector<DeploymentOverride> deployment_overrides;
};

/// One observation in the ZONEMD audit dataset (paper §7 / Table 2).
struct ZoneAuditObservation {
  uint32_t vp_id = 0;
  int table2_vp_id = 0;  // 0 = not a planned fault (clean sample)
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  bool old_b_address = false;
  util::UnixTime when = 0;
  uint32_t soa_serial = 0;
  dnssec::ValidationStatus verdict = dnssec::ValidationStatus::Valid;
  dnssec::ZonemdStatus zonemd = dnssec::ZonemdStatus::NoZonemd;
  /// A VP-wide fault (bad clock) affects every server of the round; Table 2
  /// prints such rows with server = "all".
  bool affects_all_servers = false;
  std::string note;
};

/// Configuration of the streaming SLO monitor run over the campaign
/// timeline (Campaign::run_slo_timeline).
struct SloTimelineOptions {
  obs::SloThresholds thresholds;
  /// Background per-site outage model (maintenance, upstream failures).
  rss::OutageModelConfig outages;
  /// Extra labelled event windows layered on top of the campaign config's
  /// scenario outages — what attribution can *name*.
  std::vector<rss::ScriptedOutage> scripted_outages;
  /// When a probe's selected site is dark and this is > 0, the probe falls
  /// back to the best announced alternative among this many candidate
  /// routes (the anycast catchment view scenarios ask for); 0 = a dark
  /// site is simply a failed probe, as the paper's monitor treated it.
  size_t route_fallback_candidates = 0;
  /// Availability probes per (letter, family) per 6 h bucket. Windows hold
  /// probes_per_bucket x window_buckets probes, so with the defaults a
  /// single lost probe already dents 99.96 % — which is the point; the
  /// hysteresis is what keeps background noise from paging.
  size_t probes_per_bucket = 12;
  /// Sites sampled per (letter, family) publication event (serial bump).
  size_t publication_samples = 6;
  /// 0 = ROOTSIM_WORKERS env var, else serial (same as run_zone_audit).
  size_t workers = 0;
  /// Optional: failed probes are recorded here (one shard per worker) and
  /// its deterministic failure_summary() feeds attribution.
  netsim::FlightRecorder* flight_recorder = nullptr;
};

/// Everything one monitored timeline run produces. The JSONL strings are the
/// canonical slo.jsonl / incidents.jsonl exports — byte-identical across
/// worker counts and steal schedules.
struct SloTimelineResult {
  std::vector<obs::SloWindow> windows;
  std::vector<obs::Incident> incidents;
  std::vector<obs::CauseHint> hints;  ///< what attribution was offered
  std::string slo_jsonl;
  std::string incidents_jsonl;
  // Deterministic roll-up counters (bench baselines compare these exactly).
  uint64_t probes = 0;
  uint64_t failed_probes = 0;
  uint64_t latency_samples = 0;
  uint64_t publication_count = 0;
  uint64_t staleness_samples = 0;
  uint64_t integrity_checks = 0;
  uint64_t integrity_failures = 0;
};

class Campaign {
 public:
  /// `obs` (optional) is the observability sink threaded through every layer
  /// the campaign builds — zone authority, router, prober and the audit
  /// loop. The default null sink leaves all instrumentation disabled, so a
  /// Campaign stays a pure function of its config.
  explicit Campaign(CampaignConfig config = {}, obs::Obs obs = {});

  const CampaignConfig& config() const { return config_; }
  const obs::Obs& obs() const { return obs_; }
  const rss::RootCatalog& catalog() const { return catalog_; }
  const rss::ZoneAuthority& authority() const { return *authority_; }
  const netsim::Topology& topology() const { return topology_; }
  const netsim::AnycastRouter& router() const { return *router_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  const Schedule& schedule() const { return schedule_; }
  const Prober& prober() const { return *prober_; }
  /// The simulated transport the campaign's prober sends everything through.
  const netsim::Transport& transport() const { return prober_->transport(); }
  const std::vector<FaultEvent>& fault_plan() const {
    return config_.fault_plan;
  }

  /// Runs the ZONEMD audit: executes every fault_plan() event as a full
  /// AXFR + validation, plus `clean_samples` healthy transfers spread over
  /// the campaign (sampling the 75M-transfer corpus the paper validated).
  ///
  /// `workers` fans the (fault event + clean sample) units out over the exec
  /// engine (0 = ROOTSIM_WORKERS env var, else serial). Every unit draws its
  /// RNG by forking the campaign seed by unit index and records into a
  /// per-worker obs shard merged in unit order, so the observation vector
  /// AND the metric/trace exports are byte-identical for any worker count.
  std::vector<ZoneAuditObservation> run_zone_audit(size_t clean_samples = 200,
                                                   size_t workers = 0) const;

  /// Runs the streaming RSSAC047 SLO monitor over the campaign's schedule:
  /// one work unit per 6 h bucket of simulated time, each sampling
  /// availability/latency (via the anycast router + outage models),
  /// publication latency and zone staleness (vs. the zone authority's serial
  /// cadence) and ZONEMD integrity for all 13 letters x both families into
  /// per-unit SloCollector shards, merged in unit order. Windows are then
  /// swept, incidents detected with hysteresis, and causes attributed
  /// against scripted outages, zone-pipeline events and the flight
  /// recorder's failure summary. Pure function of (config, options) — the
  /// worker count and steal schedule never change a byte of the exports.
  ///
  /// If the campaign was built with a Recorder, samples also land in its
  /// SloCollector (the obs_.slo sink); otherwise a run-local collector is
  /// used.
  SloTimelineResult run_slo_timeline(const SloTimelineOptions& options = {}) const;

  /// Scenario-first entry point (defined in scenario/apply.cpp; callers link
  /// rootsim_scenario): completes the spec-dependent monitor options (route
  /// fallback for catchment scenarios) and runs the monitor. The campaign
  /// should have been built from the same spec (scenario::apply).
  SloTimelineResult run_slo_timeline(const scenario::ScenarioSpec& spec,
                                     SloTimelineOptions options) const;

 private:
  CampaignConfig config_;
  obs::Obs obs_;
  rss::RootCatalog catalog_;
  std::unique_ptr<rss::ZoneAuthority> authority_;
  netsim::Topology topology_;
  std::unique_ptr<netsim::AnycastRouter> router_;
  std::vector<VantagePoint> vps_;
  Schedule schedule_;
  std::unique_ptr<Prober> prober_;
};

}  // namespace rootsim::measure
