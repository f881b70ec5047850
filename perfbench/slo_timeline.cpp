// slo-timeline: Campaign::run_slo_timeline over the full paper horizon at 2
// workers. Routing (AnycastRouter::route_at) dominates, the SLO fold and
// incident tracking take most of the rest; there is no zone build, DNS wire
// work or validation, so zone and DNSSEC changes must not move it. It is
// the workload for routing, scheduler and obs changes.
#include <algorithm>
#include <cmath>

#include "exec/engine.h"
#include "scenario/apply.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace rootsim;
using measure::Campaign;

namespace {

constexpr int64_t kBucketSeconds = obs::SloCollector::kBucketSeconds;
constexpr int64_t kPublishIntervalSeconds = 12 * 3600;

// Copy of the entry point's private helper (src/measure/slo_timeline.cpp):
// the per-(site, serial) refresh delay.
double publication_delay_s(uint64_t seed, uint32_t root, uint32_t site_id,
                           util::UnixTime publish) {
  util::Rng rng = util::Rng(seed).fork(util::format(
      "slo-pub-%u-%u-%lld", root, site_id, static_cast<long long>(publish)));
  return std::min(rng.lognormal(std::log(600.0), 0.5), 1800.0);
}

class SloTimeline final : public Workload {
 public:
  explicit SloTimeline(const scenario::ScenarioSpec& spec)
      : spec_(spec), options_(scenario::apply(spec).slo) {
    options_.workers = kWorkers;
  }

  const char* name() const override { return "slo-timeline"; }

  Checked run(const Campaign& campaign, Timed& timed) const override {
    const measure::SloTimelineResult result =
        time_call(timed, [&] { return campaign.run_slo_timeline(spec_, options_); });
    return check(campaign, result.incidents, result.slo_jsonl, result.incidents_jsonl);
  }

  Checked replay(const Campaign& campaign, Ledger& ledger, double& wall,
                 Counts& counts) const override;

 private:
  Checked check(const Campaign& campaign, const std::vector<obs::Incident>& incidents,
                const std::string& slo_jsonl, const std::string& incidents_jsonl) const;

  scenario::ScenarioSpec spec_;
  measure::SloTimelineOptions options_;
};

// Output check: the scenario's b.root renumbering (availability) and ZONEMD
// private-algorithm (integrity) incidents are present, closed and attributed
// to their causes. Each required incident missing is one failed unit; the
// units are the timeline's 6-hour work buckets.
Checked SloTimeline::check(const Campaign& campaign,
                           const std::vector<obs::Incident>& incidents,
                           const std::string& slo_jsonl,
                           const std::string& incidents_jsonl) const {
  Checked checked;
  const auto& schedule = campaign.schedule().config();
  checked.units = static_cast<size_t>(
      obs::SloCollector::bucket_index(schedule.end - 1) -
      obs::SloCollector::bucket_index(schedule.start) + 1);
  Digest digest;
  digest.str(slo_jsonl);
  digest.str(incidents_jsonl);
  checked.digest = digest.value;

  struct Required {
    obs::SloMetric metric;
    const char* cause;
  };
  for (const Required& required :
       {Required{obs::SloMetric::Availability, "b.root-renumbering"},
        Required{obs::SloMetric::Integrity, "zonemd-private-algorithm"}}) {
    const bool found = std::any_of(
        incidents.begin(), incidents.end(), [&](const obs::Incident& incident) {
          return incident.metric == required.metric && !incident.open() &&
                 incident.cause == required.cause;
        });
    if (!found)
      checked.fail(util::format("no closed %s incident attributed to %s",
                                std::string(obs::to_string(required.metric)).c_str(),
                                required.cause));
  }
  return checked;
}

// Bench-side replay of Campaign::run_slo_timeline (src/measure/
// slo_timeline.cpp): one exec unit per 6 h bucket, RNG forked per bucket,
// per-unit SloCollector shards merged in unit order, then the window sweep,
// attribution hints and incident tracker — with spans around route_at, the
// fold, the tracker and the exports.
Checked SloTimeline::replay(const Campaign& campaign, Ledger& ledger, double& wall,
                            Counts& counts) const {
  const measure::SloTimelineOptions& options = options_;
  if (options.route_fallback_candidates > 0 || options.flight_recorder) {
    // The paper scenario uses neither; the replay does not model them.
    Checked checked;
    checked.fail("replay models neither route fallback nor a flight recorder");
    return checked;
  }
  const auto& config = campaign.config();
  const auto& topology = campaign.topology();
  const auto& router = campaign.router();
  const auto& vps = campaign.vantage_points();
  const auto& schedule = campaign.schedule();
  const auto& authority = campaign.authority();
  const netsim::Transport& transport = campaign.transport();

  const double wall0 = wall_s();
  const util::UnixTime start = schedule.config().start;
  const util::UnixTime end = schedule.config().end;
  const int64_t first_bucket = obs::SloCollector::bucket_index(start);
  const int64_t last_bucket = obs::SloCollector::bucket_index(end - 1);
  const size_t total_units = static_cast<size_t>(last_bucket - first_bucket + 1);
  const size_t workers =
      std::max<size_t>(1, std::min(exec::resolve_workers(options.workers), total_units));

  obs::SloCollector collector;
  obs::Obs main = campaign.obs();
  main.slo = &collector;
  exec::ObsShards shards(main, total_units);
  const util::Rng timeline_rng = util::Rng(config.seed).fork("slo-timeline");
  std::vector<rss::ScriptedOutage> scripted = config.scripted_outages;
  scripted.insert(scripted.end(), options.scripted_outages.begin(),
                  options.scripted_outages.end());
  const auto available = [&](uint32_t site_id, uint32_t root, util::UnixTime t) {
    int region = -1;
    int type = -1;
    if (site_id < topology.sites.size()) {
      region = static_cast<int>(topology.sites[site_id].region);
      type = static_cast<int>(topology.sites[site_id].type);
    }
    return rss::site_available_at(site_id, static_cast<int>(root), t, start, end,
                                  options.outages, scripted, region, type);
  };

  const double region0 = wall_s();
  exec::parallel_for(total_units, workers, [&](size_t unit, size_t worker) {
    Scope unit_span(&ledger, worker, Layer::Unit);
    obs::SloCollector* slo = shards.shard(unit).slo;
    const int64_t bucket = first_bucket + static_cast<int64_t>(unit);
    const util::UnixTime bucket_begin = obs::SloCollector::bucket_start(bucket);
    util::Rng rng =
        timeline_rng.fork(util::format("bucket-%lld", static_cast<long long>(bucket)));
    auto route_at = [&](const measure::VantagePoint& vp, uint32_t root,
                        util::IpFamily family, uint64_t round) {
      Scope span(&ledger, worker, Layer::Route);
      return router.route_at(vp.view, root, family, round);
    };

    for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
      for (int fam = 0; fam < 2; ++fam) {
        const bool v6 = fam == 1;
        const util::IpFamily family = v6 ? util::IpFamily::V6 : util::IpFamily::V4;
        for (size_t p = 0; p < options.probes_per_bucket; ++p) {
          util::UnixTime t = bucket_begin + static_cast<int64_t>(rng.uniform(
                                                static_cast<uint64_t>(kBucketSeconds)));
          t = std::clamp<util::UnixTime>(t, start, end - 1);
          const measure::VantagePoint& vp = vps[rng.uniform(vps.size())];
          const uint64_t round = schedule.round_at(t);
          const netsim::RouteResult route = route_at(vp, root, family, round);
          const bool up = available(route.site_id, root, t);
          const double rtt_ms =
              up ? transport.effective_rtt_ms(route, static_cast<int>(root), t) : 0.0;

          obs::SloSample sample;
          sample.root = static_cast<uint8_t>(root);
          sample.v6 = v6;
          sample.when = t;
          sample.kind = obs::SloSample::Kind::Availability;
          sample.ok = up;
          slo->record(sample);
          if (!up) continue;
          sample.kind = obs::SloSample::Kind::Latency;
          sample.value = rtt_ms;
          slo->record(sample);
          const util::UnixTime publish = t - (t % kPublishIntervalSeconds);
          if (publish >= start) {
            const double delay =
                publication_delay_s(config.seed, root, route.site_id, publish);
            sample.kind = obs::SloSample::Kind::Staleness;
            sample.value = t < publish + static_cast<int64_t>(delay)
                               ? static_cast<double>(t - publish)
                               : 0.0;
            slo->record(sample);
          }
        }

        const util::UnixTime check_at = bucket_begin + kBucketSeconds / 2;
        if (check_at >= start && check_at < end) {
          const auto mode = authority.zonemd_mode_at(check_at);
          if (mode != dnssec::SigningPolicy::ZonemdMode::None) {
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = check_at;
            sample.kind = obs::SloSample::Kind::Integrity;
            sample.ok = mode == dnssec::SigningPolicy::ZonemdMode::Sha384;
            slo->record(sample);
          }
        }

        for (util::UnixTime publish =
                 bucket_begin + ((kPublishIntervalSeconds -
                                  bucket_begin % kPublishIntervalSeconds) %
                                 kPublishIntervalSeconds);
             publish < bucket_begin + kBucketSeconds;
             publish += kPublishIntervalSeconds) {
          if (publish < start || publish >= end) continue;
          const uint64_t round = schedule.round_at(publish);
          for (size_t s = 0; s < options.publication_samples; ++s) {
            const measure::VantagePoint& vp = vps[rng.uniform(vps.size())];
            const netsim::RouteResult route = route_at(vp, root, family, round);
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = publish;
            sample.kind = obs::SloSample::Kind::Publication;
            sample.value = publication_delay_s(config.seed, root, route.site_id, publish);
            slo->record(sample);
          }
        }
      }
    }
  });
  ledger.set_region(wall_s() - region0, workers);
  shards.merge();

  const size_t main_slot = ledger.main_slot();
  std::vector<obs::SloWindow> windows;
  {
    Scope span(&ledger, main_slot, Layer::SloFold);
    windows = collector.windows(options.thresholds);
  }
  std::vector<obs::Incident> incidents;
  {
    Scope span(&ledger, main_slot, Layer::Incident);
    std::vector<obs::CauseHint> hints;
    for (const rss::ScriptedOutage& outage : scripted) {
      obs::CauseHint hint;
      hint.start = outage.start;
      hint.end = outage.end;
      hint.root = outage.root_index;
      hint.label = outage.label;
      hint.weight = 2.0;
      hints.push_back(hint);
    }
    if (config.zone.zonemd_private_start > 0) {
      obs::CauseHint hint;
      hint.start = config.zone.zonemd_private_start;
      hint.end = config.zone.zonemd_sha384_start;
      hint.metric = static_cast<int>(obs::SloMetric::Integrity);
      hint.label = "zonemd-private-algorithm";
      hint.weight = 2.0;
      hints.push_back(hint);
    }
    if (config.zone.zonemd_sha384_start > 0) {
      obs::CauseHint hint;
      hint.start = config.zone.zonemd_sha384_start;
      hint.end = config.zone.zonemd_sha384_start + 2 * util::kSecondsPerDay;
      hint.metric = static_cast<int>(obs::SloMetric::Integrity);
      hint.label = "zonemd-sha384-rollout";
      hint.weight = 1.0;
      hints.push_back(hint);
    }
    if (config.zone.ksk_roll_at > 0) {
      obs::CauseHint hint;
      hint.start = config.zone.ksk_roll_at;
      hint.end = config.zone.ksk_roll_at + 2 * util::kSecondsPerDay;
      hint.metric = static_cast<int>(obs::SloMetric::Integrity);
      hint.label = "ksk-rollover";
      hint.weight = 1.0;
      hints.push_back(hint);
    }
    for (const obs::CauseHint& hint : config.extra_hints) hints.push_back(hint);
    obs::IncidentTracker tracker(options.thresholds);
    tracker.observe(windows);
    tracker.add_hints(hints);
    incidents = tracker.incidents();
  }
  std::string slo_jsonl, incidents_jsonl;
  {
    Scope span(&ledger, main_slot, Layer::Export);
    slo_jsonl = obs::SloCollector::windows_to_jsonl(windows, config.scenario_name);
    incidents_jsonl =
        obs::IncidentTracker::incidents_to_jsonl(incidents, config.scenario_name);
  }
  wall = wall_s() - wall0;

  for (uint32_t root = 0; root < obs::kSloRoots; ++root)
    for (int fam = 0; fam < 2; ++fam) {
      const obs::SloCollector::Cell totals =
          collector.totals(static_cast<uint8_t>(root), fam == 1);
      counts.slo_samples += totals.probes + totals.rtt_us.count() +
                            totals.publication_s.count() +
                            totals.staleness_s.count() + totals.integrity_checks;
    }
  counts.slo_windows = windows.size();
  counts.incidents = incidents.size();
  return check(campaign, incidents, slo_jsonl, incidents_jsonl);
}

}  // namespace

std::unique_ptr<Workload> make_slo_timeline(const scenario::ScenarioSpec& spec,
                                            const Sizes&) {
  return std::make_unique<SloTimeline>(spec);
}

}  // namespace perfbench
