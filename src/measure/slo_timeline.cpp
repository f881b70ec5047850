// Campaign::run_slo_timeline — the streaming RSSAC047 monitor's data feed.
//
// One work unit per 6 h bucket of simulated time (the SloCollector's bucket
// width, so a unit writes exactly its own cells). Each unit draws its RNG by
// forking the campaign seed by bucket index — never a shared sequential
// stream — and records into a per-unit obs shard merged in unit order, which
// is the whole determinism argument: the same cells exist with the same
// contents no matter how many workers ran or who stole what.
//
// What a unit samples, per (letter, family):
//   * availability/latency probes: VP drawn per probe, routed through the
//     anycast router at the probe's schedule round; the chosen site answers
//     unless the Poisson outage model or a scripted event window has it
//     dark. Answered probes contribute the transport's effective RTT.
//   * zone staleness: the probed site serves the previous serial until its
//     deterministic per-(site, serial) refresh delay elapses; the sample is
//     the served serial's age behind the master.
//   * publication latency: on buckets containing a serial bump (the zone
//     authority publishes 00:00 / 12:00 UTC) the refresh delays of sampled
//     sites are the publication-latency samples.
//   * integrity: one mid-bucket ZONEMD check — verifiable under Sha384,
//     present-but-unverifiable under the private algorithm (the rollout
//     phase the paper watched), absent before either.

#include <algorithm>
#include <cmath>

#include "exec/engine.h"
#include "measure/campaign.h"
#include "util/geo.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::measure {

namespace {

constexpr int64_t kBucketSeconds = obs::SloCollector::kBucketSeconds;
/// The zone authority publishes a new serial at 00:00 and 12:00 UTC
/// (ZoneAuthority::serial_at's NN digit).
constexpr int64_t kPublishIntervalSeconds = 12 * 3600;

util::UnixTime last_publish_at_or_before(util::UnixTime t) {
  return t - (t % kPublishIntervalSeconds);
}

/// Deterministic refresh delay of one site for one publication: how long
/// after the serial bump the site keeps serving the old zone. Lognormal with
/// a ~10 min median, capped at 30 min — under the healthy distribution
/// model the RSSAC047 35-min publication target is met by construction, so
/// a publication incident can only come from a scenario that breaks the
/// distribution pipeline, never from the tail of the background model.
double publication_delay_s(uint64_t seed, uint32_t root, uint32_t site_id,
                           util::UnixTime publish) {
  util::Rng rng = util::Rng(seed).fork(
      util::format("slo-pub-%u-%u-%lld", root, site_id,
                   static_cast<long long>(publish)));
  return std::min(rng.lognormal(std::log(600.0), 0.5), 1800.0);
}

}  // namespace

SloTimelineResult Campaign::run_slo_timeline(
    const SloTimelineOptions& options) const {
  const util::UnixTime start = schedule_.config().start;
  const util::UnixTime end = schedule_.config().end;
  const int64_t first_bucket = obs::SloCollector::bucket_index(start);
  const int64_t last_bucket = obs::SloCollector::bucket_index(end - 1);
  const size_t total_units =
      static_cast<size_t>(last_bucket - first_bucket + 1);
  size_t workers =
      std::max<size_t>(1, std::min(exec::resolve_workers(options.workers),
                                   total_units));

  // Samples land in the campaign's own SloCollector when one is attached
  // (Recorder-built campaigns), else in a run-local collector — either way
  // through the standard ObsShards merge path.
  obs::SloCollector local_collector;
  obs::Obs main = obs_;
  if (!main.slo) main.slo = &local_collector;
  exec::ObsShards shards(main, total_units);

  std::vector<netsim::FlightRecorder::Shard*> recorder_shards;
  if (options.flight_recorder)
    recorder_shards = options.flight_recorder->make_shards(workers);

  const util::Rng timeline_rng = util::Rng(config_.seed).fork("slo-timeline");
  const netsim::Transport& transport = prober_->transport();

  // The campaign config's scenario events first, then whatever the caller
  // layered on — one merged list drives both probing and attribution, so the
  // monitor can never detect an event attribution wasn't offered.
  std::vector<rss::ScriptedOutage> scripted = config_.scripted_outages;
  scripted.insert(scripted.end(), options.scripted_outages.begin(),
                  options.scripted_outages.end());

  // Region/type-scoped events need to know what the probed site is.
  const auto available = [&](uint32_t site_id, uint32_t root,
                             util::UnixTime t) {
    int region = -1;
    int type = -1;
    if (site_id < topology_.sites.size()) {
      region = static_cast<int>(topology_.sites[site_id].region);
      type = static_cast<int>(topology_.sites[site_id].type);
    }
    return rss::site_available_at(site_id, static_cast<int>(root), t, start,
                                  end, options.outages, scripted, region,
                                  type);
  };

  exec::parallel_for(total_units, workers, [&](size_t unit, size_t worker) {
    obs::Obs sink = shards.shard(unit);
    obs::SloCollector* slo = sink.slo;
    if (!slo) return;
    const int64_t bucket = first_bucket + static_cast<int64_t>(unit);
    const util::UnixTime bucket_begin = obs::SloCollector::bucket_start(bucket);
    util::Rng rng = timeline_rng.fork(
        util::format("bucket-%lld", static_cast<long long>(bucket)));
    netsim::FlightRecorder::Shard* recorder_shard =
        recorder_shards.empty() ? nullptr : recorder_shards[worker];

    for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
      for (int fam = 0; fam < 2; ++fam) {
        const bool v6 = fam == 1;
        const util::IpFamily family =
            v6 ? util::IpFamily::V6 : util::IpFamily::V4;

        for (size_t p = 0; p < options.probes_per_bucket; ++p) {
          util::UnixTime t =
              bucket_begin + static_cast<int64_t>(
                                 rng.uniform(static_cast<uint64_t>(
                                     kBucketSeconds)));
          t = std::clamp<util::UnixTime>(t, start, end - 1);
          const VantagePoint& vp = vps_[rng.uniform(vps_.size())];
          const uint64_t round = schedule_.round_at(t);
          const netsim::RouteResult route =
              router_->route_at(vp.view, root, family, round);
          uint32_t serving_site = route.site_id;
          bool up = available(serving_site, root, t);
          double rtt_ms = up ? transport.effective_rtt_ms(route,
                                                          static_cast<int>(root),
                                                          t)
                             : 0.0;
          if (!up && options.route_fallback_candidates > 0) {
            // Catchment-view fallback: the VP's BGP table still carries
            // routes to other sites; the first announced alternative that
            // answers takes the probe, at the RTT its distance implies.
            for (const auto& alt : router_->announced_routes(
                     vp.view, root, family,
                     options.route_fallback_candidates)) {
              if (alt.site_id == route.site_id) continue;
              if (!available(alt.site_id, root, t)) continue;
              serving_site = alt.site_id;
              up = true;
              rtt_ms = util::fiber_rtt_ms(
                           router_->distance_km(vp.view, alt.site_id)) +
                       2.0;
              break;
            }
          }

          obs::SloSample sample;
          sample.root = static_cast<uint8_t>(root);
          sample.v6 = v6;
          sample.when = t;
          sample.kind = obs::SloSample::Kind::Availability;
          sample.ok = up;
          slo->record(sample);

          if (up) {
            sample.kind = obs::SloSample::Kind::Latency;
            sample.value = rtt_ms;
            slo->record(sample);

            // Staleness of the serial this site is serving right now.
            const util::UnixTime publish = last_publish_at_or_before(t);
            if (publish >= start) {
              const double delay =
                  publication_delay_s(config_.seed, root, serving_site,
                                      publish);
              sample.kind = obs::SloSample::Kind::Staleness;
              sample.value =
                  t < publish + static_cast<int64_t>(delay)
                      ? static_cast<double>(t - publish)
                      : 0.0;
              slo->record(sample);
            }
          } else if (recorder_shard) {
            // The monitor's packet-level shadow: a dark site looks like a
            // timeout to the prober, and the flight recorder's failure
            // summary is what lets attribution cross-check transport-level
            // causes against the scripted/event hints.
            netsim::FlightRecord record;
            record.vp_id = vp.view.vp_id;
            record.root_index = static_cast<int>(root);
            record.family = family;
            record.round = round;
            record.site_id = route.site_id;
            record.cause = netsim::FlightRecord::Cause::Timeout;
            record.udp_attempts = 3;
            record.drops = 3;
            record.qname = ".";
            record.qtype = 6;  // SOA
            record.when = t;
            record.time_ms = 10500.0;  // full UDP retry budget
            recorder_shard->record(std::move(record));
          }
        }

        // One mid-bucket integrity check per stream.
        const util::UnixTime check_at = bucket_begin + kBucketSeconds / 2;
        if (check_at >= start && check_at < end) {
          const auto mode = authority_->zonemd_mode_at(check_at);
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

        // Publication events whose bump lands in this bucket.
        for (util::UnixTime publish =
                 bucket_begin +
                 ((kPublishIntervalSeconds -
                   bucket_begin % kPublishIntervalSeconds) %
                  kPublishIntervalSeconds);
             publish < bucket_begin + kBucketSeconds;
             publish += kPublishIntervalSeconds) {
          if (publish < start || publish >= end) continue;
          const uint64_t round = schedule_.round_at(publish);
          for (size_t s = 0; s < options.publication_samples; ++s) {
            const VantagePoint& vp = vps_[rng.uniform(vps_.size())];
            const netsim::RouteResult route =
                router_->route_at(vp.view, root, family, round);
            obs::SloSample sample;
            sample.root = static_cast<uint8_t>(root);
            sample.v6 = v6;
            sample.when = publish;
            sample.kind = obs::SloSample::Kind::Publication;
            sample.value =
                publication_delay_s(config_.seed, root, route.site_id,
                                    publish);
            slo->record(sample);
          }
        }
      }
    }
  });
  shards.merge();

  SloTimelineResult result;
  result.windows = main.slo->windows(options.thresholds);

  // Attribution hints, in deterministic construction order (the tracker's
  // scoring is order-independent anyway).
  for (const rss::ScriptedOutage& outage : scripted) {
    obs::CauseHint hint;
    hint.start = outage.start;
    hint.end = outage.end;
    hint.root = outage.root_index;
    hint.label = outage.label;
    hint.weight = 2.0;
    result.hints.push_back(hint);
  }
  // Zone-pipeline events from the authority's config: the ZONEMD rollout
  // phases. Present-but-unverifiable is an integrity story by definition.
  if (config_.zone.zonemd_private_start > 0) {
    obs::CauseHint private_alg;
    private_alg.start = config_.zone.zonemd_private_start;
    private_alg.end = config_.zone.zonemd_sha384_start;
    private_alg.metric = static_cast<int>(obs::SloMetric::Integrity);
    private_alg.label = "zonemd-private-algorithm";
    private_alg.weight = 2.0;
    result.hints.push_back(private_alg);
  }
  if (config_.zone.zonemd_sha384_start > 0) {
    obs::CauseHint sha384;
    sha384.start = config_.zone.zonemd_sha384_start;
    sha384.end = config_.zone.zonemd_sha384_start + 2 * util::kSecondsPerDay;
    sha384.metric = static_cast<int>(obs::SloMetric::Integrity);
    sha384.label = "zonemd-sha384-rollout";
    sha384.weight = 1.0;
    result.hints.push_back(sha384);
  }
  if (config_.zone.ksk_roll_at > 0) {
    // Validators chase the new key for a while after the roll; any
    // integrity wobble in that window has an obvious first suspect.
    obs::CauseHint roll;
    roll.start = config_.zone.ksk_roll_at;
    roll.end = config_.zone.ksk_roll_at + 2 * util::kSecondsPerDay;
    roll.metric = static_cast<int>(obs::SloMetric::Integrity);
    roll.label = "ksk-rollover";
    roll.weight = 1.0;
    result.hints.push_back(roll);
  }
  for (const obs::CauseHint& hint : config_.extra_hints)
    result.hints.push_back(hint);
  if (options.flight_recorder) {
    // Transport-level corroboration, at low weight: when nothing scripted
    // explains a breach, the failure summary at least names the cause class.
    for (const auto& entry : options.flight_recorder->failure_summary().entries) {
      obs::CauseHint hint;
      hint.start = entry.first;
      hint.end = entry.last + 1;
      hint.root = entry.root_index;
      hint.family = entry.v6 ? 1 : 0;
      hint.metric = static_cast<int>(obs::SloMetric::Availability);
      hint.label = std::string("transport-") +
                   std::string(netsim::to_string(entry.cause));
      hint.weight = 0.5;
      result.hints.push_back(hint);
    }
  }

  obs::IncidentTracker tracker(options.thresholds);
  tracker.observe(result.windows);
  tracker.add_hints(result.hints);
  result.incidents = tracker.incidents();
  result.slo_jsonl = obs::SloCollector::windows_to_jsonl(
      result.windows, config_.scenario_name);
  result.incidents_jsonl = obs::IncidentTracker::incidents_to_jsonl(
      result.incidents, config_.scenario_name);

  for (uint32_t root = 0; root < obs::kSloRoots; ++root) {
    for (int fam = 0; fam < 2; ++fam) {
      const obs::SloCollector::Cell totals =
          main.slo->totals(static_cast<uint8_t>(root), fam == 1);
      result.probes += totals.probes;
      result.failed_probes += totals.probes - totals.answered;
      result.latency_samples += totals.rtt_us.count();
      result.publication_count += totals.publication_s.count();
      result.staleness_samples += totals.staleness_s.count();
      result.integrity_checks += totals.integrity_checks;
      result.integrity_failures +=
          totals.integrity_checks - totals.integrity_ok;
    }
  }
  if (obs_.metrics) {
    obs_.count("campaign.slo_timeline_probes", result.probes);
    obs_.count("campaign.slo_timeline_incidents", result.incidents.size());
  }
  return result;
}

}  // namespace rootsim::measure
