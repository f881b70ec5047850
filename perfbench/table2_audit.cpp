// table2-audit: Campaign::run_zone_audit over the paper fault plan plus
// clean samples at 2 workers, on the cold zone cache of a fresh campaign.
// About 80 % of its CPU is zone build and signing, serialized under the
// zone authority's cache lock — the workload for the cold zone pipeline and
// incremental-signing work.
#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

#include "dns/zone.h"
#include "dnssec/validator.h"
#include "exec/engine.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace rootsim;
using measure::Campaign;
using measure::FaultEvent;
using measure::ZoneAuditObservation;

namespace {

dnssec::ValidationStatus expected_verdict(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::ClockSkew: return dnssec::ValidationStatus::SignatureNotIncepted;
    case FaultEvent::Kind::Bitflip: return dnssec::ValidationStatus::BogusSignature;
    case FaultEvent::Kind::StaleServer: return dnssec::ValidationStatus::SignatureExpired;
  }
  return dnssec::ValidationStatus::Valid;
}

const char* fault_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::ClockSkew: return "clock-skew";
    case FaultEvent::Kind::Bitflip: return "bitflip";
    case FaultEvent::Kind::StaleServer: return "stale-server";
  }
  return "?";
}

class Table2Audit final : public Workload {
 public:
  explicit Table2Audit(size_t clean_samples) : clean_samples_(clean_samples) {}

  const char* name() const override { return "table2-audit"; }

  Checked run(const Campaign& campaign, Timed& timed) const override {
    return check(campaign, time_call(timed, [&] {
                   return campaign.run_zone_audit(clean_samples_, kWorkers);
                 }));
  }

  Checked replay(const Campaign& campaign, Ledger& ledger, double& wall,
                 Counts&) const override;

 private:
  Checked check(const Campaign& campaign,
                const std::vector<ZoneAuditObservation>& observations) const;

  size_t clean_samples_;
};

// Output check: every planned fault unit yields the verdict class of its
// FaultEvent kind, and every clean sample validates. Observations come back
// sorted by time, so fault rows are matched to the plan by (Table 2 VP
// bucket, VP id, instant).
Checked Table2Audit::check(
    const Campaign& campaign,
    const std::vector<ZoneAuditObservation>& observations) const {
  Checked checked;
  checked.units = campaign.fault_plan().size() + clean_samples_;
  if (observations.size() != checked.units)
    checked.fail(util::format("%zu observations for %zu units",
                              observations.size(), checked.units));
  using Key = std::tuple<int, uint32_t, util::UnixTime>;
  std::multimap<Key, FaultEvent::Kind> planned;
  for (const FaultEvent& event : campaign.fault_plan())
    planned.emplace(Key{event.table2_vp_id, event.vp_id, event.when}, event.kind);

  Digest digest;
  for (const ZoneAuditObservation& obs : observations) {
    digest.u64(obs.vp_id);
    digest.i64(obs.table2_vp_id);
    digest.i64(obs.root_index);
    digest.u64(static_cast<uint64_t>(obs.family));
    digest.u64(obs.old_b_address);
    digest.i64(obs.when);
    digest.u64(obs.soa_serial);
    digest.u64(static_cast<uint64_t>(obs.verdict));
    digest.u64(static_cast<uint64_t>(obs.zonemd));
    digest.u64(obs.affects_all_servers);
    digest.str(obs.note);

    if (obs.table2_vp_id == 0) {
      if (obs.verdict != dnssec::ValidationStatus::Valid)
        checked.fail(util::format("clean sample at %s: %s (%s)",
                                  util::format_datetime(obs.when).c_str(),
                                  dnssec::to_string(obs.verdict).c_str(),
                                  obs.note.c_str()));
      continue;
    }
    auto it = planned.find(Key{obs.table2_vp_id, obs.vp_id, obs.when});
    if (it == planned.end()) {
      checked.fail(util::format("unplanned fault row vp %u at %s", obs.vp_id,
                                util::format_datetime(obs.when).c_str()));
      continue;
    }
    if (obs.verdict != expected_verdict(it->second))
      checked.fail(util::format("%s fault vp %u at %s: %s (%s)",
                                fault_kind_name(it->second), obs.vp_id,
                                util::format_datetime(obs.when).c_str(),
                                dnssec::to_string(obs.verdict).c_str(),
                                obs.note.c_str()));
    planned.erase(it);
  }
  checked.digest = digest.value;
  return checked;
}

// Bench-side replay of Campaign::run_zone_audit (src/measure/campaign.cpp):
// the same units, RNG forks, per-worker probers, per-unit obs shards and
// exec::parallel_for, with spans around each layer call. Before probing, the
// unit asks the zone authority for the zone and AXFR image the probed
// instance will serve (a frozen instance serves its freeze instant), so zone
// build and AXFR encoding get their own spans and the probe then reads warm
// caches — the same calls the probe would make, moved ahead of it.
Checked Table2Audit::replay(const Campaign& campaign, Ledger& ledger,
                            double& wall, Counts&) const {
  const auto& config = campaign.config();
  const auto& catalog = campaign.catalog();
  const auto& authority = campaign.authority();
  const auto& vps = campaign.vantage_points();
  const auto& schedule = campaign.schedule();
  const std::vector<FaultEvent>& faults = campaign.fault_plan();

  const double wall0 = wall_s();
  dnssec::TrustAnchors anchors = authority.trust_anchors();
  const util::Rng audit_rng = util::Rng(config.seed).fork("zone-audit");

  std::unordered_map<uint32_t, size_t> vp_index;
  for (size_t i = 0; i < vps.size(); ++i) vp_index.emplace(vps[i].view.vp_id, i);
  for (const FaultEvent& event : faults)
    if (!vp_index.count(event.vp_id)) {
      // The entry point swaps in stand-in VPs for ids a scaled-down VP set
      // lacks; the full paper set has every planned id, so the replay does
      // not model stand-ins.
      Checked checked;
      checked.fail(util::format("planned vp %u missing from the VP set", event.vp_id));
      return checked;
    }

  const size_t fault_count = faults.size();
  const size_t total_units = fault_count + clean_samples_;
  const size_t workers = std::max<size_t>(
      1, std::min(exec::resolve_workers(kWorkers), std::max<size_t>(total_units, 1)));
  exec::ObsShards shards(campaign.obs(), total_units);
  std::vector<std::unique_ptr<measure::Prober>> probers;
  for (size_t w = 0; w < workers; ++w)
    probers.push_back(std::make_unique<measure::Prober>(
        authority, catalog, campaign.router(), config.transport, obs::Obs{}));
  std::vector<ZoneAuditObservation> observations(total_units);
  const auto addresses = catalog.service_addresses(schedule.config().end);
  const auto& renumbering = catalog.renumbering();

  auto validate_probe = [&](const measure::ProbeRecord& probe,
                            const FaultEvent* fault, const obs::Obs& sink,
                            size_t slot) {
    ZoneAuditObservation obs;
    obs.vp_id = probe.vp_id;
    obs.table2_vp_id = fault ? fault->table2_vp_id : 0;
    obs.root_index = probe.root_index;
    obs.family = probe.family;
    obs.old_b_address = probe.old_b_address;
    obs.when = probe.true_time;
    if (!probe.axfr || probe.axfr->refused) {
      obs.note = probe.axfr && probe.axfr->timed_out ? "axfr-timeout" : "axfr-refused";
      return obs;
    }
    obs.soa_serial = probe.axfr->soa_serial;
    std::optional<dns::Zone> zone;
    {
      Scope span(&ledger, slot, Layer::FromAxfr);
      zone = dns::Zone::from_axfr(probe.axfr->records, dns::Name());
    }
    if (!zone) {
      obs.verdict = dnssec::ValidationStatus::BogusSignature;
      obs.note = "axfr-framing-broken: " + probe.axfr->bitflip_note;
      return obs;
    }
    dnssec::ZoneValidationResult result;
    {
      Scope span(&ledger, slot, Layer::Validate);
      result = dnssec::validate_zone(*zone, anchors, probe.vp_time, sink);
    }
    obs.verdict = result.dominant_failure();
    obs.zonemd = result.zonemd;
    if (probe.axfr->bitflip_injected) obs.note = probe.axfr->bitflip_note;
    return obs;
  };

  // The zone the probed instance serves, built ahead of the probe.
  auto warm_zone = [&](const util::IpAddress& address, util::UnixTime served_at,
                       size_t slot) {
    if (catalog.index_of_address(address) < 0) return;  // probe exits early
    {
      Scope span(&ledger, slot, Layer::ZoneBuild);
      authority.zone_at(served_at);
    }
    Scope span(&ledger, slot, Layer::AxfrEncode);
    authority.axfr_stream_at(served_at);
  };

  const double region0 = wall_s();
  exec::parallel_for(total_units, workers, [&](size_t unit, size_t worker) {
    Scope unit_span(&ledger, worker, Layer::Unit);
    obs::Obs sink = shards.shard(unit);
    measure::Prober& prober = *probers[worker];
    prober.rebind_obs(sink);
    if (unit < fault_count) {
      const FaultEvent& event = faults[unit];
      if (sink.metrics)
        sink.count("campaign.fault_events", {{"kind", fault_kind_name(event.kind)}});
      util::IpAddress address;
      const bool all_servers = event.root_index < 0;
      if (all_servers) {
        address = catalog.server(10).ipv4;  // k.root, as the entry point
      } else if (event.old_b_address) {
        address = event.family == util::IpFamily::V4 ? renumbering.old_ipv4
                                                     : renumbering.old_ipv6;
      } else {
        const auto& server = catalog.server(static_cast<size_t>(event.root_index));
        address = event.family == util::IpFamily::V4 ? server.ipv4 : server.ipv6;
      }
      measure::VantagePoint vp = vps[vp_index.at(event.vp_id)];
      if (event.kind == FaultEvent::Kind::ClockSkew)
        vp.clock_offset_s = event.clock_offset_s;
      measure::Prober::FaultKnobs knobs;
      if (event.kind == FaultEvent::Kind::Bitflip) {
        knobs.inject_bitflip = true;
        knobs.bitflip_seed = audit_rng.fork(util::format("bitflip-%zu", unit)).next();
        knobs.bitflip_prefer_signed = true;
      }
      if (event.kind == FaultEvent::Kind::StaleServer)
        knobs.server_frozen_at = event.server_frozen_at;
      warm_zone(address, knobs.server_frozen_at.value_or(event.when), worker);
      measure::ProbeRecord probe;
      {
        Scope span(&ledger, worker, Layer::Probe);
        probe = prober.probe(vp, address, event.when, schedule.round_at(event.when), knobs);
      }
      ZoneAuditObservation obs = validate_probe(probe, &event, sink, worker);
      obs.affects_all_servers = all_servers;
      observations[unit] = std::move(obs);
    } else {
      const size_t sample = unit - fault_count;
      util::Rng rng = audit_rng.fork(util::format("clean-%zu", sample));
      const measure::VantagePoint& vp = vps[rng.uniform(vps.size())];
      size_t round = rng.uniform(schedule.round_count());
      const auto& address = addresses[rng.uniform(addresses.size())];
      const util::UnixTime when = schedule.round_time(round);
      warm_zone(address, when, worker);
      measure::ProbeRecord probe;
      {
        Scope span(&ledger, worker, Layer::Probe);
        probe = prober.probe(vp, address, when, round, {});
      }
      observations[unit] = validate_probe(probe, nullptr, sink, worker);
    }
  });
  ledger.set_region(wall_s() - region0, workers);
  shards.merge();
  std::stable_sort(observations.begin(), observations.end(),
                   [](const ZoneAuditObservation& a, const ZoneAuditObservation& b) {
                     return a.when < b.when;
                   });
  wall = wall_s() - wall0;
  return check(campaign, observations);
}

}  // namespace

std::unique_ptr<Workload> make_table2_audit(const scenario::ScenarioSpec&,
                                            const Sizes& sizes) {
  return std::make_unique<Table2Audit>(sizes.audit_clean_samples);
}

}  // namespace perfbench
