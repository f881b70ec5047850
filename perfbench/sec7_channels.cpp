// sec7-channels: the §7 download-channel study, run serially. Every IANA
// file (the paper's 15-min cadence) and every CZDS file (daily) in two
// windows, one around each ZONEMD phase change, is fetched, re-parsed from
// its master-file text and validated. About 48 IANA files share each
// serial, so master-file print/parse and validation dominate and zone
// builds stay under a tenth of the time: the workload for verify-side work,
// and the zone cache used read-heavy beside table2-audit's build-heavy use.
//
// There is no Campaign entry point for the study (bench_sec7_channels is a
// loop in a bench), so the untraced run and the traced replay are the same
// loop; the traced one adds spans. Before each fetch the loop asks the zone
// authority for the serial the file snapshots, so the fetch span measures
// the channel's own work on a warm serial and zone builds get their own
// span; untraced, that call just warms the cache the fetch reads.
#include "dns/zone.h"
#include "dnssec/validator.h"
#include "rss/distribution.h"
#include "scenario/apply.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace rootsim;
using measure::Campaign;

namespace {

constexpr int64_t kEditSeconds = 12 * 3600;  // serial edits at 00:00 / 12:00 UTC

util::UnixTime floor_edit(util::UnixTime t) { return t - t % kEditSeconds; }

struct File {
  rss::DistributionSource source;
  util::UnixTime published_at;
};

struct Window {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  util::UnixTime phase = 0;  // the ZONEMD phase change the window straddles
};

class Sec7Channels final : public Workload {
 public:
  Sec7Channels(const scenario::ScenarioSpec& spec, int64_t half_window_s)
      : distribution_(scenario::apply(spec).distribution) {
    // Windows start on a serial edit, so every serial in them is first built
    // at its edit instant by the IANA sweep, and a file carries the ZONEMD
    // phase in force at its serial's edit.
    for (util::UnixTime phase :
         {spec.zone.zonemd_private_start, spec.zone.zonemd_sha384_start}) {
      Window window;
      window.phase = phase;
      window.start = floor_edit(phase - half_window_s);
      window.end = phase + half_window_s;
      windows_.push_back(window);
    }
    // In each window: the IANA sweep, then that window's CZDS exports.
    for (const Window& window : windows_) {
      for (util::UnixTime t = window.start; t < window.end;
           t += distribution_.iana_interval_s)
        files_.push_back({rss::DistributionSource::IanaWebsite, t});
      const int64_t export_offset = distribution_.czds_export_hour * 3600;
      for (util::UnixTime t = window.start - window.start % util::kSecondsPerDay +
                              export_offset;
           t < window.end; t += util::kSecondsPerDay)
        if (t >= window.start) files_.push_back({rss::DistributionSource::Czds, t});
    }
  }

  const char* name() const override { return "sec7-channels"; }

  Checked run(const Campaign& campaign, Timed& timed) const override {
    return check(time_call(timed, [&] { return study(campaign, nullptr); }));
  }

  Checked replay(const Campaign& campaign, Ledger& ledger, double& wall,
                 Counts&) const override {
    const double wall0 = wall_s();
    const std::vector<Result> results = study(campaign, &ledger);
    wall = wall_s() - wall0;
    ledger.set_region(wall, 1);
    return check(results);
  }

 private:
  struct Result {
    bool parsed = false;
    uint32_t serial = 0;
    bool dnssec_ok = false;
    dnssec::ZonemdStatus zonemd = dnssec::ZonemdStatus::NoZonemd;
  };

  std::vector<Result> study(const Campaign& campaign, Ledger* ledger) const {
    const rss::ZoneAuthority& authority = campaign.authority();
    const dnssec::TrustAnchors anchors = authority.trust_anchors();
    const rss::DistributionChannel iana(authority, rss::DistributionSource::IanaWebsite,
                                        distribution_);
    const rss::DistributionChannel czds(authority, rss::DistributionSource::Czds,
                                        distribution_);
    const size_t slot = ledger ? ledger->main_slot() : 0;
    std::vector<Result> results(files_.size());
    for (size_t i = 0; i < files_.size(); ++i) {
      Scope unit(ledger, slot, Layer::Unit);
      const File& file = files_[i];
      Result& result = results[i];
      {
        Scope span(ledger, slot, Layer::ZoneBuild);
        authority.zone_at(file.published_at);
      }
      rss::PublishedZoneFile published;
      {
        Scope span(ledger, slot, Layer::ChannelFetch);
        published = (file.source == rss::DistributionSource::Czds ? czds : iana)
                        .fetch(file.published_at);
      }
      result.serial = published.serial;
      std::optional<dns::Zone> zone;
      {
        Scope span(ledger, slot, Layer::MasterParse);
        zone = dns::Zone::parse_master_file(published.master_file);
      }
      if (!zone) continue;
      result.parsed = true;
      dnssec::ZoneValidationResult validation;
      {
        Scope span(ledger, slot, Layer::Validate);
        validation = dnssec::validate_zone(*zone, anchors, file.published_at,
                                           campaign.obs());
      }
      result.dnssec_ok = validation.fully_valid();
      result.zonemd = validation.zonemd;
    }
    return results;
  }

  // Output check: every file parses and passes DNSSEC (no signature failure,
  // no ZONEMD mismatch), and per channel the first file carrying ZONEMD and
  // the first whose ZONEMD verifies sit where the scenario's zone phases put
  // them: the first publication whose serial edit is at or after the phase.
  Checked check(const std::vector<Result>& results) const {
    Checked checked;
    checked.units = files_.size();
    Digest digest;
    for (auto source : {rss::DistributionSource::IanaWebsite, rss::DistributionSource::Czds}) {
      util::UnixTime first_zonemd = 0, first_verified = 0;
      util::UnixTime want_zonemd = 0, want_verified = 0;
      for (size_t i = 0; i < files_.size(); ++i) {
        const File& file = files_[i];
        if (file.source != source) continue;
        const Result& result = results[i];
        digest.u64(static_cast<uint64_t>(file.source));
        digest.i64(file.published_at);
        digest.u64(result.serial);
        digest.u64(result.parsed);
        digest.u64(result.dnssec_ok);
        digest.u64(static_cast<uint64_t>(result.zonemd));
        const std::string where = rss::to_string(source) + " file " +
                                  util::format_datetime(file.published_at);
        if (!result.parsed) {
          checked.fail(where + " does not parse");
          continue;
        }
        if (!result.dnssec_ok) checked.fail(where + " fails DNSSEC");
        const bool has_zonemd = result.zonemd != dnssec::ZonemdStatus::NoZonemd;
        if (has_zonemd && !first_zonemd) first_zonemd = file.published_at;
        if (result.zonemd == dnssec::ZonemdStatus::Verified && !first_verified)
          first_verified = file.published_at;
        const util::UnixTime edit = floor_edit(file.published_at);
        if (!want_zonemd && edit >= windows_[0].phase) want_zonemd = file.published_at;
        if (!want_verified && edit >= windows_[1].phase) want_verified = file.published_at;
      }
      if (first_zonemd != want_zonemd)
        checked.fail(util::format("%s first ZONEMD at %s, expected %s",
                                  rss::to_string(source).c_str(),
                                  util::format_datetime(first_zonemd).c_str(),
                                  util::format_datetime(want_zonemd).c_str()));
      if (first_verified != want_verified)
        checked.fail(util::format("%s first validating at %s, expected %s",
                                  rss::to_string(source).c_str(),
                                  util::format_datetime(first_verified).c_str(),
                                  util::format_datetime(want_verified).c_str()));
    }
    checked.digest = digest.value;
    return checked;
  }

  rss::DistributionConfig distribution_;
  std::vector<Window> windows_;
  std::vector<File> files_;
};

}  // namespace

std::unique_ptr<Workload> make_sec7_channels(const scenario::ScenarioSpec& spec,
                                             const Sizes& sizes) {
  return std::make_unique<Sec7Channels>(spec, sizes.sec7_half_window_s);
}

}  // namespace perfbench
