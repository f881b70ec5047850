#include "rss/distribution.h"

#include <gtest/gtest.h>

#include "dnssec/validator.h"
#include "scenario/apply.h"
#include "scenario/library.h"

namespace rootsim::rss {
namespace {

using util::make_time;

struct Fixture {
  RootCatalog catalog;
  ZoneAuthorityConfig config;
  std::unique_ptr<ZoneAuthority> authority;

  Fixture() {
    config.tld_count = 30;
    config.rsa_modulus_bits = 512;
    // The paper's Fig. 2 phase instants, explicit because this fixture
    // asserts the literal dates (campaigns get them from the paper-2023
    // spec via scenario::apply).
    config.zonemd_private_start = make_time(2023, 9, 13);
    config.zonemd_sha384_start = make_time(2023, 12, 6, 20, 30);
    config.broot_change = make_time(2023, 11, 27);
    authority = std::make_unique<ZoneAuthority>(catalog, config);
  }

  dnssec::ZoneValidationResult validate_file(const PublishedZoneFile& file,
                                             util::UnixTime at) {
    std::string error;
    auto zone = dns::Zone::parse_master_file(file.master_file, &error);
    EXPECT_TRUE(zone.has_value()) << error;
    return dnssec::validate_zone(*zone, authority->trust_anchors(), at);
  }
};

TEST(Distribution, CzdsPublishesDaily) {
  Fixture f;
  DistributionChannel czds(*f.authority, DistributionSource::Czds);
  // One fetch per day over a week: 7 distinct files, serials increasing.
  std::vector<PublishedZoneFile> files;
  for (util::UnixTime t = make_time(2024, 1, 1); t < make_time(2024, 1, 8);
       t += util::kSecondsPerDay)
    files.push_back(czds.fetch(t));
  ASSERT_EQ(files.size(), 7u);
  for (size_t i = 1; i < files.size(); ++i) {
    EXPECT_GT(files[i].published_at, files[i - 1].published_at);
    EXPECT_GT(files[i].serial, files[i - 1].serial);
  }
}

TEST(Distribution, IanaPublishesEvery15Minutes) {
  Fixture f;
  DistributionChannel iana(*f.authority, DistributionSource::IanaWebsite);
  auto a = iana.fetch(make_time(2023, 9, 21, 13, 30));
  auto b = iana.fetch(make_time(2023, 9, 21, 13, 44));
  auto c = iana.fetch(make_time(2023, 9, 21, 13, 45));
  EXPECT_EQ(a.published_at, b.published_at);
  EXPECT_EQ(c.published_at - a.published_at, 900);
}

TEST(Distribution, IanaTimelineMatchesPaper) {
  // Paper §7: first ZONEMD on 2023-09-21T13:30 (we model the zone-level
  // introduction at 09-13), zones validate from 2023-12-06T20:30 on.
  Fixture f;
  DistributionChannel iana(*f.authority, DistributionSource::IanaWebsite);
  // Before the roll-out: no ZONEMD, fully valid.
  {
    util::UnixTime t = make_time(2023, 8, 1, 12, 0);
    auto result = f.validate_file(iana.fetch(t), t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::NoZonemd);
  }
  // Private-algorithm phase: present, not verifiable.
  {
    util::UnixTime t = make_time(2023, 10, 15, 12, 0);
    auto result = f.validate_file(iana.fetch(t), t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::UnsupportedScheme);
  }
  // Verifiable phase: validates.
  {
    util::UnixTime t = make_time(2023, 12, 10, 12, 0);
    auto result = f.validate_file(iana.fetch(t), t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::Verified);
  }
}

TEST(Distribution, CzdsTransitionWindowDoesNotValidate) {
  // Paper §7: CZDS files from 2023-09-21 to 2023-12-07 show ZONEMD records
  // but do not validate; all later files validate. In our staging this is
  // the private-use hash algorithm phase (no consumer can verify it) plus
  // the channel's export lag.
  Fixture f;
  DistributionChannel czds(*f.authority, DistributionSource::Czds);
  {
    util::UnixTime t = make_time(2023, 10, 15, 12, 0);
    auto result = f.validate_file(czds.fetch(t), t);
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::UnsupportedScheme)
        << "transition-window CZDS files carry non-verifiable ZONEMD";
    EXPECT_TRUE(result.signature_failures.empty())
        << "DNSSEC itself stays valid throughout";
  }
  {
    util::UnixTime t = make_time(2023, 12, 20, 12, 0);
    auto result = f.validate_file(czds.fetch(t), t);
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::Verified);
  }
  {
    // Before the window: no ZONEMD at all.
    util::UnixTime t = make_time(2023, 9, 1, 12, 0);
    auto result = f.validate_file(czds.fetch(t), t);
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::NoZonemd);
  }
  {
    // The export-lag boundary: on 12-06 evening CZDS still serves the
    // morning export (pre-switch zone); on 12-07 it validates.
    util::UnixTime on_switch_day = make_time(2023, 12, 6, 23, 0);
    auto result = f.validate_file(czds.fetch(on_switch_day), on_switch_day);
    EXPECT_NE(result.zonemd, dnssec::ZonemdStatus::Verified);
    util::UnixTime next_day = make_time(2023, 12, 7, 12, 0);
    auto later = f.validate_file(czds.fetch(next_day), next_day);
    EXPECT_EQ(later.zonemd, dnssec::ZonemdStatus::Verified);
  }
}

TEST(Distribution, FetchBeforeDailyExportServesYesterday) {
  Fixture f;
  DistributionChannel czds(*f.authority, DistributionSource::Czds);
  auto early = czds.fetch(make_time(2024, 1, 5, 1, 0));   // before 03:00 export
  auto later = czds.fetch(make_time(2024, 1, 5, 12, 0));  // after export
  EXPECT_EQ(util::format_date(early.published_at), "2024-01-04");
  EXPECT_EQ(util::format_date(later.published_at), "2024-01-05");
  EXPECT_LT(early.serial, later.serial);
}

TEST(Distribution, MasterFilesRoundTripAndMatchAuthority) {
  Fixture f;
  DistributionChannel iana(*f.authority, DistributionSource::IanaWebsite);
  util::UnixTime t = make_time(2024, 1, 10, 9, 17);
  auto file = iana.fetch(t);
  auto zone = dns::Zone::parse_master_file(file.master_file);
  ASSERT_TRUE(zone.has_value());
  EXPECT_EQ(*zone, f.authority->zone_at(t));
  EXPECT_EQ(file.serial, f.authority->serial_at(t));
}

// Every serial the perfbench sec7-channels windows touch (one day either
// side of each ZONEMD phase change, starting on a serial edit), built from
// the paper-2023 scenario: the printed file parses back to the same zone,
// and printing that zone gives the same text.
TEST(Distribution, PaperWindowSerialsRoundTripThroughMasterFiles) {
  const scenario::ScenarioSpec spec = scenario::paper_2023();
  RootCatalog catalog;
  ZoneAuthority authority(catalog, scenario::apply(spec).campaign.zone);
  constexpr int64_t kEdit = 12 * 3600;
  size_t serials = 0;
  for (util::UnixTime phase :
       {spec.zone.zonemd_private_start, spec.zone.zonemd_sha384_start}) {
    const util::UnixTime start = phase - util::kSecondsPerDay;
    for (util::UnixTime t = start - start % kEdit; t < phase + util::kSecondsPerDay;
         t += kEdit) {
      SCOPED_TRACE(util::format_datetime(t));
      const dns::Zone& zone = authority.zone_at(t);
      const std::string text = zone.to_master_file();
      std::string error;
      const auto parsed = dns::Zone::parse_master_file(text, &error);
      ASSERT_TRUE(parsed.has_value()) << error;
      EXPECT_EQ(*parsed, zone);
      EXPECT_EQ(parsed->origin(), zone.origin());
      EXPECT_EQ(parsed->to_master_file(), text);
      ++serials;
    }
  }
  EXPECT_GE(serials, 8u);
}

TEST(Distribution, SourceNames) {
  EXPECT_EQ(to_string(DistributionSource::Czds), "ICANN CZDS");
  EXPECT_EQ(to_string(DistributionSource::IanaWebsite), "IANA website");
}

}  // namespace
}  // namespace rootsim::rss
