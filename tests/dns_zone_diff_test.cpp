#include "dns/zone_diff.h"

#include <gtest/gtest.h>

#include "measure/prober.h"
#include "rss/zone_authority.h"

namespace rootsim::dns {
namespace {

using util::make_time;

struct Fixture {
  rss::RootCatalog catalog;
  rss::ZoneAuthorityConfig config;
  std::unique_ptr<rss::ZoneAuthority> authority;

  Fixture() {
    config.tld_count = 30;
    config.rsa_modulus_bits = 512;
    // Paper-timeline fixture: this file diffs zones across the b.root
    // renumbering edit, so the instant is set explicitly (scenario data).
    config.zonemd_private_start = make_time(2023, 9, 13);
    config.zonemd_sha384_start = make_time(2023, 12, 6, 20, 30);
    config.broot_change = make_time(2023, 11, 27);
    catalog.set_renumbering_time(config.broot_change);
    authority = std::make_unique<rss::ZoneAuthority>(catalog, config);
  }
};

TEST(ZoneDiff, IdenticalZonesAreEmpty) {
  Fixture f;
  const Zone& zone = f.authority->zone_at(make_time(2023, 10, 1));
  ZoneDiff diff = diff_zones(zone, zone);
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff.size(), 0u);
  EXPECT_EQ(diff.to_string(), "");
}

TEST(ZoneDiff, RenumberingChangesExactlyTheBrootRecords) {
  Fixture f;
  util::UnixTime change = f.catalog.renumbering().zone_change_time;
  // Same serial-half comparison across the edit requires adjacent serials:
  // compare the zone just before and just after the change (different
  // serials, so SOA/NSEC/RRSIG/ZONEMD churn too — but the *address* deltas
  // must be exactly the b.root A and AAAA pairs).
  const Zone& before = f.authority->zone_at(change - 3600);
  const Zone& after = f.authority->zone_at(change + 3600);
  ZoneDiff diff = diff_zones(before, after);
  Name b = *Name::parse("b.root-servers.net.");
  std::vector<std::string> removed_addresses, added_addresses;
  for (const auto& rr : diff.removed)
    if (rr.name == b && (rr.type == RRType::A || rr.type == RRType::AAAA))
      removed_addresses.push_back(rdata_to_string(rr.rdata));
  for (const auto& rr : diff.added)
    if (rr.name == b && (rr.type == RRType::A || rr.type == RRType::AAAA))
      added_addresses.push_back(rdata_to_string(rr.rdata));
  std::sort(removed_addresses.begin(), removed_addresses.end());
  std::sort(added_addresses.begin(), added_addresses.end());
  EXPECT_EQ(removed_addresses,
            (std::vector<std::string>{"199.9.14.201", "2001:500:200::b"}));
  EXPECT_EQ(added_addresses,
            (std::vector<std::string>{"170.247.170.2", "2801:1b8:10::b"}));
  // No other root's addresses changed.
  for (const auto& rr : diff.added) {
    if (rr.type != RRType::A && rr.type != RRType::AAAA) continue;
    if (rr.name.is_subdomain_of(*Name::parse("root-servers.net."))) {
      EXPECT_EQ(rr.name, b) << record_to_string(rr);
    }
  }
}

TEST(ZoneDiff, BitflipShowsAsOneRemovedOneAdded) {
  Fixture f;
  auto records = f.authority->zone_at(make_time(2023, 12, 10)).axfr_records();
  auto corrupted = records;
  std::string note = measure::inject_bitflip(corrupted, 7, /*prefer_signed=*/true);
  EXPECT_NE(note, "no flippable record");
  ZoneDiff diff = diff_records(records, corrupted);
  // AXFR framing duplicates the SOA; the flip hits exactly one record.
  EXPECT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.removed[0].name, diff.added[0].name);
  EXPECT_EQ(diff.removed[0].type, RRType::RRSIG);
  std::string rendered = diff.to_string();
  EXPECT_NE(rendered.find("- "), std::string::npos);
  EXPECT_NE(rendered.find("+ "), std::string::npos);
}

TEST(ZoneDiff, MaxLinesTruncates) {
  Fixture f;
  const Zone& a = f.authority->zone_at(make_time(2023, 10, 1));
  const Zone& b = f.authority->zone_at(make_time(2023, 10, 2));
  ZoneDiff diff = diff_zones(a, b);  // serial + all RRSIGs differ
  ASSERT_GT(diff.size(), 6u);
  std::string rendered = diff.to_string(5);
  EXPECT_NE(rendered.find("more)"), std::string::npos);
}

TEST(ZoneDiff, DisjointZones) {
  Zone a{Name{}};
  a.add({Name(), RRType::SOA, RRClass::IN, 60,
         SoaData{*Name::parse("m1."), *Name::parse("r1."), 1, 2, 3, 4, 5}});
  Zone b{Name{}};
  b.add({Name(), RRType::SOA, RRClass::IN, 60,
         SoaData{*Name::parse("m2."), *Name::parse("r2."), 9, 2, 3, 4, 5}});
  ZoneDiff diff = diff_zones(a, b);
  EXPECT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.added.size(), 1u);
}

}  // namespace
}  // namespace rootsim::dns
