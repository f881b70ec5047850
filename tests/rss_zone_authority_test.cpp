#include "rss/zone_authority.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "dnssec/validator.h"
#include "obs/obs.h"

namespace rootsim::rss {
namespace {

using util::make_time;

ZoneAuthorityConfig fast_config() {
  ZoneAuthorityConfig config;
  config.tld_count = 30;
  config.rsa_modulus_bits = 512;
  // The paper's Fig. 2 phase instants, written out because this fixture
  // asserts the literal dates (campaigns get them from the paper-2023 spec).
  config.zonemd_private_start = make_time(2023, 9, 13);
  config.zonemd_sha384_start = make_time(2023, 12, 6, 20, 30);
  config.broot_change = make_time(2023, 11, 27);
  return config;
}

TEST(ZoneAuthority, SerialsFollowRootConvention) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  EXPECT_EQ(authority.serial_at(make_time(2023, 10, 8, 3, 0)), 2023100800u);
  EXPECT_EQ(authority.serial_at(make_time(2023, 10, 8, 13, 0)), 2023100801u);
  EXPECT_EQ(authority.serial_at(make_time(2023, 12, 6, 20, 30)), 2023120601u);
  // Serials are monotone over the campaign.
  uint32_t previous = 0;
  for (util::UnixTime t = make_time(2023, 7, 3); t < make_time(2023, 12, 24);
       t += 6 * 3600) {
    uint32_t serial = authority.serial_at(t);
    EXPECT_GE(serial, previous);
    previous = serial;
  }
}

TEST(ZoneAuthority, ZonemdTimelineMatchesFig2) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  using Mode = dnssec::SigningPolicy::ZonemdMode;
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 8, 1)), Mode::None);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 9, 12)), Mode::None);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 9, 14)),
            Mode::PrivateAlgorithm);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 12, 6, 10, 0)),
            Mode::PrivateAlgorithm);
  EXPECT_EQ(authority.zonemd_mode_at(make_time(2023, 12, 7)), Mode::Sha384);
}

TEST(ZoneAuthority, ZoneStructure) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const dns::Zone& zone = authority.zone_at(make_time(2023, 12, 10));
  // Apex: SOA, 13 NS, DNSKEY, NSEC, ZONEMD, RRSIGs.
  EXPECT_TRUE(zone.soa().has_value());
  const dns::RRset* ns = zone.find(dns::Name(), dns::RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->rdatas.size(), 13u);
  EXPECT_NE(zone.find(dns::Name(), dns::RRType::DNSKEY), nullptr);
  EXPECT_NE(zone.find(dns::Name(), dns::RRType::ZONEMD), nullptr);
  // Every root server name has A and AAAA glue.
  for (char c = 'a'; c <= 'm'; ++c) {
    dns::Name name = *dns::Name::parse(std::string(1, c) + ".root-servers.net.");
    EXPECT_NE(zone.find(name, dns::RRType::A), nullptr) << c;
    EXPECT_NE(zone.find(name, dns::RRType::AAAA), nullptr) << c;
  }
  // TLD delegations with DS records, including the .ruhr of Fig. 10.
  EXPECT_NE(zone.find(*dns::Name::parse("ruhr."), dns::RRType::NS), nullptr);
  EXPECT_NE(zone.find(*dns::Name::parse("ruhr."), dns::RRType::DS), nullptr);
  EXPECT_NE(zone.find(*dns::Name::parse("com."), dns::RRType::NS), nullptr);
}

TEST(ZoneAuthority, BRootAddressesSwitchOn1127) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  dns::Name b = *dns::Name::parse("b.root-servers.net.");
  const dns::Zone& before = authority.zone_at(make_time(2023, 11, 26));
  const dns::Zone& after = authority.zone_at(make_time(2023, 11, 28));
  auto a_of = [&](const dns::Zone& zone) {
    const dns::RRset* set = zone.find(b, dns::RRType::A);
    return std::get<dns::AData>(set->rdatas[0]).address.to_string();
  };
  auto aaaa_of = [&](const dns::Zone& zone) {
    const dns::RRset* set = zone.find(b, dns::RRType::AAAA);
    return std::get<dns::AaaaData>(set->rdatas[0]).address.to_string();
  };
  EXPECT_EQ(a_of(before), "199.9.14.201");
  EXPECT_EQ(aaaa_of(before), "2001:500:200::b");
  EXPECT_EQ(a_of(after), "170.247.170.2");
  EXPECT_EQ(aaaa_of(after), "2801:1b8:10::b");
}

TEST(ZoneAuthority, EveryStageValidatesAppropriately) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  dnssec::TrustAnchors anchors = authority.trust_anchors();
  // Pre-ZONEMD: DNSSEC valid, no ZONEMD.
  {
    util::UnixTime t = make_time(2023, 8, 1, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::NoZonemd);
  }
  // Private-algorithm stage: present but not verifiable (like CZDS files
  // between 2023-09-21 and 2023-12-07).
  {
    util::UnixTime t = make_time(2023, 10, 15, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::UnsupportedScheme);
  }
  // SHA-384 stage: fully verifiable.
  {
    util::UnixTime t = make_time(2023, 12, 10, 6, 0);
    auto result = dnssec::validate_zone(authority.zone_at(t), anchors, t);
    EXPECT_TRUE(result.fully_valid());
    EXPECT_EQ(result.zonemd, dnssec::ZonemdStatus::Verified);
  }
}

TEST(ZoneAuthority, ZoneCacheReturnsSameObject) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const dns::Zone& a = authority.zone_at(make_time(2023, 9, 1, 1, 0));
  const dns::Zone& b = authority.zone_at(make_time(2023, 9, 1, 2, 0));
  EXPECT_EQ(&a, &b);  // same serial -> same cached zone
  const dns::Zone& c = authority.zone_at(make_time(2023, 9, 1, 13, 0));
  EXPECT_NE(&a, &c);  // second daily edit
}

// Threads race zone_at and axfr_stream_at over both serials of two days and
// one serial of a third day. Each serial builds once, every caller gets the
// same cached object, and the zone bytes and signature-cache counters equal
// those of a one-thread build: same-day serials share their unchanged
// RRSIGs through the cache's in-flight cells instead of signing them twice.
TEST(ZoneAuthority, ConcurrentCallersBuildEachSerialOnce) {
  RootCatalog catalog;
  const std::vector<util::UnixTime> instants = {
      make_time(2023, 10, 8, 3, 0),  make_time(2023, 10, 8, 15, 0),
      make_time(2023, 10, 9, 1, 0),  make_time(2023, 10, 9, 20, 0),
      make_time(2023, 12, 10, 6, 0)};
  const size_t n = instants.size();

  obs::Recorder serial_recorder;
  ZoneAuthority serial(catalog, fast_config(), serial_recorder.obs());
  std::vector<std::string> zone_bytes;
  std::vector<std::vector<uint8_t>> axfr_bytes;
  for (util::UnixTime t : instants) {
    zone_bytes.push_back(serial.zone_at(t).to_master_file());
    axfr_bytes.push_back(serial.axfr_stream_at(t));
  }

  obs::Recorder recorder;
  ZoneAuthority authority(catalog, fast_config(), recorder.obs());
  constexpr size_t kThreads = 8;
  std::vector<std::vector<const dns::Zone*>> zones(
      kThreads, std::vector<const dns::Zone*>(n));
  std::vector<std::vector<const std::vector<uint8_t>*>> axfrs(
      kThreads, std::vector<const std::vector<uint8_t>*>(n));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t id = 0; id < kThreads; ++id)
    threads.emplace_back([&, id] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different serial; odd threads ask for the
      // AXFR image first, so its cell races the zone build as well.
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (id + k) % n;
        if (id % 2) {
          axfrs[id][i] = &authority.axfr_stream_at(instants[i]);
          zones[id][i] = &authority.zone_at(instants[i]);
        } else {
          zones[id][i] = &authority.zone_at(instants[i]);
          axfrs[id][i] = &authority.axfr_stream_at(instants[i]);
        }
      }
    });
  for (auto& thread : threads) thread.join();

  for (size_t i = 0; i < n; ++i) {
    for (size_t id = 1; id < kThreads; ++id) {
      EXPECT_EQ(zones[id][i], zones[0][i]) << "thread " << id << ", serial " << i;
      EXPECT_EQ(axfrs[id][i], axfrs[0][i]) << "thread " << id << ", serial " << i;
    }
    EXPECT_EQ(zones[0][i]->to_master_file(), zone_bytes[i]) << i;
    EXPECT_EQ(*axfrs[0][i], axfr_bytes[i]) << i;
  }
  const auto& metrics = recorder.metrics();
  const auto& expected = serial_recorder.metrics();
  EXPECT_EQ(metrics.counter_total("rss.zones_built"), n);
  EXPECT_EQ(expected.counter_total("rss.zones_built"), n);
  for (const char* counter :
       {"rss.sig_cache.hits", "rss.sig_cache.misses", "rss.sig_cache.resets"})
    EXPECT_EQ(metrics.counter_total(counter), expected.counter_total(counter))
        << counter;
  EXPECT_GT(metrics.counter_total("rss.sig_cache.hits"), 0u);
  EXPECT_EQ(metrics.counter_total("rss.sig_cache.resets"), 0u);
}

TEST(ZoneAuthority, StableTldSetAcrossSerials) {
  RootCatalog catalog;
  ZoneAuthority authority(catalog, fast_config());
  const auto& tlds = authority.tlds();
  EXPECT_EQ(tlds.size(), 30u);
  EXPECT_TRUE(std::is_sorted(tlds.begin(), tlds.end()));
  const dns::Zone& early = authority.zone_at(make_time(2023, 7, 10));
  const dns::Zone& late = authority.zone_at(make_time(2023, 12, 20));
  for (const auto& tld : tlds) {
    dns::Name owner = *dns::Name::parse(tld + ".");
    EXPECT_NE(early.find(owner, dns::RRType::NS), nullptr);
    EXPECT_NE(late.find(owner, dns::RRType::NS), nullptr);
  }
}

}  // namespace
}  // namespace rootsim::rss
