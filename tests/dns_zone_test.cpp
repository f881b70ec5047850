#include "dns/zone.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"
#include "util/strings.h"

namespace rootsim::dns {
namespace {

Zone make_mini_root() {
  Zone zone(Name{});
  SoaData soa;
  soa.mname = *Name::parse("a.root-servers.net.");
  soa.rname = *Name::parse("nstld.verisign-grs.com.");
  soa.serial = 2023100800;
  soa.refresh = 1800;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 86400;
  zone.add({Name(), RRType::SOA, RRClass::IN, 86400, soa});
  for (char c = 'a'; c <= 'm'; ++c)
    zone.add({Name(), RRType::NS, RRClass::IN, 518400,
              NsData{*Name::parse(std::string(1, c) + ".root-servers.net.")}});
  zone.add({*Name::parse("com."), RRType::NS, RRClass::IN, 172800,
            NsData{*Name::parse("a.gtld-servers.net.")}});
  zone.add({*Name::parse("org."), RRType::NS, RRClass::IN, 172800,
            NsData{*Name::parse("a0.org.afilias-nst.info.")}});
  zone.add({*Name::parse("a.gtld-servers.net."), RRType::A, RRClass::IN, 172800,
            AData{*util::IpAddress::parse("192.5.6.30")}});
  return zone;
}

TEST(Zone, AddMergesRrsetsAndDropsDuplicates) {
  Zone zone = make_mini_root();
  const RRset* ns = zone.find(Name(), RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->rdatas.size(), 13u);
  // Re-adding an identical record is a no-op.
  zone.add({Name(), RRType::NS, RRClass::IN, 518400,
            NsData{*Name::parse("a.root-servers.net.")}});
  EXPECT_EQ(zone.find(Name(), RRType::NS)->rdatas.size(), 13u);
}

TEST(Zone, SoaAndSerial) {
  Zone zone = make_mini_root();
  auto soa = zone.soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(soa->serial, 2023100800u);
  EXPECT_EQ(zone.serial(), 2023100800u);
  EXPECT_FALSE(Zone(Name()).soa().has_value());
  EXPECT_EQ(Zone(Name()).serial(), 0u);
}

TEST(Zone, FindAndRemove) {
  Zone zone = make_mini_root();
  EXPECT_NE(zone.find(*Name::parse("com."), RRType::NS), nullptr);
  EXPECT_EQ(zone.find(*Name::parse("com."), RRType::A), nullptr);
  EXPECT_TRUE(zone.remove_rrset(*Name::parse("com."), RRType::NS));
  EXPECT_FALSE(zone.remove_rrset(*Name::parse("com."), RRType::NS));
  EXPECT_EQ(zone.find(*Name::parse("com."), RRType::NS), nullptr);
}

TEST(Zone, CanonicalIterationOrder) {
  Zone zone = make_mini_root();
  auto sets = zone.rrsets();
  // Root apex sorts first; com. before org. before the glue under net.
  ASSERT_GE(sets.size(), 4u);
  EXPECT_TRUE(sets[0]->name.is_root());
  for (size_t i = 0; i + 1 < sets.size(); ++i)
    EXPECT_LE(sets[i]->name.canonical_compare(sets[i + 1]->name), 0);
}

TEST(Zone, CountsAndNames) {
  Zone zone = make_mini_root();
  EXPECT_EQ(zone.record_count(), 1 + 13 + 1 + 1 + 1u);
  EXPECT_TRUE(zone.contains_name(*Name::parse("org.")));
  EXPECT_FALSE(zone.contains_name(*Name::parse("xyz.")));
  auto names = zone.authoritative_names();
  ASSERT_EQ(names.size(), 4u);  // ., com., a.gtld-servers.net., org.
  EXPECT_TRUE(names[0].is_root());
}

TEST(Zone, AxfrFraming) {
  Zone zone = make_mini_root();
  auto records = zone.axfr_records();
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records.front().type, RRType::SOA);
  EXPECT_EQ(records.back().type, RRType::SOA);
  EXPECT_EQ(records.front(), records.back());
  EXPECT_EQ(records.size(), zone.record_count() + 1);
  // Round trip through AXFR framing.
  auto rebuilt = Zone::from_axfr(records, Name());
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(*rebuilt, zone);
}

TEST(Zone, FromAxfrRejectsBrokenFraming) {
  Zone zone = make_mini_root();
  auto records = zone.axfr_records();
  // Missing trailing SOA.
  auto truncated = records;
  truncated.pop_back();
  EXPECT_FALSE(Zone::from_axfr(truncated, Name()).has_value());
  // Mismatched SOA serial at the end.
  auto mismatched = records;
  std::get<SoaData>(mismatched.back().rdata).serial += 1;
  EXPECT_FALSE(Zone::from_axfr(mismatched, Name()).has_value());
  EXPECT_FALSE(Zone::from_axfr({}, Name()).has_value());
}

TEST(Zone, MasterFileRoundTrip) {
  Zone zone = make_mini_root();
  std::string text = zone.to_master_file();
  std::string error;
  auto parsed = Zone::parse_master_file(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, zone);
}

TEST(Zone, ParseMasterFileRelativeNamesAndDirectives) {
  std::string text =
      "$ORIGIN example.\n"
      "$TTL 3600\n"
      "@ IN SOA ns1 hostmaster 42 1800 900 604800 86400\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.1\n"
      "www 300 IN CNAME ns1\n";
  std::string error;
  auto zone = Zone::parse_master_file(text, &error);
  ASSERT_TRUE(zone.has_value()) << error;
  EXPECT_EQ(zone->origin(), *Name::parse("example."));
  EXPECT_EQ(zone->serial(), 42u);
  const RRset* a = zone->find(*Name::parse("ns1.example."), RRType::A);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ttl, 3600u);  // $TTL default applied
  const RRset* cname = zone->find(*Name::parse("www.example."), RRType::CNAME);
  ASSERT_NE(cname, nullptr);
  EXPECT_EQ(cname->ttl, 300u);  // explicit TTL wins
  EXPECT_EQ(std::get<CnameData>(cname->rdatas[0]).target,
            *Name::parse("ns1.example."));
}

TEST(Zone, ParseMasterFileCommentsAndBlankLines) {
  std::string text =
      "; a zone file\n"
      "\n"
      ". IN SOA a. b. 1 2 3 4 5 ; inline comment\n"
      ". IN TXT \"hello world\" \"second ; not a comment\"\n";
  auto zone = Zone::parse_master_file(text);
  ASSERT_TRUE(zone.has_value());
  const RRset* txt = zone->find(Name(), RRType::TXT);
  ASSERT_NE(txt, nullptr);
  const auto& strings = std::get<TxtData>(txt->rdatas[0]).strings;
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "hello world");
  EXPECT_EQ(strings[1], "second ; not a comment");
}

TEST(Zone, ParseMasterFileErrors) {
  std::string error;
  EXPECT_FALSE(Zone::parse_master_file("nonsense", &error).has_value());
  EXPECT_FALSE(Zone::parse_master_file(". IN A 999.1.1.1\n. IN SOA a. b. 1 2 3 4 5",
                                       &error)
                   .has_value());
  EXPECT_FALSE(Zone::parse_master_file(". IN NS\n", &error).has_value());
  // No SOA at all.
  EXPECT_FALSE(Zone::parse_master_file(". IN NS a.example.\n", &error).has_value());
  EXPECT_EQ(error, "zone has no SOA");
}

// Input the parser once coerced is rejected, and the error names the line.
TEST(Zone, ParseMasterFileRejectsCoercedFieldsWithLocatedErrors) {
  const std::string soa = ". 86400 IN SOA a. b. 1 2 3 4 5\n";
  auto error_for = [&](const std::string& line) {
    std::string error;
    EXPECT_FALSE(Zone::parse_master_file(soa + line, &error).has_value()) << line;
    return error;
  };
  const std::string sig = " 1700000000 1690000000 4711 . AAECAw==\n";
  EXPECT_EQ(error_for(". 86400 IN RRSIG NS 256 0 518400" + sig), "line 2: bad RRSIG");
  EXPECT_EQ(error_for(". 86400 IN RRSIG NS 8 256 518400" + sig), "line 2: bad RRSIG");
  EXPECT_EQ(error_for(". 86400 IN RRSIG BOGUS 8 0 518400" + sig),
            "line 2: bad RRSIG type covered 'BOGUS'");
  // The same fields in range parse.
  std::string error;
  auto zone = Zone::parse_master_file(soa + ". 86400 IN RRSIG ns 255 255 518400" + sig,
                                      &error);
  ASSERT_TRUE(zone.has_value()) << error;
  const auto& rrsig =
      std::get<RrsigData>(zone->find(Name(), RRType::RRSIG)->rdatas.front());
  EXPECT_EQ(rrsig.type_covered, RRType::NS);
  EXPECT_EQ(rrsig.algorithm, 255);
  EXPECT_EQ(rrsig.labels, 255);

  EXPECT_EQ(error_for("\n$ORIGIN\n"), "line 3: $ORIGIN missing argument");
  EXPECT_EQ(error_for("$ORIGIN a..b.\n"), "line 2: $ORIGIN bad name");
  EXPECT_EQ(error_for("$TTL\n"), "line 2: $TTL missing argument");
  EXPECT_EQ(error_for("$TTL 1h\n"), "line 2: $TTL bad value");
  EXPECT_EQ(error_for("$TTL 4294967296\n"), "line 2: $TTL bad value");
  EXPECT_EQ(error_for(". 86400 IN TXT \"open\n"), "line 2: unterminated string");
}

TEST(Zone, ParseMasterFileDropsDuplicatesAndKeepsTheFirstTtl) {
  std::string error;
  auto zone = Zone::parse_master_file(
      ". 86400 IN SOA a. b. 1 2 3 4 5\n"
      "com. 172800 IN NS a.gtld-servers.net.\n"
      "com. 60 IN NS b.gtld-servers.net.\n"
      "com. 300 IN NS A.GTLD-SERVERS.NET.\n"  // names compare case-insensitively
      "com. 172800 IN NS b.gtld-servers.net.\n",
      &error);
  ASSERT_TRUE(zone.has_value()) << error;
  const RRset* ns = zone->find(*Name::parse("com."), RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->ttl, 172800u);
  EXPECT_EQ(ns->rdatas.size(), 2u);
  EXPECT_EQ(zone->record_count(), 3u);
}

// The printer writes canonical order, which the parser inserts with an end
// hint; any other order takes the ordinary insert and must give the same
// zone.
TEST(Zone, ShuffledMasterFileParsesToTheSameZone) {
  Zone zone = make_mini_root();
  zone.add({*Name::parse("com."), RRType::DS, RRClass::IN, 86400,
            DsData{4711, 8, 2, std::vector<uint8_t>(32, 0xab)}});
  zone.add({*Name::parse("com."), RRType::TXT, RRClass::IN, 300,
            TxtData{{"quoted \"text\"", "", "back\\slash"}}});
  const std::string text = zone.to_master_file();
  std::vector<std::string> lines = util::split(text, '\n');
  ASSERT_GT(lines.size(), 2u);
  const std::string directive = lines.front();  // $ORIGIN stays first
  lines.erase(lines.begin());
  util::Rng rng(16);
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(lines);
    std::string shuffled = directive + "\n";
    for (const auto& line : lines) shuffled += line + "\n";
    std::string error;
    auto parsed = Zone::parse_master_file(shuffled, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, zone) << round;  // rdata order within an RRset aside
  }
}

// Owner reuse: a repeated owner token reuses the parsed name, but only while
// the origin it was resolved against stays the same.
TEST(Zone, RepeatedRelativeOwnerFollowsOriginChanges) {
  std::string error;
  auto zone = Zone::parse_master_file(
      "$ORIGIN example.\n"
      "@ IN SOA ns1 hostmaster 42 1800 900 604800 86400\n"
      "www IN A 192.0.2.1\n"
      "$ORIGIN other.example.\n"
      "www IN A 192.0.2.2\n"
      "    IN A 192.0.2.3\n",
      &error);
  ASSERT_TRUE(zone.has_value()) << error;
  ASSERT_NE(zone->find(*Name::parse("www.example."), RRType::A), nullptr);
  const RRset* other = zone->find(*Name::parse("www.other.example."), RRType::A);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->rdatas.size(), 2u);
}

}  // namespace
}  // namespace rootsim::dns
