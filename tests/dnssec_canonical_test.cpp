// Properties of the RFC 4034 §6 canonical form layer, which everything in
// DNSSEC and ZONEMD depends on.
#include "dnssec/canonical.h"

#include <gtest/gtest.h>

#include "canonical_reference.h"
#include "dns/wire.h"
#include "util/rng.h"

namespace rootsim::dnssec {
namespace {

using dns::Name;
using reference::canonical_rdata;
using reference::sort_rdatas_canonically;

// The RDATA fields of the A records CanonicalEncoder writes for the root
// owner: each RR is owner(1) type(2) class(2) ttl(4) rdlength(2) rdata(4).
std::vector<uint32_t> encoded_addresses(const std::vector<dns::Rdata>& rdatas) {
  CanonicalEncoder encoder;
  for (const auto& rdata : rdatas) encoder.add_rdata(rdata);
  dns::WireWriter out;
  encoder.flush_records(out, Name(), dns::RRType::A, dns::RRClass::IN, 60);
  const auto bytes = out.data();
  EXPECT_EQ(bytes.size(), rdatas.size() * 15);
  std::vector<uint32_t> addresses;
  for (size_t at = 11; at + 4 <= bytes.size(); at += 15)
    addresses.push_back(uint32_t{bytes[at]} << 24 | uint32_t{bytes[at + 1]} << 16 |
                        uint32_t{bytes[at + 2]} << 8 | bytes[at + 3]);
  return addresses;
}

TEST(Canonical, RdataEncodingIsDeterministic) {
  dns::RrsigData sig;
  sig.type_covered = dns::RRType::SOA;
  sig.algorithm = 8;
  sig.signer = *Name::parse("Example.");
  sig.signature = {1, 2, 3};
  EXPECT_EQ(canonical_rdata(dns::Rdata(sig)), canonical_rdata(dns::Rdata(sig)));
}

TEST(Canonical, CaseVariantsEncodeIdentically) {
  auto lower = canonical_rdata(dns::NsData{*Name::parse("ns.example.")});
  auto upper = canonical_rdata(dns::NsData{*Name::parse("NS.EXAMPLE.")});
  EXPECT_EQ(lower, upper);
}

TEST(Canonical, SortIsStableAndIdempotent) {
  util::Rng rng(3);
  std::vector<dns::Rdata> rdatas;
  for (int i = 0; i < 30; ++i)
    rdatas.push_back(dns::AData{util::IpAddress::v4(
        static_cast<uint32_t>(rng.uniform(8)) << 24 | static_cast<uint32_t>(i))});
  rdatas.push_back(rdatas[4]);  // a duplicate sorts next to its twin
  const auto once = encoded_addresses(rdatas);
  ASSERT_EQ(once.size(), rdatas.size());
  // Sorted by canonical byte order, which for A records is address order.
  EXPECT_TRUE(std::is_sorted(once.begin(), once.end()));
  // Idempotent: feeding the output order back in changes nothing.
  std::vector<dns::Rdata> sorted;
  for (uint32_t address : once) sorted.push_back(dns::AData{util::IpAddress::v4(address)});
  EXPECT_EQ(encoded_addresses(sorted), once);
  // Permutation-invariant.
  auto shuffled = rdatas;
  rng.shuffle(shuffled);
  EXPECT_EQ(encoded_addresses(shuffled), once);
}

TEST(Canonical, SigningPayloadLayout) {
  // RFC 4034 §3.1.8.1: payload = RRSIG RDATA (sans signature) || RR(i)s.
  dns::RRset rrset;
  rrset.name = *Name::parse("EXAMPLE.");
  rrset.type = dns::RRType::A;
  rrset.rclass = dns::RRClass::IN;
  rrset.ttl = 3600;
  rrset.rdatas = {dns::AData{util::IpAddress::v4(192, 0, 2, 1)}};
  dns::RrsigData sig;
  sig.type_covered = dns::RRType::A;
  sig.algorithm = 8;
  sig.labels = 1;
  sig.original_ttl = 7200;  // differs from the RRset TTL on purpose
  sig.expiration = 2000;
  sig.inception = 1000;
  sig.key_tag = 0xBEEF;
  sig.signer = Name();
  auto payload = signing_payload(sig, rrset);
  // Fixed RRSIG prefix: type(2) alg(1) labels(1) ottl(4) exp(4) inc(4)
  // tag(2) = 18 octets, then the signer name (1 octet for the root).
  ASSERT_GT(payload.size(), 19u);
  EXPECT_EQ(payload[0], 0);
  EXPECT_EQ(payload[1], 1);      // type covered = A
  EXPECT_EQ(payload[2], 8);      // algorithm
  EXPECT_EQ(payload[3], 1);      // labels
  EXPECT_EQ(payload[16], 0xBE);  // key tag
  EXPECT_EQ(payload[17], 0xEF);
  EXPECT_EQ(payload[18], 0);     // root signer name
  // Owner name in the RR section is lower-cased: \7example\0.
  EXPECT_EQ(payload[19], 7);
  EXPECT_EQ(payload[20], 'e');
  // The RR's TTL field carries the ORIGINAL TTL (7200 = 0x1C20), not 3600.
  size_t ttl_offset = 19 + 9 + 2 + 2;  // owner(9) type(2) class(2)
  EXPECT_EQ(payload[ttl_offset + 2], 0x1C);
  EXPECT_EQ(payload[ttl_offset + 3], 0x20);
}

TEST(Canonical, PayloadChangesWithAnyField) {
  dns::RRset rrset;
  rrset.name = *Name::parse("x.");
  rrset.type = dns::RRType::TXT;
  rrset.ttl = 60;
  rrset.rdatas = {dns::TxtData{{"hello"}}};
  dns::RrsigData base;
  base.type_covered = dns::RRType::TXT;
  base.algorithm = 8;
  base.labels = 1;
  base.original_ttl = 60;
  base.expiration = 2000;
  base.inception = 1000;
  base.key_tag = 1;
  base.signer = Name();
  auto reference = signing_payload(base, rrset);

  auto variant = base;
  variant.expiration = 2001;
  EXPECT_NE(signing_payload(variant, rrset), reference);
  variant = base;
  variant.key_tag = 2;
  EXPECT_NE(signing_payload(variant, rrset), reference);
  dns::RRset other = rrset;
  std::get<dns::TxtData>(other.rdatas[0]).strings[0] = "Hello";
  EXPECT_NE(signing_payload(base, other), reference)
      << "TXT payload content is case-sensitive (not a name)";
}

TEST(Canonical, RecordEncodingMatchesWireLength) {
  dns::ResourceRecord rr;
  rr.name = *Name::parse("ruhr.");
  rr.type = dns::RRType::NS;
  rr.ttl = 172800;
  rr.rdata = dns::NsData{*Name::parse("ns1.ruhr.")};
  auto bytes = canonical_record(rr);
  // owner(6) + type(2) + class(2) + ttl(4) + rdlen(2) + rdata(10).
  EXPECT_EQ(bytes.size(), 6u + 2 + 2 + 4 + 2 + 10);
}

// The one-pass encoder against the two-pass reference it replaced: sort the
// Rdata copies by their canonical bytes, then encode each RR again.
std::vector<uint8_t> reference_payload(const dns::RrsigData& sig,
                                       const dns::RRset& rrset) {
  dns::WireWriter writer;
  writer.put_u16(static_cast<uint16_t>(sig.type_covered));
  writer.put_u8(sig.algorithm);
  writer.put_u8(sig.labels);
  writer.put_u32(sig.original_ttl);
  writer.put_u32(sig.expiration);
  writer.put_u32(sig.inception);
  writer.put_u16(sig.key_tag);
  writer.put_name_canonical(sig.signer);
  for (const auto& rdata : sort_rdatas_canonically(rrset.rdatas)) {
    auto bytes = canonical_record(
        {rrset.name, rrset.type, rrset.rclass, sig.original_ttl, rdata});
    writer.put_bytes(bytes);
  }
  return writer.take();
}

TEST(Canonical, OnePassPayloadMatchesTwoPassReference) {
  util::Rng rng(11);
  const char* labels[] = {"a", "ab", "B", "ns1", "Zz", "EXAMPLE", "x"};
  auto random_name = [&] {
    std::string text;
    for (size_t i = 0, n = 1 + rng.uniform(3); i < n; ++i)
      text += std::string(labels[rng.uniform(7)]) + ".";
    return *Name::parse(text);
  };
  CanonicalEncoder encoder;  // reused across every RRset below
  for (int round = 0; round < 300; ++round) {
    dns::RRset rrset;
    rrset.name = random_name();
    rrset.ttl = 3600;
    const size_t count = rng.uniform(6);
    switch (round % 4) {
      case 0:
        rrset.type = dns::RRType::NS;
        for (size_t i = 0; i < count; ++i) rrset.rdatas.push_back(dns::NsData{random_name()});
        break;
      case 1:  // prefixes and duplicates: "a" < "ab", equal spans
        rrset.type = dns::RRType::TXT;
        for (size_t i = 0; i < count; ++i)
          rrset.rdatas.push_back(dns::TxtData{{labels[rng.uniform(3)]}});
        break;
      case 2:
        rrset.type = dns::RRType::A;
        for (size_t i = 0; i < count; ++i)
          rrset.rdatas.push_back(dns::AData{util::IpAddress::v4(
              static_cast<uint32_t>(rng.uniform(4)) << 24)});
        break;
      default:
        rrset.type = dns::RRType::DS;
        for (size_t i = 0; i < count; ++i)
          rrset.rdatas.push_back(dns::DsData{
              static_cast<uint16_t>(rng.uniform(3)), 8, 2,
              std::vector<uint8_t>(rng.uniform(3), static_cast<uint8_t>(i))});
        break;
    }
    dns::RrsigData sig;
    sig.type_covered = rrset.type;
    sig.algorithm = 8;
    sig.labels = static_cast<uint8_t>(rrset.name.label_count());
    sig.original_ttl = 7200;
    sig.expiration = 2000;
    sig.inception = 1000;
    sig.key_tag = 7;
    sig.signer = random_name();
    const auto reference = reference_payload(sig, rrset);
    EXPECT_EQ(signing_payload(sig, rrset), reference) << round;
    const auto reused = encoder.signing_payload(sig, rrset);
    EXPECT_EQ(std::vector<uint8_t>(reused.begin(), reused.end()), reference) << round;
  }
}

TEST(Canonical, NameCanonicalFormLowercasesInPlace) {
  for (const char* text : {".", "A.ROOT-SERVERS.NET.", "MiXeD.Case.", "x."}) {
    const Name name = *Name::parse(text);
    dns::WireWriter folded, reference;
    folded.put_name_canonical(name);
    reference.put_name(name.to_lower(), /*compress=*/false);
    EXPECT_EQ(folded.data(), reference.data()) << text;
  }
}

}  // namespace
}  // namespace rootsim::dnssec
