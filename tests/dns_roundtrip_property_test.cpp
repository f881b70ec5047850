// Differential round-trip properties over generator-produced inputs. Each
// codec must be a retraction: one decode/encode trip may normalize (NSEC
// bitmap order, compression layout), but a second trip must be a fixpoint.
// These are the properties the fuzz targets assert on arbitrary bytes,
// pinned here on thousands of *valid* inputs so a regression is attributable
// to the codec rather than to hostile-input handling.
#include <gtest/gtest.h>

#include "dns/axfr.h"
#include "dns/codec.h"
#include "dns/message.h"
#include "dns/zone_diff.h"
#include "canonical_reference.h"
#include "dnssec/canonical.h"
#include "fuzz/generators.h"
#include "util/rng.h"

namespace rootsim::dns {
namespace {

constexpr int kRounds = 400;

TEST(RoundTrip, MessageEncodeDecodeFixpoint) {
  util::Rng rng(1001);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    Message original =
        round % 2 ? fuzz::random_response(rng) : fuzz::random_query(rng);
    auto e1 = original.encode();
    auto d1 = Message::decode(e1);
    ASSERT_TRUE(d1.has_value());
    auto e2 = d1->encode();
    EXPECT_EQ(e1, e2);
    // Counts and question survive exactly; rdata normalization (if any)
    // already happened in e1 because original came from our own encoder.
    EXPECT_EQ(d1->questions, original.questions);
    EXPECT_EQ(d1->answers.size(), original.answers.size());
  }
}

TEST(RoundTrip, NameEncodeDecodeFixpoint) {
  util::Rng rng(1002);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    auto chain = fuzz::pointer_chain_name(rng, 1 + rng.uniform(60));
    WireReader reader(chain.bytes);
    reader.seek(chain.final_name_offset);
    Name name = reader.get_name();
    ASSERT_TRUE(reader.ok());
    WireWriter writer;
    writer.put_name(name, /*compress=*/false);
    ASSERT_EQ(writer.size(), name.wire_length());
    WireReader second(writer.data());
    Name again = second.get_name();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(again, name);
  }
}

TEST(RoundTrip, CanonicalFormIdempotent) {
  util::Rng rng(1003);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    Message msg = fuzz::random_response(rng);
    for (const auto& rr : msg.answers) {
      if (rr.type == RRType::OPT) continue;
      auto c1 = dnssec::canonical_record(rr);
      WireReader reader(c1);
      auto reparsed = decode_record(reader);
      ASSERT_TRUE(reparsed.has_value());
      auto c2 = dnssec::canonical_record(*reparsed);
      EXPECT_EQ(c1, c2);
    }
  }
}

TEST(RoundTrip, CanonicalRdataSortIdempotent) {
  util::Rng rng(1004);
  for (int round = 0; round < kRounds; ++round) {
    Message msg = fuzz::random_response(rng);
    std::vector<Rdata> rdatas;
    for (const auto& rr : msg.answers)
      if (rr.type != RRType::OPT) rdatas.push_back(rr.rdata);
    // The one-pass encoder's order is the reference sort's, and encoding
    // an already sorted RRset again changes nothing.
    auto encode = [](const std::vector<Rdata>& set) {
      dnssec::CanonicalEncoder encoder;
      for (const auto& rdata : set) encoder.add_rdata(rdata);
      WireWriter out;
      encoder.flush_records(out, Name(), RRType::TXT, RRClass::IN, 60);
      return out.take();
    };
    const auto sorted = reference::sort_rdatas_canonically(rdatas);
    WireWriter expected;
    for (const auto& rdata : sorted)
      expected.put_bytes(dnssec::canonical_record({Name(), RRType::TXT, RRClass::IN, 60, rdata}));
    EXPECT_EQ(encode(rdatas), expected.data());
    EXPECT_EQ(encode(sorted), expected.data());
    EXPECT_EQ(reference::sort_rdatas_canonically(sorted), sorted);
  }
}

TEST(RoundTrip, ZoneThroughAxfrWireAndBack) {
  util::Rng rng(1005);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    Zone zone = fuzz::random_zone(rng, 1 + rng.uniform(5));
    Question question{zone.origin(), RRType::AXFR, RRClass::IN};
    AxfrStreamOptions options;
    options.max_message_bytes = 512 + rng.uniform(4096);
    auto wire = encode_axfr_stream(zone.axfr_records(), question, options);
    ASSERT_FALSE(wire.empty());
    auto parsed = decode_axfr_stream(wire);
    ASSERT_TRUE(parsed.ok()) << *parsed.error;
    auto rebuilt = Zone::from_axfr(parsed.records, zone.origin());
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_TRUE(*rebuilt == zone);
  }
}

TEST(RoundTrip, ZoneThroughMasterFileAndBack) {
  util::Rng rng(1006);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    Zone zone = fuzz::random_zone(rng, 1 + rng.uniform(5));
    std::string text = zone.to_master_file();
    std::string error;
    auto reparsed = Zone::parse_master_file(text, &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_TRUE(*reparsed == zone);
    EXPECT_EQ(reparsed->to_master_file(), text);
  }
}

TEST(RoundTrip, ZoneDiffApplyAndRevertAreInverses) {
  util::Rng rng(1007);
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE(round);
    Zone before = fuzz::random_zone(rng, 1 + rng.uniform(4));
    Zone after = fuzz::random_zone(rng, 1 + rng.uniform(4));
    ZoneDiff diff = diff_zones(before, after);
    Zone forward = before;
    EXPECT_TRUE(apply_diff(forward, diff));
    EXPECT_TRUE(forward == after);
    EXPECT_TRUE(apply_diff(forward, diff.inverse()));
    EXPECT_TRUE(forward == before);
    EXPECT_TRUE(diff_zones(before, before).empty());
  }
}

}  // namespace
}  // namespace rootsim::dns
