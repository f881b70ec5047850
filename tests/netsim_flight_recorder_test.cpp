// Transport flight recorder: the bounded ring itself plus the transport
// integration — every exchange()/axfr() completion lands one record with the
// path coordinates and a cause code, so failed probes can be post-mortemed.
#include "netsim/flight_recorder.h"

#include <gtest/gtest.h>

#include <vector>

#include "netsim/transport.h"
#include "obs/obs.h"
#include "rss/catalog.h"
#include "rss/server.h"

namespace rootsim::netsim {
namespace {

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  FlightRecorder recorder(2);
  EXPECT_EQ(recorder.capacity(), 2u);
  FlightRecorder::Shard* shard = recorder.make_shards(1).front();
  for (uint32_t i = 0; i < 5; ++i) {
    FlightRecord record;
    record.vp_id = i;
    shard->record(record);
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 3u);
  auto records = recorder.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].vp_id, 3u);  // oldest surviving
  EXPECT_EQ(records[1].vp_id, 4u);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

// Reads merge every shard by simulated send time and keep the newest
// `capacity`; the failure summary folds every shard's cells.
TEST(FlightRecorder, ReadsMergeShardsBySendTime) {
  FlightRecorder recorder(3);
  std::vector<FlightRecorder::Shard*> shards = recorder.make_shards(2);
  ASSERT_EQ(shards.size(), 2u);
  for (util::UnixTime when : {10, 30, 50}) {
    FlightRecord record;
    record.when = when;
    record.root_index = 2;
    record.cause = FlightRecord::Cause::Timeout;
    shards[0]->record(record);
  }
  for (util::UnixTime when : {20, 40}) {
    FlightRecord record;
    record.when = when;
    record.root_index = 2;
    record.cause = FlightRecord::Cause::Timeout;
    shards[1]->record(record);
  }
  auto records = recorder.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].when, 30);
  EXPECT_EQ(records[1].when, 40);
  EXPECT_EQ(records[2].when, 50);
  EXPECT_EQ(recorder.recorded(), 5u);
  auto summary = recorder.failure_summary();
  ASSERT_EQ(summary.entries.size(), 1u);
  EXPECT_EQ(summary.entries[0].root_index, 2);
  EXPECT_EQ(summary.entries[0].count, 5u);
  EXPECT_EQ(summary.entries[0].first, 10);
  EXPECT_EQ(summary.entries[0].last, 50);
}

// clear() empties the rings in place: shard pointers stay valid, and the
// recorded() total and failure summary survive it.
TEST(FlightRecorder, ClearKeepsShardsAndTotals) {
  FlightRecorder recorder(4);
  FlightRecorder::Shard* shard = recorder.make_shards(1).front();
  FlightRecord failed;
  failed.root_index = 0;
  failed.cause = FlightRecord::Cause::Timeout;
  failed.when = 5;
  shard->record(failed);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 1u);
  ASSERT_EQ(recorder.failure_summary().entries.size(), 1u);
  failed.when = 9;
  shard->record(failed);  // the shard survived clear()
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.failure_summary().entries[0].count, 2u);
  EXPECT_EQ(recorder.failure_summary().entries[0].last, 9);
}

TEST(FlightRecorder, CauseNames) {
  EXPECT_EQ(to_string(FlightRecord::Cause::Ok), "ok");
  EXPECT_EQ(to_string(FlightRecord::Cause::Timeout), "timeout");
  EXPECT_EQ(to_string(FlightRecord::Cause::TcpRefused), "tcp-refused");
  EXPECT_EQ(to_string(FlightRecord::Cause::Refused), "refused");
}

TEST(FlightRecorder, JsonlCarriesTheCoordinatesAndCause) {
  FlightRecorder recorder(8);
  FlightRecord record;
  record.vp_id = 12;
  record.root_index = 1;
  record.family = util::IpFamily::V4;
  record.round = 9980;
  record.site_id = 33;
  record.cause = FlightRecord::Cause::Timeout;
  record.udp_attempts = 3;
  record.drops = 3;
  record.qname = ".";
  record.qtype = 6;  // SOA
  record.time_ms = 10500.0;
  recorder.make_shards(1).front()->record(record);
  std::string jsonl = recorder.to_jsonl();
  for (const char* field :
       {"\"op\":\"query\"", "\"cause\":\"timeout\"", "\"vp\":12", "\"root\":1",
        "\"family\":\"v4\"", "\"round\":9980", "\"site\":33", "\"qname\":\".\"",
        "\"qtype\":\"SOA\"", "\"udp_attempts\":3", "\"drops\":3"})
    EXPECT_NE(jsonl.find(field), std::string::npos) << field << "\n" << jsonl;
  EXPECT_EQ(jsonl.back(), '\n');
}

// --- transport integration -------------------------------------------------
// Each Transport built with a recorder registers its own shard.

struct Fixture {
  rss::RootCatalog catalog;
  Topology topology;
  RouterConfig router_config;
  std::unique_ptr<AnycastRouter> router;

  Fixture() {
    topology = build_topology(TopologyConfig{}, catalog.all_deployment_specs(),
                              rss::paper_detour_rules());
    router_config.churn = default_churn_specs();
    router_config.campaign_rounds = 10000;
    router = std::make_unique<AnycastRouter>(topology, router_config);
  }

  VantageView vp() const {
    VantageView view;
    view.vp_id = 7;
    view.region = util::Region::Europe;
    view.location = {50.1, 8.7};
    view.asn = 64507;
    view.churn_multiplier = 1.0;
    return view;
  }
};

struct FakeEndpoint final : Transport::Endpoint {
  size_t txt_strings = 1;
  std::vector<uint8_t> axfr;

  dns::Message answer(const dns::Message& query) const {
    dns::Message response;
    response.id = query.id;
    response.qr = true;
    response.aa = true;
    response.questions = query.questions;
    dns::ResourceRecord rr;
    rr.name = query.questions.front().qname;
    rr.type = dns::RRType::TXT;
    rr.rclass = dns::RRClass::IN;
    rr.ttl = 60;
    dns::TxtData txt;
    for (size_t i = 0; i < txt_strings; ++i)
      txt.strings.push_back(std::string(200, 'x'));
    rr.rdata = std::move(txt);
    response.answers.push_back(std::move(rr));
    return response;
  }

  dns::Message udp_response(const dns::Message& query, util::UnixTime,
                            size_t path_mtu_clamp) const override {
    return rss::apply_udp_truncation(answer(query), query, path_mtu_clamp);
  }
  dns::Message tcp_response(const dns::Message& query,
                            util::UnixTime) const override {
    return answer(query);
  }
  std::span<const uint8_t> axfr_stream(util::UnixTime) const override {
    return axfr;
  }
};

dns::Message small_query(uint16_t id = 1) {
  return dns::make_query(id, *dns::Name::parse("example."), dns::RRType::TXT);
}

TEST(FlightRecorder, CleanExchangeRecordsOkWithPathCoordinates) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  Transport::Path path = transport.open_path(f.vp(), 4, util::IpFamily::V6, 11);
  ASSERT_TRUE(transport.exchange(path, endpoint, small_query(), 1000).delivered);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& record = records[0];
  EXPECT_EQ(record.op, FlightRecord::Op::Query);
  EXPECT_EQ(record.cause, FlightRecord::Cause::Ok);
  EXPECT_EQ(record.vp_id, 7u);
  EXPECT_EQ(record.root_index, 4);
  EXPECT_EQ(record.family, util::IpFamily::V6);
  EXPECT_EQ(record.round, 11u);
  EXPECT_EQ(record.site_id, path.site_id());
  EXPECT_EQ(record.qname, "example.");
  EXPECT_EQ(record.qtype, static_cast<uint16_t>(dns::RRType::TXT));
  EXPECT_EQ(record.when, 1000);
  EXPECT_EQ(record.udp_attempts, 1u);
  EXPECT_EQ(record.drops, 0u);
  EXPECT_FALSE(record.truncated_retry);
  EXPECT_GT(record.bytes_sent, 0u);
  EXPECT_GT(record.bytes_received, 0u);
  EXPECT_GT(record.time_ms, 0.0);
}

TEST(FlightRecorder, TimeoutExchangeRecordsTheRetryTrail) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  config.defaults.loss = 1.0;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  Transport::Path path = transport.open_path(f.vp(), 0, util::IpFamily::V4, 0);
  EXPECT_FALSE(transport.exchange(path, endpoint, small_query(), 0).delivered);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::Timeout);
  EXPECT_EQ(records[0].udp_attempts, 3u);
  EXPECT_EQ(records[0].drops, 3u);
  EXPECT_EQ(records[0].bytes_received, 0u);
}

TEST(FlightRecorder, TcpRefusedTruncationRecordsBothFacts) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  config.defaults.tcp_refused = true;
  Transport transport(*f.router, config);
  FakeEndpoint endpoint;
  endpoint.txt_strings = 8;  // forces TC=1 at the default 1232 buffer
  dns::Message query = small_query();
  query.add_edns(1232, false);
  Transport::Path path = transport.open_path(f.vp(), 0, util::IpFamily::V4, 1);
  transport.exchange(path, endpoint, query, 0);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::TcpRefused);
  EXPECT_TRUE(records[0].truncated_retry);
}

TEST(FlightRecorder, AxfrOutcomesMapToCauses) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  Transport transport(*f.router, config);

  FakeEndpoint refusing;  // empty stream = server-side refusal
  Transport::Path path = transport.open_path(f.vp(), 8, util::IpFamily::V4, 0);
  EXPECT_FALSE(transport.axfr(path, refusing, 0).delivered);

  FakeEndpoint serving;
  serving.axfr.assign(4096, 0xAB);
  EXPECT_TRUE(transport.axfr(path, serving, 0).delivered);

  auto records = flight.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].op, FlightRecord::Op::Axfr);
  EXPECT_EQ(records[0].cause, FlightRecord::Cause::Refused);
  EXPECT_TRUE(records[0].qname.empty());
  EXPECT_EQ(records[1].cause, FlightRecord::Cause::Ok);
  EXPECT_EQ(records[1].bytes_received, serving.axfr.size());

  FlightRecorder no_tcp_flight(16);
  TransportConfig no_tcp;
  no_tcp.flight_recorder = &no_tcp_flight;
  no_tcp.defaults.tcp_refused = true;
  Transport refused_transport(*f.router, no_tcp);
  path = refused_transport.open_path(f.vp(), 8, util::IpFamily::V4, 0);
  EXPECT_FALSE(refused_transport.axfr(path, serving, 0).delivered);
  ASSERT_EQ(no_tcp_flight.records().size(), 1u);
  EXPECT_EQ(no_tcp_flight.records()[0].cause, FlightRecord::Cause::TcpRefused);
}

// The recorder is a diagnostic surface: attaching it must not change any
// deterministic output (the exchange outcomes and obs exports).
TEST(FlightRecorder, AttachingTheRecorderDoesNotPerturbOutcomes) {
  Fixture f;
  TransportConfig plain_config;
  plain_config.defaults.loss = 0.35;
  obs::Recorder plain_obs;
  Transport plain(*f.router, plain_config, plain_obs.obs());

  FlightRecorder flight(16);
  TransportConfig recorded_config = plain_config;
  recorded_config.flight_recorder = &flight;
  obs::Recorder recorded_obs;
  Transport recorded(*f.router, recorded_config, recorded_obs.obs());

  FakeEndpoint endpoint;
  for (uint64_t round = 0; round < 12; ++round) {
    Transport::Path a = plain.open_path(f.vp(), 2, util::IpFamily::V4, round);
    Transport::Path b = recorded.open_path(f.vp(), 2, util::IpFamily::V4, round);
    ExchangeOutcome oa = plain.exchange(a, endpoint, small_query(), 0);
    ExchangeOutcome ob = recorded.exchange(b, endpoint, small_query(), 0);
    EXPECT_EQ(oa.delivered, ob.delivered) << round;
    EXPECT_EQ(oa.stats.udp_attempts, ob.stats.udp_attempts) << round;
    EXPECT_DOUBLE_EQ(oa.stats.time_ms, ob.stats.time_ms) << round;
  }
  EXPECT_EQ(plain_obs.metrics().to_jsonl(), recorded_obs.metrics().to_jsonl());
  EXPECT_EQ(flight.recorded(), 12u);
}

// Two transports on one recorder write two shards; reads see both.
TEST(FlightRecorder, EachTransportRecordsIntoItsOwnShard) {
  Fixture f;
  FlightRecorder flight(16);
  TransportConfig config;
  config.flight_recorder = &flight;
  Transport first(*f.router, config);
  Transport second(*f.router, config);
  FakeEndpoint endpoint;
  Transport::Path a = first.open_path(f.vp(), 0, util::IpFamily::V4, 0);
  Transport::Path b = second.open_path(f.vp(), 1, util::IpFamily::V4, 0);
  first.exchange(a, endpoint, small_query(), 200);
  second.exchange(b, endpoint, small_query(), 100);
  auto records = flight.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].root_index, 1);  // earlier send time first
  EXPECT_EQ(records[1].root_index, 0);
}

}  // namespace
}  // namespace rootsim::netsim
