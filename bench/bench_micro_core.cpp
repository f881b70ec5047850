// Microbenchmarks of the core primitives (google-benchmark): DNS wire
// codec, SHA-384, RSA sign/verify, zone signing, anycast route lookup, and
// the full 47-query probe. Zone validation and ZONEMD digesting live with
// the DNS-layer kernels in bench_micro_dns.cpp.
#include <benchmark/benchmark.h>

#include "analysis/colocation.h"
#include "bench_common.h"
#include "crypto/sha2.h"
#include "dns/message.h"
#include "dnssec/signer.h"

using namespace rootsim;

namespace {

dns::Message priming_response() {
  dns::Message msg;
  msg.qr = true;
  msg.aa = true;
  msg.questions.push_back({dns::Name(), dns::RRType::NS, dns::RRClass::IN});
  for (char c = 'a'; c <= 'm'; ++c) {
    dns::ResourceRecord rr;
    rr.name = dns::Name();
    rr.type = dns::RRType::NS;
    rr.ttl = 518400;
    rr.rdata = dns::NsData{
        *dns::Name::parse(std::string(1, c) + ".root-servers.net.")};
    msg.answers.push_back(rr);
  }
  return msg;
}

void BM_MessageEncode(benchmark::State& state) {
  dns::Message msg = priming_response();
  for (auto _ : state) benchmark::DoNotOptimize(msg.encode());
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  auto wire = priming_response().encode();
  for (auto _ : state) benchmark::DoNotOptimize(dns::Message::decode(wire));
}
BENCHMARK(BM_MessageDecode);

void BM_Sha384(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0x42);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha384(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha384)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_RsaSignVerify(benchmark::State& state) {
  util::Rng rng(42);
  auto key = crypto::generate_rsa_key(rng, static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> msg(100, 7);
  for (auto _ : state) {
    auto sig = crypto::rsa_sign(key, crypto::RsaHash::Sha256, msg);
    benchmark::DoNotOptimize(
        crypto::rsa_verify(key.public_key, crypto::RsaHash::Sha256, msg, sig));
  }
}
BENCHMARK(BM_RsaSignVerify)->Arg(512)->Arg(1024);

void BM_SignZone(benchmark::State& state) {
  rss::RootCatalog catalog;
  rss::ZoneAuthorityConfig config;
  config.tld_count = 120;
  config.rsa_modulus_bits = 768;
  rss::ZoneAuthority authority(catalog, config);
  util::UnixTime t = bench::late_campaign();
  for (auto _ : state) {
    // zone_at caches per serial; force a rebuild by stepping days.
    t += util::kSecondsPerDay;
    benchmark::DoNotOptimize(&authority.zone_at(t));
  }
}
BENCHMARK(BM_SignZone)->Unit(benchmark::kMillisecond);

void BM_RouteLookup(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vps = campaign.vantage_points();
  size_t i = 0;
  for (auto _ : state) {
    const auto& vp = vps[i++ % vps.size()];
    benchmark::DoNotOptimize(campaign.router().route(
        vp.view, static_cast<uint32_t>(i % 13), util::IpFamily::V6));
  }
}
BENCHMARK(BM_RouteLookup);

void BM_SiteAtRound(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vp = campaign.vantage_points()[0];
  auto selection =
      campaign.router().prepare_selection(vp.view, 6, util::IpFamily::V6);
  uint64_t round = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        netsim::AnycastRouter::site_at_round(selection, round++));
}
BENCHMARK(BM_SiteAtRound);

void BM_FullProbe47Queries(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  const auto& vp = campaign.vantage_points()[0];
  util::UnixTime now = bench::late_campaign(12 * 3600);
  uint64_t round = campaign.schedule().round_at(now);
  for (auto _ : state)
    benchmark::DoNotOptimize(campaign.prober().probe(
        vp, campaign.catalog().server(10).ipv4, now, round));
  state.SetLabel("46 dig queries + AXFR + traceroute");
}
BENCHMARK(BM_FullProbe47Queries)->Unit(benchmark::kMillisecond);

void BM_ColocationAnalysis(benchmark::State& state) {
  const auto& campaign = bench::paper_campaign();
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::compute_colocation(campaign));
  state.SetLabel("675 VPs x 13 roots x 2 families");
}
BENCHMARK(BM_ColocationAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
