// Microbenchmarks of the DNS layer: name handling, canonical ordering, zone
// parsing/printing, AXFR stream framing, zone diffing, ZONEMD digesting and
// full-zone validation with a cold and a warm verify memo.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dns/axfr.h"
#include "dns/zone_diff.h"
#include "dnssec/canonical.h"
#include "dnssec/signer.h"
#include "dnssec/validator.h"

using namespace rootsim;

namespace {

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::Name::parse("b.root-servers.net."));
}
BENCHMARK(BM_NameParse);

void BM_NameCanonicalCompare(benchmark::State& state) {
  dns::Name a = *dns::Name::parse("yljkjljk.a.example.");
  dns::Name b = *dns::Name::parse("Z.a.example.");
  for (auto _ : state) benchmark::DoNotOptimize(a.canonical_compare(b));
}
BENCHMARK(BM_NameCanonicalCompare);

const dns::Zone& bench_zone() {
  static const dns::Zone& zone =
      bench::paper_campaign().authority().zone_at(bench::late_campaign());
  return zone;
}

void BM_ZoneToMasterFile(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  for (auto _ : state) benchmark::DoNotOptimize(zone.to_master_file());
  state.counters["records"] = static_cast<double>(zone.record_count());
}
BENCHMARK(BM_ZoneToMasterFile);

void BM_ZoneParseMasterFile(benchmark::State& state) {
  std::string text = bench_zone().to_master_file();
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::Zone::parse_master_file(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ZoneParseMasterFile);

void BM_AxfrEncodeStream(benchmark::State& state) {
  auto records = bench_zone().axfr_records();
  dns::Question question{dns::Name(), dns::RRType::AXFR, dns::RRClass::IN};
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::encode_axfr_stream(records, question));
}
BENCHMARK(BM_AxfrEncodeStream);

void BM_AxfrDecodeStream(benchmark::State& state) {
  auto stream = dns::encode_axfr_stream(
      bench_zone().axfr_records(),
      dns::Question{dns::Name(), dns::RRType::AXFR, dns::RRClass::IN});
  for (auto _ : state)
    benchmark::DoNotOptimize(dns::decode_axfr_stream(stream));
  state.SetBytesProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_AxfrDecodeStream);

void BM_ZoneDiffIdentical(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  for (auto _ : state) benchmark::DoNotOptimize(dns::diff_zones(zone, zone));
}
BENCHMARK(BM_ZoneDiffIdentical);

void BM_SigningPayload(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  const dns::RRset* ns = zone.find(dns::Name(), dns::RRType::NS);
  dns::RrsigData sig;
  sig.type_covered = dns::RRType::NS;
  sig.algorithm = 8;
  sig.original_ttl = ns->ttl;
  sig.signer = dns::Name();
  for (auto _ : state)
    benchmark::DoNotOptimize(dnssec::signing_payload(sig, *ns));
}
BENCHMARK(BM_SigningPayload);

void BM_ZonemdDigest(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dnssec::compute_zonemd_digest(zone, dns::ZonemdData::kHashSha384));
  state.counters["records"] = static_cast<double>(zone.record_count());
}
BENCHMARK(BM_ZonemdDigest);

// Cold: every iteration validates through a new anchor set, so each RRSIG
// runs the RSA operation and each key builds its verify context.
void BM_ZoneValidateCold(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  const auto keys = bench::paper_campaign().authority().trust_anchors().keys;
  const util::UnixTime now = bench::late_campaign(6 * 3600);
  for (auto _ : state) {
    const dnssec::TrustAnchors anchors{keys};
    benchmark::DoNotOptimize(dnssec::validate_zone(zone, anchors, now));
  }
}
BENCHMARK(BM_ZoneValidateCold)->Unit(benchmark::kMillisecond);

// Warm: the memo already holds every signature of the zone, as for the
// second and later files of a serial in the §7 study.
void BM_ZoneValidateWarm(benchmark::State& state) {
  const dns::Zone& zone = bench_zone();
  const auto anchors = bench::paper_campaign().authority().trust_anchors();
  const util::UnixTime now = bench::late_campaign(6 * 3600);
  dnssec::validate_zone(zone, anchors, now);
  for (auto _ : state)
    benchmark::DoNotOptimize(dnssec::validate_zone(zone, anchors, now));
}
BENCHMARK(BM_ZoneValidateWarm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
