#include "measure/prober.h"

#include <algorithm>
#include <cmath>

#include "dns/axfr.h"
#include "rss/endpoint.h"
#include "util/strings.h"

namespace rootsim::measure {

Prober::Prober(const rss::ZoneAuthority& authority, const rss::RootCatalog& catalog,
               const netsim::AnycastRouter& router,
               netsim::TransportConfig transport_config, obs::Obs obs)
    : authority_(&authority),
      catalog_(&catalog),
      transport_(router, std::move(transport_config), obs) {
  rebind_obs(obs);
}

void Prober::rebind_obs(obs::Obs obs) {
  obs_ = obs;
  transport_.rebind_obs(obs);
  if (obs_.metrics) {
    probes_ = obs_.counter_handle("prober.probes");
    timeouts_ = obs_.counter_handle("prober.query_timeouts");
    tcp_retries_ = obs_.counter_handle("prober.tcp_retries");
    axfr_ok_ = obs_.counter_handle("prober.axfr", {{"result", "ok"}});
    axfr_refused_ = obs_.counter_handle("prober.axfr", {{"result", "refused"}});
    rtt_us_[0] = obs_.histogram_handle("prober.rtt_us", {{"family", "v4"}});
    rtt_us_[1] = obs_.histogram_handle("prober.rtt_us", {{"family", "v6"}});
  } else {
    probes_ = timeouts_ = tcp_retries_ = nullptr;
    axfr_ok_ = axfr_refused_ = nullptr;
    rtt_us_[0] = rtt_us_[1] = nullptr;
  }
}

std::vector<dns::Question> Prober::query_list() {
  std::vector<dns::Question> questions;
  // ZONEMD ., NS ., NS root-servers.net (+dnssec).
  questions.push_back({dns::Name(), dns::RRType::ZONEMD, dns::RRClass::IN});
  questions.push_back({dns::Name(), dns::RRType::NS, dns::RRClass::IN});
  questions.push_back({*dns::Name::parse("root-servers.net."), dns::RRType::NS,
                       dns::RRClass::IN});
  // The four CHAOS identity queries.
  for (const char* qname :
       {"hostname.bind.", "id.server.", "version.bind.", "version.server."})
    questions.push_back({*dns::Name::parse(qname), dns::RRType::TXT,
                         dns::RRClass::CH});
  // A/AAAA/TXT for every root server name.
  for (char c = 'a'; c <= 'm'; ++c) {
    dns::Name name =
        *dns::Name::parse(util::format("%c.root-servers.net.", c));
    questions.push_back({name, dns::RRType::A, dns::RRClass::IN});
    questions.push_back({name, dns::RRType::AAAA, dns::RRClass::IN});
    questions.push_back({name, dns::RRType::TXT, dns::RRClass::IN});
  }
  // Total: 3 + 4 + 39 = 46; the AXFR request is the 47th query of App. F.
  return questions;
}

std::string inject_bitflip(std::vector<dns::ResourceRecord>& records,
                           uint64_t seed, bool prefer_signed) {
  util::Rng rng(seed);
  // Prefer an RRSIG signature byte (the Fig. 10 case), else a TLD owner-name
  // character (the .ruhr case), else any A-record octet.
  std::vector<size_t> rrsig_indices, name_indices, other_indices;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == dns::RRType::RRSIG)
      rrsig_indices.push_back(i);
    else if (records[i].type == dns::RRType::NS &&
             records[i].name.label_count() == 1)
      name_indices.push_back(i);
    else if (records[i].type == dns::RRType::A)
      other_indices.push_back(i);
  }
  double which = prefer_signed ? 0.0 : rng.uniform01();
  if (which < 0.6 && !rrsig_indices.empty()) {
    size_t idx = rrsig_indices[rng.uniform(rrsig_indices.size())];
    auto& sig = std::get<dns::RrsigData>(records[idx].rdata);
    if (!sig.signature.empty()) {
      size_t byte = rng.uniform(sig.signature.size());
      uint8_t bit = static_cast<uint8_t>(1u << rng.uniform(8));
      sig.signature[byte] ^= bit;
      return util::format("RRSIG(%s) over %s: bit %02x flipped at byte %zu",
                          rrtype_to_string(sig.type_covered).c_str(),
                          records[idx].name.to_string().c_str(), bit, byte);
    }
  }
  if (which < 0.9 && !name_indices.empty()) {
    size_t idx = name_indices[rng.uniform(name_indices.size())];
    // Flip bit 0x10 in the first character of the TLD label: 'r' -> 'b',
    // exactly the class of the .ruhr incident.
    std::string label = records[idx].name.labels()[0];
    std::string original = label;
    label[0] = static_cast<char>(label[0] ^ 0x10);
    auto flipped = dns::Name::parse(label + ".");
    if (flipped) {
      records[idx].name = *flipped;
      return util::format("owner name .%s became .%s", original.c_str(),
                          label.c_str());
    }
  }
  if (!other_indices.empty()) {
    size_t idx = other_indices[rng.uniform(other_indices.size())];
    auto& a = std::get<dns::AData>(records[idx].rdata);
    auto bytes = a.address.bytes();
    bytes[3] ^= 0x01;
    a.address = util::IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
    return "glue A record address bit flipped";
  }
  return "no flippable record";
}

ProbeRecord Prober::probe(const VantagePoint& vp, const util::IpAddress& address,
                          util::UnixTime now, uint64_t round,
                          const FaultKnobs& faults) const {
  ProbeRecord record;
  record.vp_id = vp.view.vp_id;
  record.true_time = now;
  record.vp_time = vp.local_clock(now);
  record.family = address.family();
  record.root_index = catalog_->index_of_address(address);
  const auto& renumbering = catalog_->renumbering();
  record.old_b_address =
      address == renumbering.old_ipv4 || address == renumbering.old_ipv6;
  obs::inc(probes_);
  if (obs_.tracer) {
    record.trace_span = obs_.tracer->begin_span(
        "probe", now,
        {{"vp", util::format("%u", vp.view.vp_id)},
         {"root", record.root_index >= 0
                      ? std::string(1, static_cast<char>('a' + record.root_index))
                      : std::string("?")},
         {"family", std::string(util::to_string(record.family))},
         {"addr", address.to_string()},
         {"round", util::format("%llu", static_cast<unsigned long long>(round))}});
  }
  if (record.root_index < 0) {
    if (obs_.tracer) {
      obs_.tracer->event(record.trace_span, "probe.error", now,
                         {{"reason", "not-a-root-service-address"}});
      obs_.tracer->end_span(record.trace_span, now);
    }
    return record;
  }

  // Open the path for this probe's whole conversation: exactly one route
  // selection binds the anycast site, the link conditions and the path RNG.
  netsim::Transport::Path path = transport_.open_path(
      vp.view, static_cast<uint32_t>(record.root_index), address.family(),
      round);
  const netsim::RouteResult& route = path.route();
  record.site_id = route.site_id;
  record.rtt_ms = transport_.effective_rtt_ms(route);
  record.second_to_last_hop = route.second_to_last_hop;
  record.traceroute_hops = route.hops;
  obs::observe(rtt_us_[record.family == util::IpFamily::V4 ? 0 : 1],
               static_cast<uint64_t>(
                   std::llround(std::max(0.0, record.rtt_ms) * 1000.0)));

  const netsim::AnycastSite& site =
      transport_.router().topology().sites[route.site_id];
  if (obs_.tracer) {
    obs_.tracer->event(
        record.trace_span, "traceroute", now,
        {{"site", site.identity},
         {"rtt_ms", util::format("%.3f", record.rtt_ms)},
         {"hops", util::format("%zu", route.hops.size())},
         {"second_to_last",
          util::format("%llu", static_cast<unsigned long long>(
                                   route.second_to_last_hop))}});
  }
  rss::InstanceBehavior behavior;
  behavior.frozen_at = faults.server_frozen_at;
  rss::RootServerInstance instance(*authority_, *catalog_,
                                   static_cast<uint32_t>(record.root_index),
                                   site.identity, behavior, obs_);
  rss::InstanceEndpoint endpoint(instance);

  // The 46 dig queries, each a full transport exchange over the open path.
  auto note_query = [&](const QueryResult& result) {
    if (obs_.metrics) {
      obs_.count("prober.queries",
                 {{"rcode", result.timed_out
                                ? std::string("TIMEOUT")
                                : rcode_to_string(result.rcode)}});
      if (result.timed_out) timeouts_->inc();
      if (result.retried_over_tcp) tcp_retries_->inc();
    }
    if (obs_.tracer) {
      std::vector<obs::TraceAttr> attrs{
          {"qname", result.question.qname.to_string()},
          {"qtype", rrtype_to_string(result.question.qtype)},
          {"class", result.question.qclass == dns::RRClass::CH ? "CH" : "IN"}};
      if (result.timed_out)
        attrs.push_back({"status", "TIMEOUT"});
      else
        attrs.push_back({"status", rcode_to_string(result.rcode)});
      if (result.retried_over_tcp) attrs.push_back({"tcp", "1"});
      if (result.tcp_refused) attrs.push_back({"tcp_refused", "1"});
      // Retransmissions only (a clean path logs nothing extra, keeping the
      // default trace stream identical to the pre-transport one).
      if (result.udp_attempts > 1)
        attrs.push_back(
            {"udp_attempts", util::format("%u", result.udp_attempts)});
      attrs.push_back({"answers", util::format("%zu", result.answers.size())});
      obs_.tracer->event(record.trace_span, "query", now, std::move(attrs));
    }
  };
  uint16_t query_id = static_cast<uint16_t>(round * 131 + vp.view.vp_id);
  for (const dns::Question& question : query_list()) {
    dns::Message query = dns::make_query(query_id++, question.qname,
                                         question.qtype, question.qclass,
                                         /*dnssec_ok=*/true);
    netsim::ExchangeOutcome outcome =
        transport_.exchange(path, endpoint, query, now);
    QueryResult result;
    result.question = question;
    result.timed_out = outcome.timed_out;
    result.retried_over_tcp = outcome.retried_over_tcp;
    result.tcp_refused = outcome.tcp_refused;
    result.transport = outcome.transport;
    result.udp_attempts = outcome.stats.udp_attempts;
    result.tcp_attempts = outcome.stats.tcp_attempts;
    result.wire_bytes = outcome.stats.bytes_sent + outcome.stats.bytes_received;
    result.rtt_ms = outcome.stats.time_ms;
    record.transport.absorb(outcome.stats);
    if (outcome.delivered) {
      result.rcode = outcome.response.rcode;
      result.answers = std::move(outcome.response.answers);
      if (question.qclass == dns::RRClass::CH && !result.answers.empty()) {
        const auto* txt = std::get_if<dns::TxtData>(&result.answers[0].rdata);
        std::string qname = util::to_lower(question.qname.to_string());
        if (txt && !txt->strings.empty() &&
            (qname == "hostname.bind." || qname == "id.server."))
          record.instance_identity = txt->strings[0];
      }
    }
    note_query(result);
    record.queries.push_back(std::move(result));
  }

  // The AXFR (query 47): framed over simulated TCP (RFC 5936) and parsed
  // back, so every transferred byte traverses the wire codec. The server
  // side hands us its per-serial cached wire image; the decode below is this
  // probe's own copy, so bitflip injection never touches shared state.
  AxfrResult axfr;
  netsim::AxfrOutcome transfer = transport_.axfr(path, endpoint, now);
  record.transport.absorb(transfer.stats);
  if (!transfer.delivered) {
    axfr.refused = true;
    axfr.timed_out = transfer.timed_out;
    axfr.tcp_refused = transfer.tcp_refused;
  } else {
    auto parsed = dns::decode_axfr_stream(transfer.stream);
    if (!parsed.ok()) {
      axfr.refused = true;  // treated as a failed transfer
    } else {
      if (faults.inject_bitflip) {
        axfr.bitflip_note = inject_bitflip(parsed.records, faults.bitflip_seed,
                                           faults.bitflip_prefer_signed);
        axfr.bitflip_injected = true;
      }
      axfr.records = std::move(parsed.records);
      if (const auto* soa = std::get_if<dns::SoaData>(&axfr.records.front().rdata))
        axfr.soa_serial = soa->serial;
    }
  }
  obs::inc(axfr.refused ? axfr_refused_ : axfr_ok_);
  if (obs_.tracer) {
    std::vector<obs::TraceAttr> attrs{
        {"status", axfr.timed_out ? "timeout"
                                  : (axfr.refused ? "refused" : "ok")}};
    if (!axfr.refused) {
      attrs.push_back({"serial", util::format("%u", axfr.soa_serial)});
      attrs.push_back({"records", util::format("%zu", axfr.records.size())});
    }
    if (axfr.bitflip_injected) attrs.push_back({"bitflip", axfr.bitflip_note});
    obs_.tracer->event(record.trace_span, "axfr", now, std::move(attrs));
    obs_.tracer->end_span(
        record.trace_span, now,
        {{"queries", util::format("%zu", record.queries.size())},
         {"site", site.identity}});
  }
  record.axfr = std::move(axfr);

  // Service-level view of this probe for the streaming SLO plane: the
  // address was "available" if any of the round's queries got an answer
  // (RSSAC047 counts a responding service, not a clean one), and an
  // available probe contributes its path RTT to the letter's latency band.
  if (obs_.slo && record.root_index >= 0) {
    bool answered = false;
    for (const QueryResult& query : record.queries)
      if (!query.timed_out) {
        answered = true;
        break;
      }
    obs::SloSample sample;
    sample.root = static_cast<uint8_t>(record.root_index);
    sample.v6 = record.family == util::IpFamily::V6;
    sample.when = record.true_time;
    sample.kind = obs::SloSample::Kind::Availability;
    sample.ok = answered;
    obs_.slo->record(sample);
    if (answered) {
      sample.kind = obs::SloSample::Kind::Latency;
      sample.value = record.rtt_ms;
      obs_.slo->record(sample);
    }
  }
  return record;
}

}  // namespace rootsim::measure
