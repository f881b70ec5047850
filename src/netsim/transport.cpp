#include "netsim/transport.h"

#include <algorithm>

#include "netsim/flight_recorder.h"
#include "util/strings.h"

namespace rootsim::netsim {

std::string_view to_string(TransportProto proto) {
  return proto == TransportProto::Udp ? "udp" : "tcp";
}

Transport::Transport(const AnycastRouter& router, TransportConfig config,
                     obs::Obs obs)
    : router_(&router), config_(std::move(config)) {
  if (config_.flight_recorder)
    recorder_shard_ = config_.flight_recorder->make_shards(1).front();
  rebind_obs(obs);
}

void Transport::rebind_obs(obs::Obs obs) {
  obs_ = obs;
  if (obs_.metrics) {
    exchanges_[0] = obs_.counter_handle("transport.exchanges", {{"proto", "udp"}});
    exchanges_[1] = obs_.counter_handle("transport.exchanges", {{"proto", "tcp"}});
    drops_ = obs_.counter_handle("transport.drops");
    timeouts_ = obs_.counter_handle("transport.timeouts");
    tcp_fallbacks_ = obs_.counter_handle("transport.tcp_fallbacks");
    bytes_sent_ = obs_.counter_handle("transport.bytes", {{"dir", "sent"}});
    bytes_received_ = obs_.counter_handle("transport.bytes", {{"dir", "received"}});
  } else {
    exchanges_[0] = exchanges_[1] = nullptr;
    drops_ = timeouts_ = tcp_fallbacks_ = nullptr;
    bytes_sent_ = bytes_received_ = nullptr;
  }
}

Transport::Path Transport::open_path(const VantageView& client,
                                     uint32_t root_index, util::IpFamily family,
                                     uint64_t round) const {
  Path path;
  path.route_ = router_->route_at(client, root_index, family, round);
  path.conditions_ = config_.conditions_for_site(path.route_.site_id);
  path.vp_id_ = client.vp_id;
  path.root_index_ = root_index;
  path.family_ = family;
  path.round_ = round;
  // The path's private loss/jitter stream: a pure function of the path
  // coordinates and the transport seed, so a probe's outcomes never depend
  // on which worker ran it or what ran before it.
  path.rng_ = util::Rng(config_.seed).fork(util::format(
      "transport/%u/%u/%d/%llu", client.vp_id, root_index,
      family == util::IpFamily::V4 ? 4 : 6,
      static_cast<unsigned long long>(round)));
  return path;
}

LinkConditions Transport::conditions_at(uint32_t site_id, int root_index,
                                        util::UnixTime when) const {
  LinkConditions conditions = config_.conditions_for_site(site_id);
  for (const ConditionWindow& window : config_.condition_windows) {
    if (window.root_index >= 0 && window.root_index != root_index) continue;
    if (when < window.start || when >= window.end) continue;
    conditions.loss = std::min(1.0, conditions.loss + window.add.loss);
    conditions.jitter_ms += window.add.jitter_ms;
    conditions.extra_rtt_ms += window.add.extra_rtt_ms;
    if (window.add.path_mtu > 0)
      conditions.path_mtu = conditions.path_mtu == 0
                                ? window.add.path_mtu
                                : std::min(conditions.path_mtu,
                                           window.add.path_mtu);
    conditions.tcp_refused = conditions.tcp_refused || window.add.tcp_refused;
  }
  return conditions;
}

double Transport::round_trip_ms(Path& path) const {
  double rtt = path.route_.rtt_ms + path.conditions_.extra_rtt_ms;
  if (path.conditions_.jitter_ms > 0)
    rtt += path.rng_.uniform_real(0.0, path.conditions_.jitter_ms);
  return rtt;
}

bool Transport::dropped(Path& path) const {
  // Loss-free paths never touch the RNG: the default transport is exactly
  // transparent, draw for draw, to the pre-transport code.
  return path.conditions_.loss > 0 && path.rng_.chance(path.conditions_.loss);
}

void Transport::note_exchange(TransportProto proto) const {
  obs::inc(exchanges_[proto == TransportProto::Udp ? 0 : 1]);
}

bool Transport::tcp_connect(Path& path, TransportStats& stats) const {
  double timeout = config_.tcp_connect_timeout_ms;
  for (int attempt = 0; attempt < config_.tcp_max_attempts; ++attempt) {
    ++stats.tcp_attempts;
    // One loss draw stands for the handshake exchange: a lost SYN (or
    // SYN-ACK) burns the whole connect timeout.
    if (dropped(path)) {
      ++stats.drops;
      obs::inc(drops_);
      stats.time_ms += timeout;
      timeout *= config_.retry_backoff;
      continue;
    }
    stats.time_ms += config_.tcp_handshake_rtts * round_trip_ms(path);
    return true;
  }
  return false;
}

ExchangeOutcome Transport::exchange(Path& path, const Endpoint& endpoint,
                                    const dns::Message& query,
                                    util::UnixTime now) const {
  // Scenario condition windows are resolved against the exchange instant,
  // recomputed from the config's base each time (idempotent: re-using a
  // path across instants never stacks an overlay twice).
  if (!config_.condition_windows.empty())
    path.conditions_ = conditions_at(path.site_id(),
                                     static_cast<int>(path.root_index_), now);
  ExchangeOutcome outcome = exchange_impl(path, endpoint, query, now);
  if (obs_.metrics) {
    obs::inc(bytes_sent_, outcome.stats.bytes_sent);
    obs::inc(bytes_received_, outcome.stats.bytes_received);
  }
  if (obs_.rssac002 &&
      (outcome.udp_queries_served || outcome.tcp_queries_served)) {
    // Server-side accounting: only exchanges the server actually saw count
    // (a query datagram lost on the way never reached it).
    ExchangeTelemetry telemetry;
    telemetry.v6 = path.family_ == util::IpFamily::V6;
    telemetry.source_id = path.vp_id_;
    telemetry.when = now;
    telemetry.udp_queries = outcome.udp_queries_served;
    telemetry.tcp_queries = outcome.tcp_queries_served;
    telemetry.delivered = outcome.delivered;
    telemetry.final_tcp = outcome.transport == TransportProto::Tcp;
    telemetry.rcode =
        outcome.delivered ? static_cast<uint16_t>(outcome.response.rcode) : 0;
    telemetry.truncated = outcome.truncated;
    dns::WireWriter wire;
    query.encode_into(wire);
    telemetry.query_bytes = wire.size();
    // After a delivered exchange the path's wire buffer still holds the
    // final response image.
    telemetry.response_bytes = outcome.delivered ? path.wire_.size() : 0;
    endpoint.note_exchange(telemetry);
  }
  if (recorder_shard_) {
    FlightRecord record;
    record.op = FlightRecord::Op::Query;
    record.cause = outcome.timed_out    ? FlightRecord::Cause::Timeout
                   : outcome.tcp_refused ? FlightRecord::Cause::TcpRefused
                                         : FlightRecord::Cause::Ok;
    record.vp_id = path.vp_id_;
    record.root_index = static_cast<int>(path.root_index_);
    record.family = path.family_;
    record.round = path.round_;
    record.site_id = path.site_id();
    record.truncated_retry = outcome.truncated;
    record.udp_attempts = outcome.stats.udp_attempts;
    record.tcp_attempts = outcome.stats.tcp_attempts;
    record.drops = outcome.stats.drops;
    record.bytes_sent = outcome.stats.bytes_sent;
    record.bytes_received = outcome.stats.bytes_received;
    record.time_ms = outcome.stats.time_ms;
    if (!query.questions.empty()) {
      record.qname = query.questions[0].qname.to_string();
      record.qtype = static_cast<uint16_t>(query.questions[0].qtype);
    }
    record.when = now;
    recorder_shard_->record(std::move(record));
  }
  return outcome;
}

ExchangeOutcome Transport::exchange_impl(Path& path, const Endpoint& endpoint,
                                         const dns::Message& query,
                                         util::UnixTime now) const {
  ExchangeOutcome outcome;
  // Client-side encode; what cannot be serialized cannot be sent.
  query.encode_into(path.wire_);
  auto parsed_query = dns::Message::decode(path.wire_.data());
  if (!parsed_query) {
    outcome.timed_out = true;
    ++outcome.stats.timeouts;
    obs::inc(timeouts_);
    return outcome;
  }
  const uint64_t query_bytes = path.wire_.size();

  // UDP phase: dig-like try/retry schedule with per-attempt timeout budget.
  double timeout = config_.udp_timeout_ms;
  std::optional<dns::Message> response;
  for (int attempt = 0; attempt < config_.udp_max_attempts; ++attempt) {
    ++outcome.stats.udp_attempts;
    outcome.stats.bytes_sent += query_bytes;
    if (dropped(path)) {  // query datagram lost
      ++outcome.stats.drops;
      obs::inc(drops_);
      outcome.stats.time_ms += timeout;
      timeout *= config_.retry_backoff;
      continue;
    }
    dns::Message udp_answer =
        endpoint.udp_response(*parsed_query, now, path.conditions_.path_mtu);
    ++outcome.udp_queries_served;  // the query reached the server
    if (udp_answer.tc) outcome.truncated = true;
    udp_answer.encode_into(path.wire_);
    if (dropped(path)) {  // response datagram lost (the server still worked)
      ++outcome.stats.drops;
      obs::inc(drops_);
      outcome.stats.time_ms += timeout;
      timeout *= config_.retry_backoff;
      continue;
    }
    outcome.stats.bytes_received += path.wire_.size();
    outcome.stats.time_ms += round_trip_ms(path);
    response = dns::Message::decode(path.wire_.data());
    break;
  }
  if (!response) {
    // Either every datagram was lost or the response wire image failed to
    // parse — to the client both are a dead server.
    outcome.timed_out = true;
    ++outcome.stats.timeouts;
    obs::inc(timeouts_);
    return outcome;
  }
  note_exchange(TransportProto::Udp);
  if (!response->tc) {
    outcome.delivered = true;
    outcome.response = std::move(*response);
    return outcome;
  }

  // TC=1: retry over TCP — the dig default — unless the path refuses it, in
  // which case the truncated answer is all the client will ever get.
  if (path.conditions_.tcp_refused) {
    outcome.delivered = true;
    outcome.tcp_refused = true;
    outcome.response = std::move(*response);
    return outcome;
  }
  if (!tcp_connect(path, outcome.stats)) {
    outcome.timed_out = true;
    ++outcome.stats.timeouts;
    obs::inc(timeouts_);
    return outcome;
  }
  outcome.stats.bytes_sent += query_bytes + 2;  // RFC 1035 §4.2.2 length prefix
  dns::Message tcp_answer = endpoint.tcp_response(*parsed_query, now);
  ++outcome.tcp_queries_served;
  tcp_answer.encode_into(path.wire_);
  outcome.stats.bytes_received += path.wire_.size() + 2;
  outcome.stats.time_ms += round_trip_ms(path);
  response = dns::Message::decode(path.wire_.data());
  if (!response) {
    outcome.timed_out = true;
    ++outcome.stats.timeouts;
    obs::inc(timeouts_);
    return outcome;
  }
  note_exchange(TransportProto::Tcp);
  obs::inc(tcp_fallbacks_);
  outcome.delivered = true;
  outcome.retried_over_tcp = true;
  ++outcome.stats.tcp_fallbacks;
  outcome.transport = TransportProto::Tcp;
  outcome.response = std::move(*response);
  return outcome;
}

AxfrOutcome Transport::axfr(Path& path, const Endpoint& endpoint,
                            util::UnixTime now) const {
  if (!config_.condition_windows.empty())
    path.conditions_ = conditions_at(path.site_id(),
                                     static_cast<int>(path.root_index_), now);
  AxfrOutcome outcome = axfr_impl(path, endpoint, now);
  if (obs_.rssac002 && !outcome.tcp_refused && !outcome.timed_out) {
    // The connection established, so the server saw the request — account
    // the transfer (or the refusal: one REFUSED response) per RSSAC002.
    ExchangeTelemetry telemetry;
    telemetry.v6 = path.family_ == util::IpFamily::V6;
    telemetry.source_id = path.vp_id_;
    telemetry.when = now;
    telemetry.tcp_queries = 1;
    telemetry.delivered = true;
    telemetry.final_tcp = true;
    telemetry.rcode = outcome.delivered
                          ? static_cast<uint16_t>(dns::Rcode::NoError)
                          : static_cast<uint16_t>(dns::Rcode::Refused);
    telemetry.axfr = true;
    telemetry.query_bytes = 64;
    telemetry.response_bytes =
        outcome.delivered ? outcome.stream.size() : uint64_t{64};
    endpoint.note_exchange(telemetry);
  }
  if (recorder_shard_) {
    FlightRecord record;
    record.op = FlightRecord::Op::Axfr;
    record.cause = outcome.tcp_refused  ? FlightRecord::Cause::TcpRefused
                   : outcome.timed_out  ? FlightRecord::Cause::Timeout
                   : !outcome.delivered ? FlightRecord::Cause::Refused
                                        : FlightRecord::Cause::Ok;
    record.vp_id = path.vp_id_;
    record.root_index = static_cast<int>(path.root_index_);
    record.family = path.family_;
    record.round = path.round_;
    record.site_id = path.site_id();
    record.tcp_attempts = outcome.stats.tcp_attempts;
    record.drops = outcome.stats.drops;
    record.bytes_sent = outcome.stats.bytes_sent;
    record.bytes_received = outcome.stats.bytes_received;
    record.time_ms = outcome.stats.time_ms;
    record.when = now;
    recorder_shard_->record(std::move(record));
  }
  return outcome;
}

AxfrOutcome Transport::axfr_impl(Path& path, const Endpoint& endpoint,
                                 util::UnixTime now) const {
  AxfrOutcome outcome;
  if (path.conditions_.tcp_refused) {
    outcome.tcp_refused = true;
    return outcome;
  }
  if (!tcp_connect(path, outcome.stats)) {
    outcome.timed_out = true;
    ++outcome.stats.timeouts;
    obs::inc(timeouts_);
    return outcome;
  }
  // The AXFR request is one small framed query message.
  outcome.stats.bytes_sent += 64;
  std::span<const uint8_t> stream = endpoint.axfr_stream(now);
  if (stream.empty()) {
    // Server-side refusal; the connection itself worked.
    obs::inc(bytes_sent_, outcome.stats.bytes_sent);
    return outcome;
  }
  outcome.delivered = true;
  outcome.stream = stream;
  outcome.stats.bytes_received += stream.size();
  // Window-paced transfer: one RTT per in-flight window of the stream.
  const size_t window = std::max<size_t>(1, config_.tcp_window_bytes);
  const double windows =
      static_cast<double>((stream.size() + window - 1) / window);
  outcome.stats.time_ms += windows * round_trip_ms(path);
  note_exchange(TransportProto::Tcp);
  if (obs_.metrics) {
    obs::inc(bytes_sent_, outcome.stats.bytes_sent);
    obs::inc(bytes_received_, outcome.stats.bytes_received);
  }
  return outcome;
}

}  // namespace rootsim::netsim
