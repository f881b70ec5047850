// The simulated transport substrate every client↔server DNS exchange rides.
//
// The paper's measurement client talks to the root servers over a real,
// lossy network: UDP datagrams time out, big answers come back TC=1 and are
// retried over TCP, and every retry costs wall-clock time the analyses see
// as RTT. This layer reproduces that substrate for the simulation: one
// `exchange` API that
//
//   1. resolves the serving anycast site via the AnycastRouter (one route
//      per opened path, like a kernel route-cache entry),
//   2. encodes the query to wire bytes and delivers them — or drops them,
//      with deterministic seeded loss derived from per-link conditions,
//   3. enforces the UDP size limit (EDNS0 advertised buffer, clamped by the
//      path MTU) on the server side,
//   4. on TC=1 falls back to TCP, and on drops retries with backoff,
//      charging realistic simulated time: per-attempt timeout budget for
//      losses, SYN+RTT handshake for TCP, and a window-paced transfer time
//      for AXFR streams.
//
// Everything is a pure function of (config.seed, client, root, family,
// round): a path carries its own RNG forked from those coordinates, so
// outcomes are identical for any worker count or probe interleaving. With
// the default (loss-free, jitter-free) conditions the transport is exactly
// transparent: responses, routes and counters match a direct call into the
// server stack byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/codec.h"
#include "dns/message.h"
#include "netsim/flight_recorder.h"
#include "netsim/routing.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/timeutil.h"

namespace rootsim::netsim {

/// The protocol a response (finally) arrived over.
enum class TransportProto : uint8_t { Udp, Tcp };

std::string_view to_string(TransportProto proto);

/// Server-side summary of one exchange, handed to Endpoint::note_exchange
/// when an RSSAC002 collector is attached — everything the instance needs to
/// account the exchange the way a real root operator's telemetry pipeline
/// would (see obs/rssac002.h). Plain integers only; the endpoint translates.
struct ExchangeTelemetry {
  bool v6 = false;            ///< address family of the queried service address
  uint64_t source_id = 0;     ///< client identity (vp id)
  util::UnixTime when = 0;    ///< simulated send time
  uint32_t udp_queries = 0;   ///< datagram queries that reached the server
  uint32_t tcp_queries = 0;   ///< TCP queries that reached the server
  bool delivered = false;     ///< a final response reached the client
  bool final_tcp = false;     ///< that response went over TCP
  uint16_t rcode = 0;         ///< rcode of the final response
  bool truncated = false;     ///< the server sent a TC=1 answer
  bool axfr = false;          ///< the exchange was a zone transfer
  uint64_t query_bytes = 0;   ///< wire size of the query message
  uint64_t response_bytes = 0;  ///< wire size of the final response / stream
};

/// Conditions of one client↔site link. Defaults model the clean path the
/// seed campaign assumed; each knob is one scenario line (packet loss at a
/// site, path-MTU clamping, a TCP-refusing instance).
struct LinkConditions {
  /// Per-datagram drop probability, each direction independently.
  double loss = 0.0;
  /// Uniform extra delay in [0, jitter_ms) per delivered datagram.
  double jitter_ms = 0.0;
  /// Fixed extra one-way-pair latency on this path (flaky transit, detours).
  double extra_rtt_ms = 0.0;
  /// Clamps the usable UDP payload below what EDNS0 advertises (a tunnel or
  /// broken middlebox); 0 = no clamp. Responses above min(advertised, mtu)
  /// come back TC=1.
  size_t path_mtu = 0;
  /// The instance refuses TCP connections: truncated answers cannot be
  /// retried and AXFR is impossible (the paper's unreachable-instance class).
  bool tcp_refused = false;
};

/// A time-bounded overlay on link conditions — how scenario transport
/// events (DDoS collateral on surviving sites, a route leak's detour, a
/// regional degradation) reach the wire. During [start, end) on paths to
/// the matching letter, `add` composes additively over the path's base
/// conditions: loss adds (clamped to 1), extra RTT and jitter add, the
/// smaller nonzero MTU clamp wins, tcp_refused ORs in.
struct ConditionWindow {
  util::UnixTime start = 0;
  util::UnixTime end = 0;
  int root_index = -1;  ///< letter the overlay applies to; -1 = every letter
  LinkConditions add;
};

struct TransportConfig {
  uint64_t seed = 42;
  /// Conditions applied to every path…
  LinkConditions defaults;
  /// …overridden per serving site (keyed by AnycastSite::id)…
  std::unordered_map<uint32_t, LinkConditions> site_conditions;
  /// …and composed with any scenario event window covering the exchange
  /// time. Empty for ad-hoc configs: the overlay costs nothing then.
  std::vector<ConditionWindow> condition_windows;
  /// Per-attempt UDP timeout budget and retry schedule (dig-like: one try
  /// plus two retries, timeout doubling per attempt).
  double udp_timeout_ms = 1500.0;
  int udp_max_attempts = 3;
  double retry_backoff = 2.0;
  /// TCP connection establishment: SYN loss burns the connect timeout, a
  /// successful handshake costs `tcp_handshake_rtts` round trips before the
  /// query goes out.
  double tcp_connect_timeout_ms = 3000.0;
  int tcp_max_attempts = 2;
  double tcp_handshake_rtts = 1.0;
  /// AXFR pacing: the framed stream is charged one RTT per in-flight window
  /// of this many bytes (stop-and-wait per window — crude but deterministic).
  size_t tcp_window_bytes = 64 * 1024;
  /// Optional flight recorder (non-owning): when set, each Transport built
  /// from this config registers its own shard and pushes every
  /// exchange()/axfr() completion onto it for post-mortem. Diagnostic only —
  /// never part of the deterministic export surface (see flight_recorder.h).
  FlightRecorder* flight_recorder = nullptr;

  const LinkConditions& conditions_for_site(uint32_t site_id) const {
    auto it = site_conditions.find(site_id);
    return it == site_conditions.end() ? defaults : it->second;
  }
};

/// Wire-level accounting of one or more exchanges. Byte counts include the
/// DNS payload plus the 2-octet TCP length prefix where applicable (UDP/IP
/// header overhead is not modelled).
struct TransportStats {
  uint32_t udp_attempts = 0;   // datagrams sent (query side)
  uint32_t tcp_attempts = 0;   // connection attempts (SYNs)
  uint32_t drops = 0;          // datagrams lost to simulated loss
  uint32_t timeouts = 0;       // exchanges that exhausted every retry
  uint32_t tcp_fallbacks = 0;  // exchanges completed over TCP after TC=1
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  /// Total simulated time charged: RTTs for delivered datagrams, timeout
  /// budgets for dropped ones, handshakes and window pacing for TCP.
  double time_ms = 0.0;

  void absorb(const TransportStats& other) {
    udp_attempts += other.udp_attempts;
    tcp_attempts += other.tcp_attempts;
    drops += other.drops;
    timeouts += other.timeouts;
    tcp_fallbacks += other.tcp_fallbacks;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    time_ms += other.time_ms;
  }
};

/// Result of one query/response exchange.
struct ExchangeOutcome {
  /// A final response was decoded at the client.
  bool delivered = false;
  /// Every retry budget was exhausted (or a wire image failed to parse).
  bool timed_out = false;
  /// The answer needed TCP but the path refuses it; `response` is then the
  /// truncated UDP answer (all the client will ever get).
  bool tcp_refused = false;
  dns::Message response;  // valid when delivered
  TransportProto transport = TransportProto::Udp;
  bool retried_over_tcp = false;
  /// Server-side accounting (feeds telemetry): datagram/TCP queries that
  /// actually reached the server, and whether any answer left it with TC=1.
  uint32_t udp_queries_served = 0;
  uint32_t tcp_queries_served = 0;
  bool truncated = false;
  TransportStats stats;
};

/// Result of one zone transfer attempt.
struct AxfrOutcome {
  /// The framed stream reached the client. False: refused by the server,
  /// no TCP on this path, or the connection never established (timed out —
  /// see `timed_out`).
  bool delivered = false;
  bool timed_out = false;
  bool tcp_refused = false;
  /// Borrowed from the server's per-serial cache; valid while the authority
  /// lives.
  std::span<const uint8_t> stream{};
  TransportStats stats;
};

class Transport {
 public:
  /// The server-side stack a path terminates at. Implementations answer
  /// decoded queries with the semantics of each protocol; the rss module
  /// provides the adapter over RootServerInstance.
  class Endpoint {
   public:
    virtual ~Endpoint() = default;
    /// Response bound for UDP: truncated to min(EDNS0 advertised buffer,
    /// `path_mtu_clamp`) per RFC 6891 (0 = no clamp beyond the advertised
    /// buffer).
    virtual dns::Message udp_response(const dns::Message& query,
                                      util::UnixTime now,
                                      size_t path_mtu_clamp) const = 0;
    /// Response with TCP semantics (no size limit).
    virtual dns::Message tcp_response(const dns::Message& query,
                                      util::UnixTime now) const = 0;
    /// Framed AXFR stream (RFC 5936); empty = transfer refused.
    virtual std::span<const uint8_t> axfr_stream(util::UnixTime now) const = 0;
    /// Telemetry hook: called once per completed exchange when (and only
    /// when) the transport's sink carries an RSSAC002 collector. Default
    /// no-op keeps every existing endpoint unchanged.
    virtual void note_exchange(const ExchangeTelemetry&) const {}
  };

  /// A resolved client↔site path: the route, the link conditions that apply
  /// to it, a reusable wire buffer, and the RNG all its loss/jitter draws
  /// come from. Open one per conversation (a probe, a priming exchange) and
  /// run every message of that conversation over it.
  class Path {
   public:
    const RouteResult& route() const { return route_; }
    const LinkConditions& conditions() const { return conditions_; }
    uint32_t site_id() const { return route_.site_id; }
    // The coordinates the path was opened with (telemetry / flight records).
    uint32_t vp_id() const { return vp_id_; }
    uint32_t root_index() const { return root_index_; }
    util::IpFamily family() const { return family_; }
    uint64_t round() const { return round_; }

   private:
    friend class Transport;
    RouteResult route_;
    LinkConditions conditions_;
    uint32_t vp_id_ = 0;
    uint32_t root_index_ = 0;
    util::IpFamily family_ = util::IpFamily::V4;
    uint64_t round_ = 0;
    util::Rng rng_{0};
    dns::WireWriter wire_;
  };

  /// `obs` (optional) records exchange counts by protocol, drops, timeouts,
  /// TCP fallbacks and wire bytes under `transport.*`. With
  /// `config.flight_recorder` set, the transport registers one recorder shard
  /// it alone writes (copies of the transport share it, so only one copy may
  /// exchange at a time — each worker builds its own transport).
  explicit Transport(const AnycastRouter& router, TransportConfig config = {},
                     obs::Obs obs = {});

  /// Re-points the metric handles at a different sink. The work-stealing
  /// audit hands each worker's transport the current unit's ObsShard before
  /// every probe — re-resolving seven handles is noise next to the ~47-query
  /// probe they account. Not thread-safe against concurrent exchanges on the
  /// same Transport (each worker owns its transport, so that never happens).
  void rebind_obs(obs::Obs obs);

  /// Resolves the serving site for (client, root, family) at `round` —
  /// exactly one route selection — and binds the per-link conditions and the
  /// path's deterministic RNG stream.
  Path open_path(const VantageView& client, uint32_t root_index,
                 util::IpFamily family, uint64_t round) const;

  /// One DNS exchange over an open path: UDP first with retries, TCP
  /// fallback on truncation.
  ExchangeOutcome exchange(Path& path, const Endpoint& endpoint,
                           const dns::Message& query, util::UnixTime now) const;

  /// One zone transfer over an open path (TCP only, RFC 5936).
  AxfrOutcome axfr(Path& path, const Endpoint& endpoint,
                   util::UnixTime now) const;

  const LinkConditions& conditions_for_site(uint32_t site_id) const {
    return config_.conditions_for_site(site_id);
  }
  /// A site no datagram survives to (loss >= 1) — the analyses treat it as
  /// the paper treats an unreachable instance.
  bool site_unreachable(uint32_t site_id) const {
    return conditions_for_site(site_id).loss >= 1.0;
  }
  /// The deterministic (jitter-free) RTT of a route under this transport's
  /// conditions: the base model RTT plus the site's fixed path penalty.
  double effective_rtt_ms(const RouteResult& route) const {
    return route.rtt_ms + conditions_for_site(route.site_id).extra_rtt_ms;
  }
  /// effective_rtt_ms with scenario condition windows applied: the RTT a
  /// probe of `root_index` at `when` would experience. Identical to the
  /// timeless overload when no window covers the instant.
  double effective_rtt_ms(const RouteResult& route, int root_index,
                          util::UnixTime when) const {
    if (config_.condition_windows.empty()) return effective_rtt_ms(route);
    return route.rtt_ms +
           conditions_at(route.site_id, root_index, when).extra_rtt_ms;
  }
  /// The composed conditions of a path to `site_id` serving `root_index`
  /// at `when` (base site conditions + every covering window).
  LinkConditions conditions_at(uint32_t site_id, int root_index,
                               util::UnixTime when) const;

  const TransportConfig& config() const { return config_; }
  const AnycastRouter& router() const { return *router_; }

 private:
  ExchangeOutcome exchange_impl(Path& path, const Endpoint& endpoint,
                                const dns::Message& query,
                                util::UnixTime now) const;
  AxfrOutcome axfr_impl(Path& path, const Endpoint& endpoint,
                        util::UnixTime now) const;
  /// One delivered-datagram round trip on this path (base + extra + jitter).
  double round_trip_ms(Path& path) const;
  /// Draws one datagram-loss decision (false on loss-free paths, no draw).
  bool dropped(Path& path) const;
  /// Establishes a TCP connection; returns false when every SYN was lost.
  bool tcp_connect(Path& path, TransportStats& stats) const;
  void note_exchange(TransportProto proto) const;

  const AnycastRouter* router_;
  TransportConfig config_;
  FlightRecorder::Shard* recorder_shard_ = nullptr;  // null: no recorder
  obs::Obs obs_;
  // Pre-resolved metric handles; null when no sink is attached.
  obs::Counter* exchanges_[2] = {nullptr, nullptr};  // udp, tcp
  obs::Counter* drops_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* tcp_fallbacks_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* bytes_received_ = nullptr;
};

}  // namespace rootsim::netsim
