// The per-round measurement procedure, a functional port of the paper's
// Appendix F collection script.
//
// For each root service address the script runs, per round:
//   * one traceroute (mtr -c 1),
//   * an AXFR of the root zone,
//   * ZONEMD, NS ., NS root-servers.net queries (+dnssec),
//   * the four CHAOS identity queries,
//   * A/AAAA/TXT for each of the 13 root server names (39 queries),
// i.e. 47 DNS queries + 1 AXFR + 1 traceroute per address (paper §B).
//
// Every exchange rides netsim::Transport: the prober opens one path per
// probe (one route selection, like the kernel's route cache) and sends real
// wire-format messages over it, so packet loss, truncation retries, TCP
// fallback and timeout budgets all happen where they would in reality.
// Fault injection (bitflips, stale servers, skewed clocks) happens on
// exactly the paths it would too: the transfer payload and the validator's
// clock.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dns/message.h"
#include "measure/vantage.h"
#include "netsim/transport.h"
#include "obs/obs.h"
#include "rss/server.h"

namespace rootsim::measure {

/// Result of one DNS query.
struct QueryResult {
  dns::Question question;
  dns::Rcode rcode = dns::Rcode::NoError;
  bool timed_out = false;
  /// The UDP response came back truncated and was retried over TCP.
  bool retried_over_tcp = false;
  /// Truncated answer on a path that refuses TCP: this is all we got.
  bool tcp_refused = false;
  /// The protocol the final response arrived over.
  netsim::TransportProto transport = netsim::TransportProto::Udp;
  /// Datagrams / SYNs this query cost (1 / 0 on a clean path).
  uint32_t udp_attempts = 0;
  uint32_t tcp_attempts = 0;
  /// Total bytes on the wire, both directions, including retries.
  uint64_t wire_bytes = 0;
  /// Simulated time the exchange took: one path RTT on a clean UDP answer,
  /// plus timeout budgets for drops and handshake+RTT for a TCP retry.
  double rtt_ms = 0;
  std::vector<dns::ResourceRecord> answers;
};

/// Result of one AXFR attempt, including raw records so corruption survives
/// into the analysis exactly as it would in a stored .dig file.
struct AxfrResult {
  bool refused = false;
  /// The TCP connection never established (SYN loss on a lossy path).
  bool timed_out = false;
  /// The path refuses TCP outright: no transfer is possible at all.
  bool tcp_refused = false;
  uint32_t soa_serial = 0;
  std::vector<dns::ResourceRecord> records;
  bool bitflip_injected = false;
  std::string bitflip_note;
};

/// Everything one (vp, address, round) measurement produces.
struct ProbeRecord {
  /// Id of the probe's trace span when a tracer was attached (0 otherwise);
  /// lets downstream stages (validation in the audit) nest their events
  /// under the probe that produced the data.
  uint64_t trace_span = 0;
  uint32_t vp_id = 0;
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  bool old_b_address = false;
  util::UnixTime true_time = 0;   // wall clock
  util::UnixTime vp_time = 0;     // the VP's possibly skewed clock
  uint32_t site_id = 0;           // anycast site that answered
  std::string instance_identity;  // hostname.bind answer
  /// Path RTT under the transport's link conditions (jitter-free).
  double rtt_ms = 0;
  netsim::RouterId second_to_last_hop = 0;
  std::vector<netsim::RouterId> traceroute_hops;
  std::vector<QueryResult> queries;
  std::optional<AxfrResult> axfr;
  /// Wire-level accounting aggregated over the probe's 46 queries + AXFR.
  netsim::TransportStats transport;
};

/// Executes measurement rounds against simulated instances.
class Prober {
 public:
  /// `obs` (optional) records per-probe spans with one child event per
  /// query/AXFR, and the `prober.*` counters + RTT histograms. The default
  /// null sink keeps the probe loop on its uninstrumented path.
  Prober(const rss::ZoneAuthority& authority, const rss::RootCatalog& catalog,
         const netsim::AnycastRouter& router, obs::Obs obs = {})
      : Prober(authority, catalog, router, netsim::TransportConfig{}, obs) {}

  /// Same, with explicit link conditions / retry policy for the simulated
  /// transport all of this prober's exchanges ride.
  Prober(const rss::ZoneAuthority& authority, const rss::RootCatalog& catalog,
         const netsim::AnycastRouter& router,
         netsim::TransportConfig transport_config, obs::Obs obs = {});

  /// Full-fidelity probe of one service address from one VP at `round`.
  /// `behavior` overrides the contacted instance's serving state (stale zone
  /// injection); `bitflip` flips one bit in the transferred zone.
  struct FaultKnobs {
    std::optional<util::UnixTime> server_frozen_at;
    bool inject_bitflip = false;
    uint64_t bitflip_seed = 0;
    /// Target signed material only. The audit sets this because the
    /// campaign's Table 2 events are, by construction, the *detected*
    /// bitflips — before verifiable ZONEMD, a flip in unsigned glue or a
    /// delegation owner was simply invisible (observation bias the paper
    /// inherits too).
    bool bitflip_prefer_signed = false;
  };
  ProbeRecord probe(const VantagePoint& vp, const util::IpAddress& address,
                    util::UnixTime now, uint64_t round,
                    const FaultKnobs& faults) const;
  ProbeRecord probe(const VantagePoint& vp, const util::IpAddress& address,
                    util::UnixTime now, uint64_t round) const {
    return probe(vp, address, now, round, FaultKnobs{});
  }

  /// The transport every exchange of this prober goes through.
  const netsim::Transport& transport() const { return transport_; }

  /// Re-points this prober (and its transport) at a different sink. The
  /// work-stealing audit calls this before each unit so counters land in
  /// that unit's ObsShard; re-resolving the handles costs nothing next to
  /// the 47-query probe. Not safe mid-probe (never happens — each worker
  /// owns its prober and rebinds between units).
  void rebind_obs(obs::Obs obs);

  /// The 47-query list of Appendix F for one address.
  static std::vector<dns::Question> query_list();

 private:
  const rss::ZoneAuthority* authority_;
  const rss::RootCatalog* catalog_;
  netsim::Transport transport_;
  obs::Obs obs_;
  // Pre-resolved metric handles; null when no sink is attached.
  obs::Counter* probes_ = nullptr;
  obs::Counter* timeouts_ = nullptr;
  obs::Counter* tcp_retries_ = nullptr;
  obs::Counter* axfr_ok_ = nullptr;
  obs::Counter* axfr_refused_ = nullptr;
  obs::LockedHistogram* rtt_us_[2] = {nullptr, nullptr};  // v4, v6
};

/// Applies a single-bit corruption to one record of a transferred zone,
/// preferring RRSIG signatures and owner names — the corruption classes the
/// paper observed (Fig. 10; the .ruhr -> .buhr TLD case). Returns a note
/// describing what was flipped. With `prefer_signed` the flip always lands
/// in an RRSIG signature (guaranteed detectable by DNSSEC alone).
std::string inject_bitflip(std::vector<dns::ResourceRecord>& records,
                           uint64_t seed, bool prefer_signed = false);

}  // namespace rootsim::measure
