// Transport flight recorder: a bounded ring of recent exchanges.
//
// When a probe fails in a large campaign, the aggregate counters say *that*
// exchanges timed out but not *which* ones or *why*. The flight recorder
// keeps the last N exchanges — path coordinates, cause code, attempt/drop
// counts, byte and time cost — so a failed query can be post-mortemed from
// the ring dump (rootdig does exactly that on failure).
//
// Attach one by pointing TransportConfig::flight_recorder at it; each
// transport registers its own shard and records every exchange() / axfr()
// completion there. With no recorder attached the transport pays one
// null-pointer branch per exchange.
//
// Concurrency: a recorder is a set of single-writer Shards, each a bounded
// ring with no lock at all, so the recorder stays enabled in scaling benches
// without serializing workers on a mutex. The recorder's mutex guards only
// shard registration and reads; reads merge every shard ordered by simulated
// send time. The recorder is a *diagnostic* surface — buffered order
// reflects scheduling and never feeds the deterministic exports
// (metrics/trace/rssac002 stay byte-identical with or without it); only the
// recorded() total and the failure summary are scheduling-independent.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/ip.h"
#include "util/timeutil.h"

namespace rootsim::netsim {

/// One completed exchange as the transport saw it.
struct FlightRecord {
  enum class Op : uint8_t { Query, Axfr };
  /// Why the exchange ended the way it did.
  enum class Cause : uint8_t {
    Ok,          ///< final response delivered
    Timeout,     ///< every retry budget exhausted (UDP or TCP connect)
    TcpRefused,  ///< needed TCP, path refuses it (truncated answer is final)
    Refused,     ///< server-side refusal (AXFR disabled)
  };

  // Path coordinates (which conversation this was).
  uint32_t vp_id = 0;
  int root_index = -1;
  util::IpFamily family = util::IpFamily::V4;
  uint64_t round = 0;
  uint32_t site_id = 0;

  Op op = Op::Query;
  Cause cause = Cause::Ok;
  /// The UDP answer came back TC=1 — the exchange moved to TCP, unless the
  /// path refuses TCP (cause tcp-refused), in which case the truncated
  /// answer was final.
  bool truncated_retry = false;

  uint32_t udp_attempts = 0;
  uint32_t tcp_attempts = 0;
  uint32_t drops = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double time_ms = 0;  ///< simulated time the exchange cost

  std::string qname;  ///< first question ("." for root); empty for AXFR
  uint16_t qtype = 0;
  util::UnixTime when = 0;  ///< simulated send time
};

std::string_view to_string(FlightRecord::Cause cause);

/// Order-insensitive per-(root, family, cause) rollup of *every* record ever
/// recorded — counts and first/last simulated send times. Unlike the ring,
/// nothing is ever evicted, and count/min/max don't care which shard saw
/// which exchange, so the rollup is identical under any worker count or
/// steal schedule. This is the recorder surface the SLO plane's cause
/// attribution is allowed to read (the buffered ring is not: its eviction
/// order reflects scheduling).
struct FlightFailureSummary {
  struct Entry {
    int root_index = 0;
    bool v6 = false;
    FlightRecord::Cause cause = FlightRecord::Cause::Timeout;
    uint64_t count = 0;
    util::UnixTime first = 0;  ///< earliest simulated send time
    util::UnixTime last = 0;   ///< latest simulated send time
  };
  /// Non-Ok entries with count > 0, ordered by (root, family, cause).
  std::vector<Entry> entries;
};

/// Bounded rings of FlightRecords, one per writer, oldest evicted first.
class FlightRecorder {
 public:
  static constexpr size_t kSummaryRoots = 13;
  static constexpr size_t kSummaryCauses = 4;
  struct SummaryCell {
    uint64_t count = 0;
    util::UnixTime first = 0;
    util::UnixTime last = 0;
  };
  using SummaryCells =
      std::array<SummaryCell, kSummaryRoots * 2 * kSummaryCauses>;

  /// One writer's lock-free view of the recorder. record() touches only this
  /// shard's own bounded ring — no mutex, single writer by construction.
  /// The parent folds shard contents into every read API.
  class Shard {
   public:
    void record(FlightRecord record);

   private:
    friend class FlightRecorder;
    explicit Shard(size_t capacity) : capacity_(capacity) {}
    size_t capacity_;
    uint64_t recorded_ = 0;
    std::deque<FlightRecord> ring_;
    SummaryCells summary_{};
  };

  explicit FlightRecorder(size_t capacity = 256);

  /// Creates `count` shards and returns their pointers (owned by the
  /// recorder, valid for its lifetime). Each call appends fresh shards;
  /// earlier shards keep contributing to reads. Reading while a writer is
  /// still recording into its shard is a race — read after the parallel
  /// region (thread join gives the happens-before edge).
  std::vector<Shard*> make_shards(size_t count);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Total records ever recorded, including evicted and cleared ones, across
  /// all shards. Scheduling-independent.
  uint64_t recorded() const;
  /// Records no longer buffered (recorded minus buffered).
  uint64_t dropped() const;

  /// The deterministic failure rollup (see FlightFailureSummary). Folds
  /// every shard's cells; safe to read after the parallel region joins.
  /// Records with root_index outside [0, kSummaryRoots) (priming, local-root
  /// refresh) are not rolled up.
  FlightFailureSummary failure_summary() const;

  /// Merged copy of the buffered records, ordered by simulated send time
  /// (ties keep shard order), truncated to the newest `capacity`.
  std::vector<FlightRecord> records() const;

  /// One JSON object per buffered record, oldest first:
  ///   {"op":"query","cause":"timeout","vp":12,"root":1,"family":"v4",
  ///    "round":9980,"site":33,"qname":".","qtype":"SOA","t":1694593200,
  ///    "udp_attempts":3,"tcp_attempts":0,"drops":3,"bytes_sent":132,
  ///    "bytes_received":0,"time_ms":10500.0}
  std::string to_jsonl() const;

  /// Empties every shard's ring in place. Shards stay registered (their
  /// pointers stay valid) and keep their recorded() totals and failure
  /// summary. Not safe while writers are still recording.
  void clear();

 private:
  static void note_summary(SummaryCells& cells, const FlightRecord& record);

  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<Shard> shards_;
};

}  // namespace rootsim::netsim
