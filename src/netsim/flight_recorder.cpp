#include "netsim/flight_recorder.h"

#include <algorithm>

#include "dns/rdata.h"
#include "obs/metrics.h"  // json_escape
#include "util/strings.h"

namespace rootsim::netsim {

std::string_view to_string(FlightRecord::Cause cause) {
  switch (cause) {
    case FlightRecord::Cause::Ok: return "ok";
    case FlightRecord::Cause::Timeout: return "timeout";
    case FlightRecord::Cause::TcpRefused: return "tcp-refused";
    case FlightRecord::Cause::Refused: return "refused";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

void FlightRecorder::note_summary(SummaryCells& cells,
                                  const FlightRecord& record) {
  if (record.root_index < 0 ||
      record.root_index >= static_cast<int>(kSummaryRoots))
    return;
  const size_t family = record.family == util::IpFamily::V6 ? 1 : 0;
  SummaryCell& cell =
      cells[(static_cast<size_t>(record.root_index) * 2 + family) *
                kSummaryCauses +
            static_cast<size_t>(record.cause)];
  if (cell.count == 0 || record.when < cell.first) cell.first = record.when;
  if (cell.count == 0 || record.when > cell.last) cell.last = record.when;
  ++cell.count;
}

void FlightRecorder::Shard::record(FlightRecord record) {
  note_summary(summary_, record);
  if (ring_.size() >= capacity_) ring_.pop_front();
  ++recorded_;
  ring_.push_back(std::move(record));
}

std::vector<FlightRecorder::Shard*> FlightRecorder::make_shards(size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Shard*> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.emplace_back(Shard(capacity_));
    out.push_back(&shards_.back());
  }
  return out;
}

size_t FlightRecorder::size() const { return records().size(); }

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.recorded_;
  return total;
}

uint64_t FlightRecorder::dropped() const { return recorded() - size(); }

FlightFailureSummary FlightRecorder::failure_summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Fold: counts add, first is a min, last is a max — all order-insensitive,
  // so the result is independent of which shard recorded what.
  SummaryCells folded{};
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < folded.size(); ++i) {
      const SummaryCell& cell = shard.summary_[i];
      if (cell.count == 0) continue;
      if (folded[i].count == 0 || cell.first < folded[i].first)
        folded[i].first = cell.first;
      if (folded[i].count == 0 || cell.last > folded[i].last)
        folded[i].last = cell.last;
      folded[i].count += cell.count;
    }
  }
  FlightFailureSummary summary;
  for (size_t root = 0; root < kSummaryRoots; ++root) {
    for (size_t family = 0; family < 2; ++family) {
      for (size_t cause = 0; cause < kSummaryCauses; ++cause) {
        if (static_cast<FlightRecord::Cause>(cause) == FlightRecord::Cause::Ok)
          continue;
        const SummaryCell& cell =
            folded[(root * 2 + family) * kSummaryCauses + cause];
        if (cell.count == 0) continue;
        FlightFailureSummary::Entry entry;
        entry.root_index = static_cast<int>(root);
        entry.v6 = family == 1;
        entry.cause = static_cast<FlightRecord::Cause>(cause);
        entry.count = cell.count;
        entry.first = cell.first;
        entry.last = cell.last;
        summary.entries.push_back(entry);
      }
    }
  }
  return summary;
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightRecord> merged;
  for (const Shard& shard : shards_)
    merged.insert(merged.end(), shard.ring_.begin(), shard.ring_.end());
  // Order by simulated send time (scheduling put them in arbitrary shards);
  // stable so shard order breaks ties, then keep the newest `capacity` like
  // a single ring would have.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     return a.when < b.when;
                   });
  if (merged.size() > capacity_)
    merged.erase(merged.begin(),
                 merged.begin() + static_cast<long>(merged.size() - capacity_));
  return merged;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Shard& shard : shards_) shard.ring_.clear();
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  for (const FlightRecord& record : records()) {
    out += util::format(
        "{\"op\":\"%s\",\"cause\":\"%.*s\"",
        record.op == FlightRecord::Op::Axfr ? "axfr" : "query",
        static_cast<int>(to_string(record.cause).size()),
        to_string(record.cause).data());
    out += util::format(
        ",\"vp\":%u,\"root\":%d,\"family\":\"v%d\",\"round\":%llu,\"site\":%u",
        record.vp_id, record.root_index,
        record.family == util::IpFamily::V4 ? 4 : 6,
        static_cast<unsigned long long>(record.round), record.site_id);
    if (!record.qname.empty()) {
      out += ",\"qname\":\"" + obs::json_escape(record.qname) + "\"";
      out += ",\"qtype\":\"" +
             dns::rrtype_to_string(static_cast<dns::RRType>(record.qtype)) +
             "\"";
    }
    if (record.truncated_retry) out += ",\"truncated_retry\":true";
    out += util::format(
        ",\"t\":%lld,\"udp_attempts\":%u,\"tcp_attempts\":%u,\"drops\":%u",
        static_cast<long long>(record.when), record.udp_attempts,
        record.tcp_attempts, record.drops);
    out += util::format(
        ",\"bytes_sent\":%llu,\"bytes_received\":%llu,\"time_ms\":%.3f}\n",
        static_cast<unsigned long long>(record.bytes_sent),
        static_cast<unsigned long long>(record.bytes_received),
        record.time_ms);
  }
  return out;
}

}  // namespace rootsim::netsim
