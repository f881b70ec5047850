// Metrics substrate for the measurement pipeline: counters, gauges and
// log-linear histograms (obs/loglin.h) behind one registry.
//
// Design constraints (see ZDNS's per-query status output):
//   * hot-path counter and gauge updates are lock-free (relaxed atomics on
//     pre-resolved handles) and histogram observes take only their own
//     series' uncontended lock; the registry mutex is only taken at
//     registration time, so instrumented code caches handles once and
//     records without registry contention afterwards;
//   * iteration order is deterministic (name-then-label lexicographic), so
//     exports from equal-seed runs are byte-identical;
//   * wall-clock style metrics are flagged `volatile_metric` and excluded
//     from exports by default — everything exported is a pure function of
//     (seed, config).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/loglin.h"

namespace rootsim::obs {

/// Sorted key=value pairs attached to a metric ("family=v4"). Kept small;
/// the registry normalizes ordering so {a=1,b=2} and {b=2,a=1} are one series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Renders "{k1=v1,k2=v2}" (empty string for no labels).
std::string labels_to_string(const LabelSet& labels);

/// Monotonic event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value with a set-to-max convenience (zone serials).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// A distribution series: one LogLinearHistogram behind its own mutex.
/// LogLinearHistogram is not atomic; the lock keeps concurrent observes on
/// one handle from losing anything. Every hot-path writer records into its
/// own per-unit shard, so the lock is uncontended in practice.
class LockedHistogram {
 public:
  void observe(uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.observe(value);
  }
  /// Adds another histogram's buckets into this one (parallel shard merge).
  void merge_from(const LogLinearHistogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.merge_from(other);
  }
  /// Point-in-time copy.
  LogLinearHistogram value() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  LogLinearHistogram histogram_;
};

/// A point-in-time copy of one metric series, used by exports and RunReport.
struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  LabelSet labels;
  Kind kind = Kind::Counter;
  bool volatile_metric = false;  ///< wall-clock etc.; excluded by default
  uint64_t count = 0;            ///< counter value
  double value = 0;              ///< gauge value
  LogLinearHistogram histogram;  ///< histogram only
};

class MetricsRegistry {
 public:
  /// Registration: returns a stable handle, creating the series on first
  /// use. Handles stay valid for the registry's lifetime; increments on them
  /// never take the registry lock.
  Counter& counter(std::string_view name, LabelSet labels = {});
  Gauge& gauge(std::string_view name, LabelSet labels = {},
               bool volatile_metric = false);
  LockedHistogram& histogram(std::string_view name, LabelSet labels = {});

  /// Deterministically ordered copy of every series.
  std::vector<MetricSample> snapshot(bool include_volatile = false) const;

  /// Folds another registry into this one: counters and histograms add,
  /// gauges take the max (every gauge in the pipeline is monotone — serials,
  /// set sizes). Used by the exec engine to merge per-worker shards; merging
  /// shards in any order yields the same totals, and the totals equal a
  /// serial run's.
  void merge_from(const MetricsRegistry& other);

  /// Plain-text export, one series per line:
  ///   prober.queries{rcode=NOERROR} 12345
  ///   prober.rtt_us{family=v4} count=120 sum=4321000 p50=31250.0 p90=...
  std::string to_text(bool include_volatile = false) const;

  /// JSON-lines export, one object per series (stable key order); a
  /// histogram's "value" is its LogLinearHistogram::to_json() object.
  std::string to_jsonl(bool include_volatile = false) const;

  /// Total value of a counter across all label sets (0 when absent).
  uint64_t counter_total(std::string_view name) const;
  /// Value of one exact counter series (0 when absent).
  uint64_t counter_value(std::string_view name, const LabelSet& labels) const;

 private:
  struct Key {
    std::string name;
    LabelSet labels;
    bool operator<(const Key& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::Counter;
    bool volatile_metric = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LockedHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> series_;
};

/// Renders a MetricSample as one JSONL object (shared by registry export and
/// RunReport).
std::string sample_to_json(const MetricSample& sample);
/// Renders a MetricSample as one text line.
std::string sample_to_text(const MetricSample& sample);

/// Minimal JSON string escaping for exporter output.
std::string json_escape(std::string_view text);

}  // namespace rootsim::obs
