// The traced run's per-layer ledger: spans recorded by the benchmark around
// its calls into each rootsim layer, kept in memory and summarised (and
// optionally written out) after the replay ends.
//
// A span records wall time (steady_clock) and the calling thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID). Their difference is time the thread spent off
// CPU inside the span — blocked on a lock, or preempted — which is how the
// ledger separates blocked from busy time without instrumenting src/exec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Wall and thread-CPU clock readings, in nanoseconds.
struct Clocks {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  static Clocks now();
};

/// Process CPU seconds (all threads) since process start.
double process_cpu_s();

/// Monotonic wall seconds.
double wall_s();

/// Layer boundaries the benchmark times. `Unit` is the frame span of one
/// work unit (one exec unit, or one file of the serial §7 loop); every other
/// layer is a leaf and leaves never nest, so a leaf's wall time is its self
/// time.
enum class Layer : uint8_t {
  Unit,
  ZoneBuild,     // rss: ZoneAuthority::zone_at (build + sign, or cache hit)
  AxfrEncode,    // rss: ZoneAuthority::axfr_stream_at
  ChannelFetch,  // rss: DistributionChannel::fetch on a warm serial
  MasterParse,   // dns: Zone::parse_master_file
  FromAxfr,      // dns: Zone::from_axfr
  Validate,      // dnssec: validate_zone (and the crypto it calls)
  Probe,         // measure: Prober::probe on a warm serial
  Route,         // netsim: AnycastRouter::route_at
  SloFold,       // obs: SloCollector::windows
  Incident,      // obs: IncidentTracker observe/attribute/incidents
  Export,        // obs: slo/incidents JSONL rendering
  kCount,
};

const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::Unit;
  uint16_t thread = 0;
  int64_t start_ns = 0;  // wall, relative to the ledger's origin
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  bool in_unit = false;  // a leaf opened inside a Unit span on its thread
};

/// Span storage for one replay. Each thread appends to its own slot, so
/// recording takes no lock; slot `threads` is the replay's calling thread.
class Ledger {
 public:
  explicit Ledger(size_t threads);

  /// Slot for the replay's own (non-pool) thread.
  size_t main_slot() const { return slots_.size() - 1; }

  void add(size_t slot, Layer layer, const Clocks& start, const Clocks& end);

  /// Unit nesting on the calling thread (Scope maintains it).
  static void enter_unit();
  static void leave_unit();

  /// All spans, slot by slot.
  std::vector<Span> spans() const;

  /// Wall time of the parallel (or serial) region the units ran in, and the
  /// thread count it ran on; the idle-time denominator.
  void set_region(double wall_s, size_t threads) {
    region_wall_s_ = wall_s;
    region_threads_ = threads;
  }
  double region_wall_s() const { return region_wall_s_; }
  size_t region_threads() const { return region_threads_; }

  /// Writes every span as CSV (layer,thread,start_ns,wall_ns,cpu_ns).
  bool write_csv(const std::string& path) const;

 private:
  int64_t origin_ns_ = 0;
  std::vector<std::vector<Span>> slots_;
  double region_wall_s_ = 0;
  size_t region_threads_ = 1;
};

/// RAII span; a null ledger records nothing and reads no clock.
class Scope {
 public:
  Scope(Ledger* ledger, size_t slot, Layer layer)
      : ledger_(ledger), slot_(slot), layer_(layer) {
    if (!ledger_) return;
    if (layer_ == Layer::Unit) Ledger::enter_unit();
    start_ = Clocks::now();
  }
  ~Scope() {
    if (!ledger_) return;
    const Clocks end = Clocks::now();
    if (layer_ == Layer::Unit) Ledger::leave_unit();
    ledger_->add(slot_, layer_, start_, end);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  size_t slot_;
  Layer layer_;
  Clocks start_;
};

}  // namespace perfbench
