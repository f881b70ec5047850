// The benchmark's workloads. Each one is a closed loop with one caller and a
// fixed input size, run on a campaign freshly built from the `paper-2023`
// scenario (re-seeded with the benchmark's --seed):
//
//   table2-audit  — Campaign::run_zone_audit, paper fault plan + clean
//                   samples, 2 workers, cold zone cache.
//   sec7-channels — the §7 download-channel study, serial: fetch, master-file
//                   parse and validate every IANA file (15-min cadence) and
//                   CZDS file (daily) around both ZONEMD phase changes.
//   slo-timeline  — Campaign::run_slo_timeline over the full horizon,
//                   2 workers.
//
// Every workload offers an untraced run (the timed end-to-end region is the
// entry call alone; checks run after it) and a traced replay built from the
// same public calls the entry point makes, which must reproduce the
// untraced output digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "measure/campaign.h"
#include "obs/obs.h"
#include "scenario/spec.h"

namespace perfbench {

/// Worker threads for the parallel entry points: at most 2 on the 4-core
/// host, so the numbers measure the program and not the scheduler.
inline constexpr size_t kWorkers = 2;

/// Input sizes. `smoke` shrinks every workload to seconds.
struct Sizes {
  size_t audit_clean_samples;
  int64_t sec7_half_window_s;
};
Sizes sizes_for(bool smoke);

/// What the output checks of one run found.
struct Checked {
  uint64_t digest = 0;  // FNV-1a over the canonical output
  size_t units = 0;     // units attempted
  size_t failed = 0;    // units whose output check failed
  std::vector<std::string> failures;  // first few, for stderr

  void fail(std::string why);
};

/// Timing of one untraced entry-point call.
struct Timed {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Calls `entry` and records its wall and process CPU time in `timed`.
template <typename Entry>
auto time_call(Timed& timed, Entry&& entry) {
  const double wall0 = wall_s();
  const double cpu0 = process_cpu_s();
  auto result = entry();
  timed.cpu_s = process_cpu_s() - cpu0;
  timed.wall_s = wall_s() - wall0;
  return result;
}

/// Schedule-independent counts of one traced replay, read as deltas from a
/// fresh obs::Recorder over the replay region, plus workload-side counts.
struct Counts {
  uint64_t zones_built = 0;
  uint64_t sig_cache_hits = 0;  // reported as a ratio only: not exact
  uint64_t sig_cache_misses = 0;
  uint64_t validations = 0;
  uint64_t signatures_checked = 0;
  uint64_t probes = 0;
  uint64_t route_selections = 0;
  uint64_t transport_exchanges = 0;
  uint64_t transport_bytes = 0;
  uint64_t slo_samples = 0;
  uint64_t slo_windows = 0;
  uint64_t incidents = 0;

  /// The counts that must repeat exactly between replays of one seed.
  std::vector<uint64_t> exact() const;
  /// Sets the recorder-read fields to `after - before`.
  void set_recorder_delta(const Counts& before, const Counts& after);
};

/// Snapshot of the recorder counters the ledger reports (the workload-side
/// fields stay zero).
Counts read_counters(const rootsim::obs::MetricsRegistry& metrics);

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;

  /// Untraced entry call on a fresh campaign; `timed` covers the call only.
  virtual Checked run(const rootsim::measure::Campaign& campaign,
                      Timed& timed) const = 0;

  /// Traced replay; `wall_s` covers the replayed region, `counts` gets the
  /// workload-side counts (recorder counters are read by the caller).
  virtual Checked replay(const rootsim::measure::Campaign& campaign,
                         Ledger& ledger, double& wall_s,
                         Counts& counts) const = 0;
};

/// The scenario every workload runs: paper-2023 (its smoke variant for the
/// smoke-sized SLO run), re-seeded.
rootsim::scenario::ScenarioSpec workload_spec(const std::string& workload,
                                              uint64_t seed, bool smoke);

std::unique_ptr<Workload> make_table2_audit(const rootsim::scenario::ScenarioSpec& spec,
                                            const Sizes& sizes);
std::unique_ptr<Workload> make_sec7_channels(const rootsim::scenario::ScenarioSpec& spec,
                                             const Sizes& sizes);
std::unique_ptr<Workload> make_slo_timeline(const rootsim::scenario::ScenarioSpec& spec,
                                            const Sizes& sizes);

/// FNV-1a accumulation helpers for output digests.
struct Digest {
  uint64_t value = 1469598103934665603ULL;
  void bytes(const void* data, size_t size);
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    u64(s.size());
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void i64(int64_t v) { bytes(&v, sizeof v); }
};

}  // namespace perfbench
