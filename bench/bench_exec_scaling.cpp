// Exec-engine scaling harness: the Table 2 zone audit at 1, 2, 4 and 8
// workers on one campaign. Reports wall time, speedup and the probe /
// signature-check throughput behind each run, and writes one
// BENCH_exec_scaling_w<N>.json per worker count.
//
// Output equivalence across worker counts is enforced here (the audit is a
// pure function of seed; a mismatch means the engine broke determinism), so
// this harness doubles as a large-input determinism check. Wall-clock
// speedup tracks the host's core count — on a single-core container the
// engine can only show overhead, never scaling; the committed JSON records
// whatever the hardware gave.
#include <algorithm>
#include <thread>

#include "bench_common.h"

using namespace rootsim;

int main() {
  bench::print_header("Exec engine — zone-audit scaling by worker count",
                      "The Roots Go Deep, Section 7 corpus (75.7M transfers)");
  const measure::Campaign& campaign = bench::paper_campaign();
  constexpr size_t kCleanSamples = 400;

  // Warm the zone/AXFR caches so every worker count pays the same (zero)
  // build cost and the timings isolate the fan-out itself.
  auto reference = campaign.run_zone_audit(kCleanSamples, 1);

  const unsigned hw =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("host hardware threads: %u, scheduler: steal\n\n", hw);
  std::printf("%8s %12s %10s %12s %14s %16s\n", "workers", "wall ms",
              "speedup", "efficiency", "probes/s", "sig-checks/s");

  double serial_ms = 0;
  for (size_t workers : {1, 2, 4, 8}) {
    const auto& metrics = bench::paper_recorder().metrics();
    uint64_t probes_before = metrics.counter_total("netsim.route_selections");
    uint64_t sigs_before = metrics.counter_total("dnssec.signatures_checked");
    auto start = std::chrono::steady_clock::now();
    auto observations = campaign.run_zone_audit(kCleanSamples, workers);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (workers == 1) serial_ms = wall_ms;

    if (observations.size() != reference.size()) {
      std::printf("DETERMINISM VIOLATION at %zu workers: %zu vs %zu rows\n",
                  workers, observations.size(), reference.size());
      return 1;
    }
    for (size_t i = 0; i < observations.size(); ++i) {
      if (observations[i].when != reference[i].when ||
          observations[i].verdict != reference[i].verdict ||
          observations[i].note != reference[i].note) {
        std::printf("DETERMINISM VIOLATION at %zu workers, row %zu\n", workers,
                    i);
        return 1;
      }
    }

    double seconds = wall_ms / 1000.0;
    uint64_t probes =
        metrics.counter_total("netsim.route_selections") - probes_before;
    uint64_t sigs =
        metrics.counter_total("dnssec.signatures_checked") - sigs_before;
    // Parallel efficiency vs the same-host serial run, normalized by the
    // parallelism the host can actually deliver: on a 1-core container 8
    // workers can only tie the serial run (efficiency ~1.0 = no scheduler
    // overhead), never beat it.
    const double effective_workers =
        static_cast<double>(std::min<size_t>(workers, hw));
    const double efficiency = serial_ms / (wall_ms * effective_workers);
    std::printf("%8zu %12.1f %9.2fx %11.2f %14.0f %16.0f\n", workers, wall_ms,
                serial_ms / wall_ms, efficiency, probes / seconds,
                sigs / seconds);
    bench::write_bench_json("exec_scaling_w" + std::to_string(workers),
                            workers, wall_ms);
  }
  std::printf("\nall worker counts produced identical audit rows\n");
  return 0;
}
