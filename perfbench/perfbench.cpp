// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans PATH]
//
// --trace 0 (end to end): times set-up builds of the scenario's campaign,
// then repeats {build a fresh campaign, call the workload's entry point,
// check the outputs} while another repetition fits in S seconds, and
// reports medians over the repetitions.
// --trace 1 (per layer): repeats pairs of {untraced entry call, traced
// replay on another fresh campaign with a fresh obs::Recorder}, at least
// two, and reports the ledger's medians. The replay must reproduce the untraced output digest, and its
// schedule-independent counts must repeat exactly from pair to pair.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Lines before it state the sample counts and quartiles.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "scenario/apply.h"
#include "scenario/library.h"
#include "workloads.h"

namespace perfbench {

using namespace rootsim;

Sizes sizes_for(bool smoke) {
  if (smoke) return {2, 2 * 3600};
  return {32, util::kSecondsPerDay};
}

void Checked::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void Digest::bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    value ^= p[i];
    value *= 1099511628211ULL;
  }
}

std::vector<uint64_t> Counts::exact() const {
  return {zones_built,         sig_cache_hits + sig_cache_misses,
          validations,         signatures_checked,
          probes,              route_selections,
          transport_exchanges, transport_bytes,
          slo_samples,         slo_windows,
          incidents};
}

Counts read_counters(const obs::MetricsRegistry& metrics) {
  Counts counts;
  counts.zones_built = metrics.counter_total("rss.zones_built");
  counts.sig_cache_hits = metrics.counter_total("rss.sig_cache.hits");
  counts.sig_cache_misses = metrics.counter_total("rss.sig_cache.misses");
  counts.validations = metrics.counter_total("dnssec.validations");
  counts.signatures_checked = metrics.counter_total("dnssec.signatures_checked");
  counts.probes = metrics.counter_total("prober.probes");
  counts.route_selections = metrics.counter_total("netsim.route_selections");
  counts.transport_exchanges = metrics.counter_total("transport.exchanges");
  counts.transport_bytes = metrics.counter_total("transport.bytes");
  return counts;
}

void Counts::set_recorder_delta(const Counts& before, const Counts& after) {
  zones_built = after.zones_built - before.zones_built;
  sig_cache_hits = after.sig_cache_hits - before.sig_cache_hits;
  sig_cache_misses = after.sig_cache_misses - before.sig_cache_misses;
  validations = after.validations - before.validations;
  signatures_checked = after.signatures_checked - before.signatures_checked;
  probes = after.probes - before.probes;
  route_selections = after.route_selections - before.route_selections;
  transport_exchanges = after.transport_exchanges - before.transport_exchanges;
  transport_bytes = after.transport_bytes - before.transport_bytes;
}

scenario::ScenarioSpec workload_spec(const std::string& workload, uint64_t seed,
                                     bool smoke) {
  scenario::ScenarioSpec spec = scenario::paper_2023();
  if (smoke && workload == "slo-timeline") spec = scenario::smoke_variant(spec);
  spec.seed = seed;
  return spec;
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

void describe(const char* name, const char* unit, const std::vector<double>& values) {
  std::printf("%-14s median %.6g %s  q1 %.6g  q3 %.6g  (n=%zu):", name,
              median(values), unit, quantile(values, 0.25), quantile(values, 0.75),
              values.size());
  for (double v : values) std::printf(" %.4g", v);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<measure::Campaign> build_campaign(const scenario::ScenarioSpec& spec,
                                                  obs::Obs obs, double* setup_s) {
  const double start = wall_s();
  auto campaign =
      std::make_unique<measure::Campaign>(scenario::apply(spec).campaign, obs);
  if (setup_s) *setup_s = wall_s() - start;
  return campaign;
}

// The ledger of one traced replay, in BENCHMARK.json's per_layer order
// (trace.overhead is filled in by the caller from the pair medians).
std::vector<Metric> ledger_metrics(const Ledger& ledger, const Counts& counts) {
  constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
  double wall[kLayers] = {}, cpu[kLayers] = {}, off_cpu[kLayers] = {};
  std::vector<double> validate_ms, probe_ms, route_us;
  double covered = 0, uncovered_leaves = 0;
  const std::vector<Span> spans = ledger.spans();
  for (const Span& span : spans) {
    const size_t layer = static_cast<size_t>(span.layer);
    const double w = static_cast<double>(span.wall_ns) * 1e-9;
    const double c = static_cast<double>(span.cpu_ns) * 1e-9;
    wall[layer] += w;
    cpu[layer] += c;
    off_cpu[layer] += std::max(0.0, w - c);
    if (span.layer == Layer::Validate) validate_ms.push_back(w * 1e3);
    if (span.layer == Layer::Probe) probe_ms.push_back(w * 1e3);
    if (span.layer == Layer::Route) route_us.push_back(w * 1e6);
    if (span.layer != Layer::Unit) (span.in_unit ? covered : uncovered_leaves) += w;
  }
  auto at = [](const double* array, Layer layer) {
    return array[static_cast<size_t>(layer)];
  };
  const double unit_wall = at(wall, Layer::Unit);
  const double pool_s = ledger.region_wall_s() * static_cast<double>(ledger.region_threads());
  const uint64_t lookups = counts.sig_cache_hits + counts.sig_cache_misses;
  const double worker_time = unit_wall + uncovered_leaves;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"rss.zone_build_s", at(wall, Layer::ZoneBuild), "s"},
      {"rss.zone_build_cpu_s", at(cpu, Layer::ZoneBuild), "s"},
      {"rss.zone_wait_s", at(off_cpu, Layer::ZoneBuild), "s"},
      {"rss.zones_built", n(counts.zones_built), "count"},
      {"rss.sig_cache_hit_ratio", lookups ? n(counts.sig_cache_hits) / n(lookups) : 0.0,
       "ratio"},
      {"rss.sig_cache_lookups", n(lookups), "count"},
      {"rss.axfr_encode_s", at(wall, Layer::AxfrEncode), "s"},
      {"rss.channel_fetch_s", at(wall, Layer::ChannelFetch), "s"},
      {"dns.master_parse_s", at(wall, Layer::MasterParse), "s"},
      {"dns.from_axfr_s", at(wall, Layer::FromAxfr), "s"},
      {"dnssec.validate_s", at(wall, Layer::Validate), "s"},
      {"dnssec.validate_ms_p50", quantile(validate_ms, 0.50), "ms"},
      {"dnssec.validate_ms_p95", quantile(validate_ms, 0.95), "ms"},
      {"dnssec.validations", n(counts.validations), "count"},
      {"dnssec.signatures_checked", n(counts.signatures_checked), "count"},
      {"measure.probe_s", at(wall, Layer::Probe), "s"},
      {"measure.probe_ms_p50", quantile(probe_ms, 0.50), "ms"},
      {"measure.probe_ms_p95", quantile(probe_ms, 0.95), "ms"},
      {"measure.probes", n(counts.probes), "count"},
      {"netsim.route_s", at(wall, Layer::Route), "s"},
      {"netsim.route_us_p50", quantile(route_us, 0.50), "us"},
      {"netsim.route_selections", n(counts.route_selections), "count"},
      {"netsim.transport_exchanges", n(counts.transport_exchanges), "count"},
      {"netsim.transport_bytes", n(counts.transport_bytes), "bytes"},
      {"exec.busy_s", at(cpu, Layer::Unit), "s"},
      {"exec.blocked_s", at(off_cpu, Layer::Unit), "s"},
      {"exec.idle_s", std::max(0.0, pool_s - unit_wall), "s"},
      {"exec.utilization", pool_s > 0 ? at(cpu, Layer::Unit) / pool_s : 0.0, "ratio"},
      {"obs.slo_fold_s", at(wall, Layer::SloFold), "s"},
      {"obs.incident_s", at(wall, Layer::Incident), "s"},
      {"obs.export_s", at(wall, Layer::Export), "s"},
      {"obs.slo_samples", n(counts.slo_samples), "count"},
      {"obs.slo_windows", n(counts.slo_windows), "count"},
      {"obs.incidents", n(counts.incidents), "count"},
      {"trace.spans", n(spans.size()), "count"},
      {"trace.overhead", 0.0, "ratio"},
      {"trace.coverage",
       worker_time > 0 ? (covered + uncovered_leaves) / worker_time : 0.0, "ratio"},
  };
}

struct Outcome {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;

  void note_failures(const char* what, const Checked& checked) {
    attempted += checked.units;
    failed += std::min(checked.failed, checked.units);
    for (const std::string& why : checked.failures)
      std::fprintf(stderr, "check failed (%s): %s\n", what, why.c_str());
  }
  void mismatch(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "%s\n", why.c_str());
  }
};

// True while one more repetition, at the mean length of those so far, still
// ends within the run's time budget. Runs therefore last at most `seconds`
// (beyond the first repetition) instead of overshooting by up to one
// repetition, which keeps run lengths predictable for slow workloads.
bool another_fits(double start, size_t done, double seconds) {
  const double elapsed = wall_s() - start;
  return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

// Set-up-only campaign builds per run, under the fixed seeds kSetupSeed,
// kSetupSeed + 1, ... RSA key generation searches for primes, so one seed's
// build time is one draw from a wide distribution (about 0.02-0.2 s); a
// fixed panel makes the reported median a property of the code rather than
// of --seed, which only selects the timed repetitions' inputs.
constexpr uint64_t kSetupBuilds = 21;
constexpr uint64_t kSetupSeed = 42;  // paper-2023's own seed

Outcome end_to_end(const Workload& workload, const scenario::ScenarioSpec& spec,
                   double seconds) {
  Outcome outcome;
  std::vector<double> setup, run, cpu;
  for (uint64_t i = 0; i < kSetupBuilds; ++i) {
    scenario::ScenarioSpec variant = spec;
    variant.seed = kSetupSeed + i;
    double s = 0;
    build_campaign(variant, {}, &s);
    setup.push_back(s);
  }
  uint64_t digest = 0;
  const double start = wall_s();
  do {
    Timed timed;
    const Checked checked = workload.run(*build_campaign(spec, {}, nullptr), timed);
    run.push_back(timed.wall_s);
    cpu.push_back(timed.cpu_s);
    outcome.note_failures(workload.name(), checked);
    if (run.size() == 1) digest = checked.digest;
    if (checked.digest != digest)
      outcome.mismatch("output digest changed between repetitions of one seed");
  } while (another_fits(start, run.size(), seconds));

  describe("run_s", "s", run);
  describe("cpu_s", "s", cpu);
  describe("setup_s", "s", setup);
  outcome.metrics = {
      {"run_s", median(run), "s"},
      {"cpu_s", median(cpu), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup), "s"},
  };
  return outcome;
}

Outcome per_layer(const Workload& workload, const scenario::ScenarioSpec& spec,
                  double seconds, const std::string& spans_path) {
  Outcome outcome;
  std::vector<double> untraced, traced;
  std::vector<std::vector<Metric>> ledgers;
  std::vector<uint64_t> exact;
  std::unique_ptr<Ledger> last;
  const double start = wall_s();
  do {
    Timed timed;
    const Checked reference = workload.run(*build_campaign(spec, {}, nullptr), timed);
    outcome.note_failures(workload.name(), reference);

    obs::Recorder recorder;
    auto campaign = build_campaign(spec, obs::Obs{&recorder.metrics()}, nullptr);
    auto ledger = std::make_unique<Ledger>(kWorkers);
    const Counts before = read_counters(recorder.metrics());
    double wall = 0;
    Counts counts;  // the replay fills in the workload-side fields
    const Checked replayed = workload.replay(*campaign, *ledger, wall, counts);
    counts.set_recorder_delta(before, read_counters(recorder.metrics()));
    outcome.note_failures("replay", replayed);
    if (replayed.digest != reference.digest)
      outcome.mismatch("traced replay does not reproduce the entry point's output digest");
    if (exact.empty()) exact = counts.exact();
    if (counts.exact() != exact)
      outcome.mismatch("schedule-independent counts differ between replays of one seed");

    untraced.push_back(timed.wall_s);
    traced.push_back(wall);
    ledgers.push_back(ledger_metrics(*ledger, counts));
    last = std::move(ledger);
  } while (ledgers.size() < 2 || another_fits(start, ledgers.size(), seconds));

  describe("untraced_s", "s", untraced);
  describe("traced_s", "s", traced);
  outcome.metrics = ledgers.front();
  for (size_t m = 0; m < outcome.metrics.size(); ++m) {
    std::vector<double> values;
    for (const auto& ledger : ledgers) values.push_back(ledger[m].value);
    outcome.metrics[m].value = median(values);
    if (outcome.metrics[m].name == "trace.overhead")
      outcome.metrics[m].value = median(traced) / median(untraced);
  }
  if (!spans_path.empty()) {
    if (last->write_csv(spans_path))
      std::printf("spans of the last replay: %s\n", spans_path.c_str());
    else
      std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
  }
  return outcome;
}

void print_result(const Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              outcome.correct && outcome.failed == 0 ? "true" : "false",
              outcome.attempted, outcome.failed);
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
}

// Whole-token numeric parsing: "12x" or "" is an error, not 12 or 0.
bool parse(const char* text, long long& out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}
bool parse(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return *text != '\0' && *end == '\0';
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table2-audit|sec7-channels|slo-timeline "
               "--seed N --seconds S --trace 0|1 [--smoke] [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name, spans_path;
  long long seed = -1, trace = -1;
  double seconds = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") workload_name = value;
    else if (arg == "--spans") spans_path = value;
    else if (arg == "--seed") ok = parse(value, seed);
    else if (arg == "--seconds") ok = parse(value, seconds);
    else if (arg == "--trace") ok = parse(value, trace);
    else ok = false;
    if (!ok) return usage();
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) return usage();

  const Sizes sizes = sizes_for(smoke);
  const rootsim::scenario::ScenarioSpec spec =
      workload_spec(workload_name, static_cast<uint64_t>(seed), smoke);
  std::unique_ptr<Workload> workload;
  if (workload_name == "table2-audit") workload = make_table2_audit(spec, sizes);
  if (workload_name == "sec7-channels") workload = make_sec7_channels(spec, sizes);
  if (workload_name == "slo-timeline") workload = make_slo_timeline(spec, sizes);
  if (!workload) return usage();

  std::printf("workload %s seed %lld seconds %g trace %lld%s\n", workload->name(), seed,
              seconds, trace, smoke ? " (smoke sizes)" : "");
  const Outcome outcome = trace ? per_layer(*workload, spec, seconds, spans_path)
                                : end_to_end(*workload, spec, seconds);
  std::fflush(stderr);
  print_result(outcome);
  return 0;
}
