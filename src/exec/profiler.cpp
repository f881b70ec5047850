#include "exec/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "util/strings.h"

namespace rootsim::exec {

bool Profiler::enabled_by_env() {
  const char* env = std::getenv("ROOTSIM_PROFILE");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

std::string Profiler::env_output_path() {
  const char* env = std::getenv("ROOTSIM_PROFILE");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "1") == 0)
    return "PROF_exec_audit.json";
  return env;
}

double Profiler::thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void Profiler::begin_region(size_t unit_count, size_t workers) {
  workers_ = std::max<size_t>(workers, 1);
  units_.assign(unit_count, UnitSpan{});
  steals_.assign(workers_, 0);
  region_begin_ms_ = now_ms();
  region_end_ms_ = region_begin_ms_;
}

void Profiler::note_steals(size_t worker, uint64_t count) {
  if (worker < steals_.size()) steals_[worker] = count;
}

void Profiler::unit_done(size_t unit, size_t shard, double begin_ms,
                         double end_ms, double cpu_ms) {
  if (unit >= units_.size()) return;
  UnitSpan& span = units_[unit];
  span.shard = static_cast<uint32_t>(shard);
  span.recorded = true;
  span.begin_ms = begin_ms;
  span.end_ms = end_ms;
  span.cpu_ms = cpu_ms;
}

void Profiler::add_unit_sim_ms(size_t unit, double sim_ms) {
  if (unit >= units_.size()) return;
  units_[unit].sim_ms += sim_ms;
}

void Profiler::end_region() { region_end_ms_ = now_ms(); }

std::vector<Profiler::WorkerReport> Profiler::worker_reports() const {
  std::vector<WorkerReport> reports(workers_);
  for (size_t w = 0; w < workers_; ++w) reports[w].worker = w;
  for (const UnitSpan& span : units_) {
    if (!span.recorded || span.shard >= reports.size()) continue;
    WorkerReport& report = reports[span.shard];
    if (report.units == 0 || span.begin_ms < report.first_begin_ms)
      report.first_begin_ms = span.begin_ms;
    report.last_end_ms = std::max(report.last_end_ms, span.end_ms);
    report.busy_ms += span.end_ms - span.begin_ms;
    report.cpu_ms += span.cpu_ms;
    report.sim_ms += span.sim_ms;
    ++report.units;
  }
  const double wall = wall_ms();
  for (WorkerReport& report : reports) {
    report.utilization = wall > 0 ? report.busy_ms / wall : 0;
    report.idle_ms = std::max(0.0, wall - report.busy_ms);
    // Clock granularity can put a span's CPU a hair above its wall time.
    report.blocked_ms = std::max(0.0, report.busy_ms - report.cpu_ms);
    if (report.worker < steals_.size())
      report.steal_count = steals_[report.worker];
  }
  return reports;
}

std::string Profiler::to_json() const {
  const auto reports = worker_reports();
  double total_busy = 0, total_blocked = 0, critical_path = 0, last_end = 0;
  size_t recorded = 0;
  for (const WorkerReport& report : reports) {
    total_busy += report.busy_ms;
    total_blocked += report.blocked_ms;
    critical_path = std::max(critical_path, report.busy_ms);
    last_end = std::max(last_end, report.last_end_ms);
    recorded += report.units;
  }
  const double wall = wall_ms();
  const double mean_busy =
      workers_ > 0 ? total_busy / static_cast<double>(workers_) : 0;
  // The idle tail after the last unit completes: join + shard merge, work no
  // unit span accounts for.
  const double tail_ms =
      recorded > 0 ? std::max(0.0, region_end_ms_ - last_end) : 0;
  std::string out = "{\"schema\":\"rootsim-exec-profile/2\",\"summary\":{";
  out += util::format(
      "\"workers\":%zu,\"units\":%zu,\"wall_ms\":%.3f,\"total_busy_ms\":%.3f"
      ",\"total_blocked_ms\":%.3f",
      workers_, recorded, wall, total_busy, total_blocked);
  out += util::format(
      ",\"critical_path_ms\":%.3f,\"parallel_efficiency\":%.4f,"
      "\"imbalance\":%.4f",
      critical_path,
      wall > 0 && workers_ > 0
          ? total_busy / (wall * static_cast<double>(workers_))
          : 0,
      mean_busy > 0 ? critical_path / mean_busy : 0);
  out += util::format(
      ",\"tail_ms\":%.3f,\"sched\":\"steal\",\"hardware_concurrency\":%u",
      tail_ms, std::thread::hardware_concurrency());
  out += "},\"per_worker\":[";
  for (size_t w = 0; w < reports.size(); ++w) {
    const WorkerReport& report = reports[w];
    if (w) out += ",";
    out += util::format(
        "{\"worker\":%zu,\"units\":%zu,\"busy_ms\":%.3f,"
        "\"cpu_ms\":%.3f,\"blocked_ms\":%.3f,"
        "\"first_begin_ms\":%.3f,\"last_end_ms\":%.3f,"
        "\"utilization\":%.4f,\"idle_ms\":%.3f,\"steal_count\":%llu,"
        "\"sim_ms\":%.3f}",
        report.worker, report.units, report.busy_ms, report.cpu_ms,
        report.blocked_ms, report.first_begin_ms,
        report.last_end_ms, report.utilization, report.idle_ms,
        static_cast<unsigned long long>(report.steal_count), report.sim_ms);
  }
  out += "],\"units\":[";
  bool first = true;
  for (size_t unit = 0; unit < units_.size(); ++unit) {
    const UnitSpan& span = units_[unit];
    if (!span.recorded) continue;
    if (!first) out += ",";
    first = false;
    out += util::format("[%zu,%u,%.3f,%.3f,%.3f]", unit, span.shard,
                        span.begin_ms, span.end_ms, span.sim_ms);
  }
  out += "]}\n";
  return out;
}

bool Profiler::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  const std::string body = to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace rootsim::exec
