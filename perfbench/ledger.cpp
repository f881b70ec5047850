#include "ledger.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t to_ns(const timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Depth of open Unit spans on this thread; leaves opened inside one are
// counted as covered worker time.
thread_local int unit_depth = 0;

}  // namespace

Clocks Clocks::now() {
  timespec cpu{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  return {steady_ns(), to_ns(cpu)};
}

double process_cpu_s() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return static_cast<double>(to_ns(cpu)) * 1e-9;
}

double wall_s() { return static_cast<double>(steady_ns()) * 1e-9; }

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Unit: return "unit";
    case Layer::ZoneBuild: return "rss.zone_build";
    case Layer::AxfrEncode: return "rss.axfr_encode";
    case Layer::ChannelFetch: return "rss.channel_fetch";
    case Layer::MasterParse: return "dns.master_parse";
    case Layer::FromAxfr: return "dns.from_axfr";
    case Layer::Validate: return "dnssec.validate";
    case Layer::Probe: return "measure.probe";
    case Layer::Route: return "netsim.route";
    case Layer::SloFold: return "obs.slo_fold";
    case Layer::Incident: return "obs.incident";
    case Layer::Export: return "obs.export";
    case Layer::kCount: break;
  }
  return "?";
}

Ledger::Ledger(size_t threads) : origin_ns_(steady_ns()), slots_(threads + 1) {}

void Ledger::add(size_t slot, Layer layer, const Clocks& start,
                 const Clocks& end) {
  Span span;
  span.layer = layer;
  span.thread = static_cast<uint16_t>(slot);
  span.start_ns = start.wall_ns - origin_ns_;
  span.wall_ns = end.wall_ns - start.wall_ns;
  span.cpu_ns = end.cpu_ns - start.cpu_ns;
  span.in_unit = layer != Layer::Unit && unit_depth > 0;
  slots_[slot].push_back(span);
}

void Ledger::enter_unit() { ++unit_depth; }
void Ledger::leave_unit() { --unit_depth; }

std::vector<Span> Ledger::spans() const {
  std::vector<Span> all;
  for (const auto& slot : slots_) all.insert(all.end(), slot.begin(), slot.end());
  return all;
}

bool Ledger::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fprintf(out, "layer,thread,start_ns,wall_ns,cpu_ns\n");
  for (const auto& slot : slots_)
    for (const Span& span : slot)
      std::fprintf(out, "%s,%u,%lld,%lld,%lld\n", layer_name(span.layer),
                   static_cast<unsigned>(span.thread),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.wall_ns),
                   static_cast<long long>(span.cpu_ns));
  return std::fclose(out) == 0;
}

}  // namespace perfbench
