// Transport throughput under loss: full-fidelity probes (46 queries + AXFR
// each) pushed through the simulated transport at 0%, 1% and 10% datagram
// loss. Loss costs twice — retransmitted exchanges do more work, and the
// retry/backoff bookkeeping rides the hot path — so this harness watches
// both the exchange rate and how the retry/timeout mix shifts.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "measure/prober.h"

namespace rootsim {
namespace {

struct LossPoint {
  double loss;
  uint64_t exchanges = 0;
  uint64_t udp_attempts = 0;
  uint64_t timeouts = 0;
  uint64_t tcp_fallbacks = 0;
  uint64_t wire_bytes = 0;
  double wall_ms = 0;
};

LossPoint run_point(const measure::Campaign& campaign, double loss,
                    size_t probes) {
  netsim::TransportConfig config;
  config.seed = campaign.config().seed;
  config.defaults.loss = loss;
  measure::Prober prober(campaign.authority(), campaign.catalog(),
                         campaign.router(), config,
                         bench::paper_recorder().obs());

  LossPoint point;
  point.loss = loss;
  const auto& vps = campaign.vantage_points();
  util::UnixTime now = campaign.schedule().config().start + 86400;
  uint64_t round = campaign.schedule().round_at(now);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < probes; ++i) {
    const auto& vp = vps[i % vps.size()];
    const auto& server = campaign.catalog().server(i % 13);
    measure::ProbeRecord record =
        prober.probe(vp, i % 2 ? server.ipv6 : server.ipv4, now, round);
    point.exchanges += record.queries.size() + 1;  // + the AXFR
    point.udp_attempts += record.transport.udp_attempts;
    point.timeouts += record.transport.timeouts;
    point.tcp_fallbacks += record.transport.tcp_fallbacks;
    point.wire_bytes +=
        record.transport.bytes_sent + record.transport.bytes_received;
  }
  point.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return point;
}

}  // namespace
}  // namespace rootsim

int main() {
  using namespace rootsim;
  bench::print_header(
      "transport throughput under datagram loss",
      "transport substrate for the paper's measurement campaign (§B)");

  const measure::Campaign& campaign = bench::paper_campaign();
  constexpr size_t kProbes = 120;  // ~5.6k exchanges per loss point

  std::printf("%-8s %12s %14s %12s %10s %10s %12s\n", "loss", "exchanges",
              "exchanges/s", "udp sends", "timeouts", "tcp-fb", "MB on wire");
  double total_wall_ms = 0;
  const bench::WorkCounts before = bench::WorkCounts::now();
  for (double loss : {0.0, 0.01, 0.10}) {
    LossPoint point = run_point(campaign, loss, kProbes);
    total_wall_ms += point.wall_ms;
    double rate = point.wall_ms > 0
                      ? static_cast<double>(point.exchanges) * 1000.0 /
                            point.wall_ms
                      : 0.0;
    std::printf("%-8.2f %12llu %14.0f %12llu %10llu %10llu %12.2f\n",
                point.loss,
                static_cast<unsigned long long>(point.exchanges), rate,
                static_cast<unsigned long long>(point.udp_attempts),
                static_cast<unsigned long long>(point.timeouts),
                static_cast<unsigned long long>(point.tcp_fallbacks),
                static_cast<double>(point.wire_bytes) / (1024.0 * 1024.0));
  }

  bench::write_bench_json("transport", 1, total_wall_ms,
                          bench::WorkCounts::now() - before);
  return 0;
}
