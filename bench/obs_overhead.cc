// Hot-path observability overhead gate (DESIGN.md §14).
//
// The data-plane telemetry added on top of the base counters (the per-DIP
// connection series) must cost <5% of the telemetry-off packet path,
// measured span_overhead-style as the median per-pair CPU ratio over
// interleaved on/off runs of the packet-level auditor. Telemetry must never
// change sim-visible behavior.
#include <vector>

#include "bench_common.h"
#include "core/silkroad_switch.h"
#include "lb/packet_level.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

using namespace silkroad;

namespace {

constexpr int kPairs = 7;

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

struct Workload {
  std::vector<workload::Flow> flows;
  std::vector<workload::DipUpdate> updates;
};

Workload make_workload() {
  Workload w;
  sim::Simulator gen_sim;
  workload::FlowGenerator gen(
      gen_sim,
      {{vip_ep(), 1200.0, workload::FlowProfile::hadoop(), false}},
      0x0B5ULL);
  gen.start(sim::kMinute,
            [&w](const workload::Flow& f) { w.flows.push_back(f); },
            [](const workload::Flow&) {});
  gen_sim.run();
  workload::UpdateGenerator ugen({.seed = 0x0B6ULL}, vip_ep(), make_dips(16));
  w.updates = ugen.generate(20.0, sim::kMinute);
  return w;
}

struct RunResult {
  double cpu_ms = 0;
  lb::PacketLevelRunner::Stats stats;
  std::size_t dip_series = 0;  // per-DIP series registered
};

RunResult run_once(const Workload& w, bool telemetry) {
  const double start = bench::cpu_ms();
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(50'000);
  config.data_plane_telemetry = telemetry;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(16));
  lb::PacketLevelRunner runner(sim, sw,
                               {.packet_interval = 20 * sim::kMillisecond});
  RunResult result;
  result.stats = runner.run(w.flows, w.updates);
  result.cpu_ms = bench::cpu_ms() - start;
  for (const auto& sample : sw.metrics().snapshot().samples) {
    if (sample.name == "silkroad_dip_new_conns_total" ||
        sample.name == "silkroad_dip_active_conns") {
      ++result.dip_series;
    }
  }
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "hot-path observability overhead — per-DIP connection telemetry",
      "telemetry must be cheap enough to leave on: total packet-path "
      "overhead <5%");

  // Interleaved telemetry-off/on pairs of the packet-level audit over a
  // SilkRoadSwitch; median per-pair CPU ratio.
  const Workload w = make_workload();
  const auto pairs = bench::on_off_pairs(
      kPairs, [&w](bool telemetry) { return run_once(w, telemetry); });
  const RunResult& off = pairs.off;
  const RunResult& on = pairs.on;
  const double overhead_pct = pairs.median_pct();

  std::printf("\n%-28s %12s %12s\n", "", "telemetry off", "on");
  std::printf("%-28s %12.1f %12.1f\n", "cpu_ms (min of pairs)", off.cpu_ms,
              on.cpu_ms);
  std::printf("%-28s %12llu %12llu\n", "packets",
              static_cast<unsigned long long>(off.stats.packets),
              static_cast<unsigned long long>(on.stats.packets));
  std::printf("%-28s %12zu %12zu\n", "per-DIP series", off.dip_series,
              on.dip_series);
  std::printf("%-28s %12.2f%%  (median of %zu interleaved pairs)\n",
              "obs_overhead_pct", overhead_pct, pairs.ratios.size());

  const bool behavior_identical =
      off.stats.flows == on.stats.flows &&
      off.stats.packets == on.stats.packets &&
      off.stats.violations == on.stats.violations &&
      off.stats.unmapped_flows == on.stats.unmapped_flows;
  // The per-DIP series are all the flag still gates.
  const bool dip_series_live = on.dip_series > 0 && off.dip_series == 0;

  // Absolute times are machine-dependent and deliberately NOT headlines; the
  // baseline pins the relative overhead.
  bench::headline("obs_overhead_pct", overhead_pct,
                  "telemetry-on CPU over telemetry-off, percent (budget: <5)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "telemetry changed no sim-visible outcome (must be 1)");
  bench::headline("dip_series_live", dip_series_live ? 1.0 : 0.0,
                  "per-DIP series exist iff telemetry on (must be 1)");
  bench::emit_headlines("obs_overhead");

  if (!behavior_identical || !dip_series_live) return 1;
  return overhead_pct < 5.0 ? 0 : 1;
}
