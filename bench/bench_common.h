// Shared helpers for the per-figure/table bench harnesses.
//
// Every harness prints (a) the series the paper plots, (b) the paper's
// headline numbers for side-by-side comparison, and (c) the scale it ran at.
// Scale: PCC scenario benches replay minutes of scaled-down traffic instead
// of the paper's one-hour 2.77M-conn/min traces; set SILKROAD_BENCH_SCALE
// (default 1.0, e.g. 4.0 for a longer, denser run) to trade time for
// fidelity. Analytic benches (memory/cost models) are exact and unscaled.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/silkroad_switch.h"
#include "deploy/fleet.h"
#include "lb/scenario.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "sim/distributions.h"

namespace silkroad::bench {

inline double scale_factor() {
  const char* env = std::getenv("SILKROAD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline void print_header(const std::string& title, const std::string& paper_note) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_note.c_str());
  std::printf("=====================================================================\n");
}

/// Prints a CDF as "value  cumulative%" rows at standard grid points.
inline void print_cdf(const sim::EmpiricalCdf& cdf, const char* value_label,
                      const std::vector<double>& percentiles = {
                          0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
  std::printf("%-14s %12s\n", "CDF%", value_label);
  for (const double p : percentiles) {
    std::printf("%-14.0f %12.4g\n", 100 * p, cdf.quantile(p));
  }
}

/// Fraction of samples in `cdf` exceeding `threshold`, in percent.
inline double percent_above(const sim::EmpiricalCdf& cdf, double threshold) {
  return 100.0 * (1.0 - cdf.cdf(threshold));
}

// --- Machine-readable headline numbers (DESIGN.md §9) -----------------------
//
// Each harness records the numbers it prints as headline gauges and emits
// them as BENCH_<name>.json (obs JSON exporter format) so CI and plotting
// scripts consume the same values the console shows. Files land in
// SILKROAD_BENCH_JSON_DIR when set, else the working directory.

/// Process-wide registry backing headline().
inline obs::MetricsRegistry& headlines() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Records one headline number, e.g. headline("pcc_violation_fraction", f).
inline void headline(const std::string& name, double value,
                     const std::string& help = "") {
  headlines().gauge(name, help)->set(value);
}

/// Writes the accumulated headlines as BENCH_<bench>.json and reports the
/// path on stdout. Call once at the end of main().
inline std::string emit_headlines(const std::string& bench) {
  const char* dir = std::getenv("SILKROAD_BENCH_JSON_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) +
                           "/BENCH_" + bench + ".json";
  obs::write_file(path, obs::to_json(headlines().snapshot()));
  std::printf("headline JSON: %s\n", path.c_str());
  return path;
}

// --- On/off overhead gates ---------------------------------------------------
//
// obs_overhead, span_overhead, capacity_overhead and fleet_obs_overhead each
// price one telemetry layer as the CPU ratio of identical runs with the layer
// on and off.

/// Process CPU time: the sims are single-threaded and CPU-bound, so this is
/// the throughput signal — and unlike wall clock it is immune to the
/// scheduler and to noisy neighbors on shared CI machines.
inline double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

template <typename Run>
struct OnOffPairs {
  /// Per-pair on/off CPU ratios, sorted ascending.
  std::vector<double> ratios;
  /// Each side's run with the least CPU.
  Run off;
  Run on;

  /// Median per-pair overhead, percent.
  double median_pct() const {
    return ratios.empty() ? 0.0 : 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
};

/// Runs `run(false)` then `run(true)` back to back `pairs` times, so both
/// sides of a pair see the same machine conditions; the median of the
/// per-pair ratios is robust to load drift across the whole measurement. A
/// warm-up pair (cold caches, page faults) is discarded first. `run` returns
/// a default-constructible result with a `cpu_ms` field.
template <typename Fn>
auto on_off_pairs(int pairs, Fn run) -> OnOffPairs<decltype(run(false))> {
  (void)run(false);
  (void)run(true);
  OnOffPairs<decltype(run(false))> result;
  for (int rep = 0; rep < pairs; ++rep) {
    const auto off = run(false);
    const auto on = run(true);
    if (rep == 0 || off.cpu_ms < result.off.cpu_ms) result.off = off;
    if (rep == 0 || on.cpu_ms < result.on.cpu_ms) result.on = on;
    if (off.cpu_ms > 0) result.ratios.push_back(on.cpu_ms / off.cpu_ms);
  }
  std::sort(result.ratios.begin(), result.ratios.end());
  return result;
}

/// The chaos-style control-plane scenario span_overhead and
/// capacity_overhead share: a 3-switch fleet over a lossy, reordering
/// control channel, 2 VIPs x 8 DIPs at 9600 arrivals/min each, and one
/// membership update every 200 ms per VIP (alternately removing and
/// re-adding the last DIP), so connection learning, span minting, channel
/// legs, retransmits and 3-step executions all run continuously for 30 s of
/// sim time. Construct, adjust `fleet`, then run().
class ControlPlaneScenario {
 public:
  static constexpr std::size_t kSwitches = 3;

  /// `config`'s ConnTable geometry and version reuse are overridden.
  explicit ControlPlaneScenario(core::SilkRoadSwitch::Config config)
      : fleet(sim, with_small_tables(std::move(config)), kSwitches, 0xFEE7ULL,
              channel()) {}
  // The fleet and scenario hold sim's address.
  ControlPlaneScenario(const ControlPlaneScenario&) = delete;
  ControlPlaneScenario& operator=(const ControlPlaneScenario&) = delete;

  lb::ScenarioStats run() {
    // The scenario registers callbacks on the fleet, so it lives as long.
    scenario_.emplace(sim, fleet, scenario_config());
    return scenario_->run();
  }

  sim::Simulator sim;
  deploy::SilkRoadFleet fleet;

 private:
  static constexpr std::size_t kVips = 2;
  static constexpr std::size_t kDipsPerVip = 8;
  static constexpr sim::Time kHorizon = 30 * sim::kSecond;

  static core::SilkRoadSwitch::Config with_small_tables(
      core::SilkRoadSwitch::Config config) {
    config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
    config.enable_version_reuse = false;
    return config;
  }

  static fault::ControlChannel::Config channel() {
    fault::ControlChannel::Config channel;
    channel.base_delay = 200 * sim::kMicrosecond;
    channel.jitter = 100 * sim::kMicrosecond;
    channel.drop_probability = 0.05;
    channel.reorder_probability = 0.05;
    channel.reorder_extra = 300 * sim::kMicrosecond;
    channel.retry_timeout = 1 * sim::kMillisecond;
    channel.retry_backoff = 2.0;
    channel.resync_after_retries = 5;
    channel.seed = 0xC0117301ULL;
    return channel;
  }

  static net::Endpoint vip_of(std::size_t v) {
    return {net::IpAddress::v4(0x14000001 + static_cast<std::uint32_t>(v)),
            80};
  }

  static std::vector<net::Endpoint> dips_of(std::size_t v) {
    std::vector<net::Endpoint> dips;
    for (std::size_t i = 0; i < kDipsPerVip; ++i) {
      dips.push_back(
          {net::IpAddress::v4(0x0A000000 +
                              static_cast<std::uint32_t>(v * 256 + i)),
           20});
    }
    return dips;
  }

  static lb::ScenarioConfig scenario_config() {
    lb::ScenarioConfig config;
    config.horizon = kHorizon;
    config.seed = 0xC4405ULL;
    for (std::size_t v = 0; v < kVips; ++v) {
      workload::FlowGenerator::VipLoad load;
      load.vip = vip_of(v);
      load.arrivals_per_min = 9600;
      load.profile = {"control-plane", 2.0, 10.0, 1e6, 5e6};
      config.vip_loads.push_back(load);
      config.dip_pools.push_back(dips_of(v));
      const auto dip = dips_of(v)[kDipsPerVip - 1];
      bool remove = true;
      for (sim::Time at = sim::kSecond; at < kHorizon;
           at += 400 * sim::kMillisecond) {
        config.updates.push_back(
            {at + static_cast<sim::Time>(v) * 200 * sim::kMillisecond,
             vip_of(v), dip,
             remove ? workload::UpdateAction::kRemoveDip
                    : workload::UpdateAction::kAddDip,
             workload::UpdateCause::kServiceUpgrade});
        remove = !remove;
      }
    }
    return config;
  }

  std::optional<lb::Scenario> scenario_;
};

}  // namespace silkroad::bench
