// Live SRAM capacity ledger (DESIGN.md §15): how full each SRAM-bearing
// table of a SilkRoadSwitch is right now, how hard the insertion machinery
// works to keep it so, which VIP owns the bytes, and when the current fill
// trend exhausts the table.
//
// The ledger is a friend of the switch and reads its four tables
// (conn_table, transit_table, learning_filter, dip_pool_table) whenever it
// polls or renders. It keeps only what the switch does not: each table's
// alarm level, crossing count and occupancy history, and the VIPs ever
// added (their rows read 0 while the VIP is not provisioned). Alarms enter
// at 70/85/95% occupancy and leave at 65/80/90%, so an occupancy hovering
// on a boundary records one kCapacityAlarmRaise/kCapacityAlarmClear trace
// event per true crossing, never a flap. Nothing is configurable beyond the
// switch's capacity_telemetry gate: an unbound ledger reports no tables.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "asic/cuckoo_table.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace silkroad::core {

class SilkRoadSwitch;

/// Alarm severity. Ordering is meaningful: higher = worse.
enum class CapacityLevel : std::uint8_t {
  kOk = 0,
  kWatch = 1,
  kPressure = 2,
  kCritical = 3,
};

/// Straight-line fill forecast from the occupancy history window.
struct CapacityForecast {
  bool valid = false;           ///< enough history and a meaningful trend
  double occupancy = 0;         ///< latest sampled occupancy (0..1)
  double slope_per_s = 0;       ///< d(occupancy)/dt over the window
  double seconds_to_full = -1;  ///< time until occupancy 1.0; -1 = not filling
};

class CapacityLedger {
 public:
  enum class Table : std::uint8_t {
    kConnTable,
    kTransitTable,
    kLearningFilter,
    kDipPoolTable,
  };
  static constexpr std::size_t kTables = 4;
  /// Minimum sim time between samples; other polls cost one compare.
  static constexpr sim::Time kPollInterval = 10 * sim::kMillisecond;
  /// Occupancy samples kept per table for the forecast window.
  static constexpr std::size_t kHistory = 64;

  /// One table's polled state.
  struct Track {
    CapacityLevel level = CapacityLevel::kOk;
    std::uint64_t transitions = 0;
    std::deque<std::pair<sim::Time, double>> history;
    std::uint32_t trace_scope = obs::kNoScope;

    /// Appends `occupancy` at `now` to the history and steps the alarm,
    /// recording each level crossed in `trace` (if non-null).
    void sample(sim::Time now, double occupancy, obs::TraceRing* trace);
    CapacityForecast forecast() const;
  };

  explicit CapacityLedger(const SilkRoadSwitch& sw) : sw_(sw) {}

  /// Interns the table names in `trace` and publishes the
  /// silkroad_capacity_* series on `registry`. The switch binds once, when
  /// capacity_telemetry is on.
  void bind(obs::MetricsRegistry& registry, obs::TraceRing& trace);
  /// Adds the VIP's attribution row and its two gauges, once per VIP.
  void add_vip(const net::Endpoint& vip);
  /// Samples every table at most once per kPollInterval of sim time.
  void poll(sim::Time now);

  std::size_t table_count() const noexcept {
    return trace_ == nullptr ? 0 : kTables;
  }
  std::uint64_t total_transitions() const noexcept;

  /// Least-squares fit over (t, occupancy) points.
  static CapacityForecast linear_forecast(
      const std::vector<std::pair<sim::Time, double>>& points,
      std::size_t min_samples);

  /// The /capacity scrape route.
  std::string to_text() const;
  /// The /capacity.json scrape route and telemetry dump.
  std::string to_json() const;

 private:
  struct Reading {
    std::uint64_t entries = 0;
    std::uint64_t capacity = 0;  ///< slots; 0 for the byte-sized bloom
    double occupancy = 0;
  };
  using NamedCounts = std::vector<std::pair<const char*, std::uint64_t>>;

  /// The fill state a poll samples.
  Reading read(Table table) const;
  std::uint64_t bytes(Table table) const;
  NamedCounts pressure(Table table) const;
  /// Per-stage usage (the ConnTable's only): one O(capacity) slot scan.
  std::vector<asic::DigestCuckooTable::StageOccupancy> stages(
      Table table) const;
  std::uint64_t vip_entries(const net::Endpoint& vip) const;
  std::uint64_t vip_bytes(const net::Endpoint& vip) const;
  void sample(sim::Time now);
  CapacityLevel worst_level() const noexcept;

  const SilkRoadSwitch& sw_;
  obs::TraceRing* trace_ = nullptr;
  std::array<Track, kTables> tracks_;
  std::vector<net::Endpoint> vips_;
  obs::MetricsRegistry* registry_ = nullptr;
  sim::Time next_poll_ = 0;
};

}  // namespace silkroad::core
