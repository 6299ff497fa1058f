#include "core/capacity.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "asic/sram.h"
#include "core/silkroad_switch.h"
#include "obs/exporters.h"

namespace silkroad::core {

namespace {

using Table = CapacityLedger::Table;

constexpr const char* kTableNames[CapacityLedger::kTables] = {
    "conn_table", "transit_table", "learning_filter", "dip_pool_table"};

// Enter/exit occupancy per level, indexed by CapacityLevel; enter > exit
// gives each raised level its hysteresis band.
constexpr double kEnter[] = {0, 0.70, 0.85, 0.95};
constexpr double kExit[] = {0, 0.65, 0.80, 0.90};

// Samples needed before a forecast is offered.
constexpr std::size_t kForecastMinSamples = 8;

// A LearnTable cell carries the IPv6 five-tuple plus the pool version
// (296 + 6 bits, §5.2's LearnTable record).
constexpr std::uint64_t kLearnCellBytes = asic::bits_to_bytes(296 + 6);

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

Table table_at(std::size_t index) { return static_cast<Table>(index); }

double fragmentation_of(
    const std::vector<asic::DigestCuckooTable::StageOccupancy>& stages) {
  // Stage skew: the spread between the fullest and emptiest stage's
  // occupancy. A skewed cuckoo table fails inserts well before its global
  // occupancy says it should, so this is the "wasted headroom" gauge.
  double lo = 1.0, hi = 0.0;
  std::size_t counted = 0;
  for (const auto& stage : stages) {
    if (stage.capacity == 0) continue;
    const double occ = static_cast<double>(stage.used) /
                       static_cast<double>(stage.capacity);
    lo = std::min(lo, occ);
    hi = std::max(hi, occ);
    ++counted;
  }
  return counted < 2 ? 0.0 : hi - lo;
}

const char* to_string(CapacityLevel level) noexcept {
  switch (level) {
    case CapacityLevel::kOk: return "ok";
    case CapacityLevel::kWatch: return "watch";
    case CapacityLevel::kPressure: return "pressure";
    case CapacityLevel::kCritical: return "critical";
  }
  return "unknown";
}

}  // namespace

void CapacityLedger::Track::sample(sim::Time now, double occupancy,
                                   obs::TraceRing* trace) {
  history.emplace_back(now, occupancy);
  if (history.size() > kHistory) history.pop_front();
  // Hysteresis: raise through every enter threshold occupancy clears, then
  // lower while at or below the current level's exit threshold. One trace
  // event per level crossed — a sample hovering inside a band changes
  // nothing (same idiom as the switch's degraded-mode gate).
  const auto record = [&](obs::TraceEventKind kind) {
    ++transitions;
    if (trace == nullptr) return;
    trace->record(kind, trace_scope, obs::kNoVersion,
                  static_cast<std::uint64_t>(level),
                  static_cast<std::uint64_t>(occupancy * 10000));
  };
  while (level < CapacityLevel::kCritical) {
    const auto next =
        static_cast<CapacityLevel>(static_cast<std::uint8_t>(level) + 1);
    if (occupancy < kEnter[static_cast<std::size_t>(next)]) break;
    level = next;
    record(obs::TraceEventKind::kCapacityAlarmRaise);
  }
  while (level > CapacityLevel::kOk &&
         occupancy <= kExit[static_cast<std::size_t>(level)]) {
    level = static_cast<CapacityLevel>(static_cast<std::uint8_t>(level) - 1);
    record(obs::TraceEventKind::kCapacityAlarmClear);
  }
}

CapacityForecast CapacityLedger::Track::forecast() const {
  return linear_forecast({history.begin(), history.end()},
                         kForecastMinSamples);
}

CapacityForecast CapacityLedger::linear_forecast(
    const std::vector<std::pair<sim::Time, double>>& points,
    std::size_t min_samples) {
  CapacityForecast out;
  if (points.empty()) return out;
  out.occupancy = points.back().second;
  if (points.size() < std::max<std::size_t>(min_samples, 2)) return out;
  if (points.back().first <= points.front().first) return out;

  // Least-squares slope of occupancy over seconds, anchored at the window
  // start to keep the sums small.
  const double t0 = sim::to_seconds(points.front().first);
  double sum_t = 0, sum_y = 0, sum_tt = 0, sum_ty = 0;
  for (const auto& [at, value] : points) {
    const double t = sim::to_seconds(at) - t0;
    sum_t += t;
    sum_y += value;
    sum_tt += t * t;
    sum_ty += t * value;
  }
  const double n = static_cast<double>(points.size());
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom <= 0) return out;
  out.valid = true;
  out.slope_per_s = (n * sum_ty - sum_t * sum_y) / denom;
  if (out.occupancy >= 1.0) {
    out.seconds_to_full = 0;
  } else if (out.slope_per_s > 1e-12) {
    out.seconds_to_full = (1.0 - out.occupancy) / out.slope_per_s;
  }
  return out;
}

CapacityLedger::Reading CapacityLedger::read(Table table) const {
  Reading r;
  switch (table) {
    case Table::kConnTable:
      r.entries = sw_.conn_table_.size();
      r.capacity = sw_.conn_table_.capacity();
      break;
    case Table::kTransitTable:
      // A byte-sized bloom: occupancy is the fill ratio, not slots.
      r.entries = sw_.transit_.inserted();
      r.occupancy = sw_.transit_.fill_ratio();
      break;
    case Table::kLearningFilter:
      r.entries = sw_.learning_filter_.pending_count();
      r.capacity = sw_.learning_filter_.config().capacity;
      break;
    case Table::kDipPoolTable:
      // Live (VIP, version) pools against the version-number space: its
      // occupancy is version exhaustion, the §4.2 failure mode.
      for (const auto& [vip, state] : sw_.vips_) {
        r.entries += state.versions->active_versions();
      }
      r.capacity = static_cast<std::uint64_t>(sw_.vips_.size())
                   << sw_.config_.version_bits;
      break;
  }
  if (r.capacity > 0) {
    r.occupancy =
        static_cast<double>(r.entries) / static_cast<double>(r.capacity);
  }
  return r;
}

std::uint64_t CapacityLedger::bytes(Table table) const {
  switch (table) {
    case Table::kConnTable: return sw_.conn_table_.sram_bytes();
    case Table::kTransitTable: return sw_.transit_.byte_count();
    case Table::kLearningFilter:
      return kLearnCellBytes * sw_.learning_filter_.pending_count();
    case Table::kDipPoolTable: return sw_.memory_usage().dip_pool_table_bytes;
  }
  return 0;
}

CapacityLedger::NamedCounts CapacityLedger::pressure(Table table) const {
  const auto& c = sw_.c_;
  switch (table) {
    case Table::kConnTable:
      return {{"cuckoo_moves", sw_.conn_table_.total_moves()},
              {"failed_inserts", sw_.conn_table_.failed_inserts()},
              {"relocation_failures", c.relocation_failures->value()},
              {"software_fallbacks", c.software_fallback_conns->value()},
              {"insert_shed", c.pending_shed->value()}};
    case Table::kTransitTable:
      return {{"false_positives", c.transit_false_positives->value()}};
    case Table::kLearningFilter:
      return {{"dropped_events", sw_.learning_filter_.dropped_events()},
              {"duplicate_events", sw_.learning_filter_.duplicate_events()}};
    case Table::kDipPoolTable:
      return {{"versions_evicted", c.versions_evicted->value()}};
  }
  return {};
}

std::vector<asic::DigestCuckooTable::StageOccupancy> CapacityLedger::stages(
    Table table) const {
  if (table != Table::kConnTable) return {};
  return sw_.conn_table_.stage_occupancy(1);
}

std::uint64_t CapacityLedger::vip_entries(const net::Endpoint& vip) const {
  const auto* state = sw_.find_vip(vip);
  return state == nullptr
             ? 0
             : static_cast<std::uint64_t>(state->versions->total_refcount());
}

std::uint64_t CapacityLedger::vip_bytes(const net::Endpoint& vip) const {
  // Version-tracked connections (the live versions' refcounts) own their
  // ConnTable entry's share of a word, plus the VIP's live pool rows.
  const auto* state = sw_.find_vip(vip);
  if (state == nullptr) return 0;
  return asic::bits_to_bytes(vip_entries(vip) * sw_.conn_table_.entry_bits()) +
         state->versions->pool_table_bytes();
}

void CapacityLedger::bind(obs::MetricsRegistry& registry,
                          obs::TraceRing& trace) {
  registry_ = &registry;
  trace_ = &trace;
  for (std::size_t i = 0; i < kTables; ++i) {
    tracks_[i].trace_scope = trace.intern(kTableNames[i]);
  }
  for (std::size_t i = 0; i < kTables; ++i) {
    const Table table = table_at(i);
    const std::string labels =
        std::string("table=\"") + kTableNames[i] + "\"";
    registry.register_callback(
        "silkroad_capacity_occupancy", obs::MetricKind::kGauge,
        [this, table] { return read(table).occupancy; },
        "Live fill fraction of the table (0..1)", labels);
    registry.register_callback(
        "silkroad_capacity_used_entries", obs::MetricKind::kGauge,
        [this, table] { return static_cast<double>(read(table).entries); },
        "Live entries installed in the table", labels);
    registry.register_callback(
        "silkroad_capacity_headroom_entries", obs::MetricKind::kGauge,
        [this, table] {
          const Reading r = read(table);
          return r.capacity > r.entries
                     ? static_cast<double>(r.capacity - r.entries)
                     : 0.0;
        },
        "Entries still insertable before the table is full", labels);
    registry.register_callback(
        "silkroad_capacity_used_bytes", obs::MetricKind::kGauge,
        [this, table] { return static_cast<double>(bytes(table)); },
        "Live SRAM bytes the table occupies", labels);
    registry.register_callback(
        "silkroad_capacity_fragmentation", obs::MetricKind::kGauge,
        [this, table] { return fragmentation_of(stages(table)); },
        "Occupancy spread between fullest and emptiest stage (0 = even)",
        labels);
    registry.register_callback(
        "silkroad_capacity_alarm_level", obs::MetricKind::kGauge,
        [this, i] { return static_cast<double>(tracks_[i].level); },
        "Capacity alarm level as of the last poll (0=ok..3=critical)", labels);
    registry.register_callback(
        "silkroad_capacity_alarm_transitions_total", obs::MetricKind::kCounter,
        [this, i] { return static_cast<double>(tracks_[i].transitions); },
        "Alarm level crossings (raise + clear) since start", labels);
    registry.register_callback(
        "silkroad_capacity_exhaustion_s", obs::MetricKind::kGauge,
        [this, i] {
          const CapacityForecast f = tracks_[i].forecast();
          return f.valid ? f.seconds_to_full : -1.0;
        },
        "Straight-line seconds until the table is full (-1 = not filling)",
        labels);
  }
}

void CapacityLedger::add_vip(const net::Endpoint& vip) {
  if (registry_ == nullptr ||
      std::find(vips_.begin(), vips_.end(), vip) != vips_.end()) {
    return;
  }
  vips_.push_back(vip);
  const std::string labels = "vip=\"" + vip.to_string() + "\"";
  registry_->register_callback(
      "silkroad_capacity_vip_entries", obs::MetricKind::kGauge,
      [this, vip] { return static_cast<double>(vip_entries(vip)); },
      "Live ConnTable entries attributed to the VIP", labels);
  registry_->register_callback(
      "silkroad_capacity_vip_bytes", obs::MetricKind::kGauge,
      [this, vip] { return static_cast<double>(vip_bytes(vip)); },
      "SRAM bytes attributed to the VIP (ConnTable share + pool table)",
      labels);
}

void CapacityLedger::poll(sim::Time now) {
  if (trace_ != nullptr && now >= next_poll_) sample(now);
}

void CapacityLedger::sample(sim::Time now) {
  next_poll_ = now + kPollInterval;
  for (std::size_t i = 0; i < kTables; ++i) {
    tracks_[i].sample(now, read(table_at(i)).occupancy, trace_);
  }
}

std::uint64_t CapacityLedger::total_transitions() const noexcept {
  std::uint64_t total = 0;
  for (const Track& track : tracks_) total += track.transitions;
  return total;
}

CapacityLevel CapacityLedger::worst_level() const noexcept {
  CapacityLevel worst = CapacityLevel::kOk;
  for (const Track& track : tracks_) worst = std::max(worst, track.level);
  return worst;
}

std::string CapacityLedger::to_text() const {
  std::string out;
  append(out, "=== silkroad capacity ledger ===\n");
  append(out, "%-18s %-9s %7s %22s %12s %6s %12s\n", "table", "level", "occ",
         "used/capacity", "bytes", "frag", "exhaustion");
  for (std::size_t i = 0; i < table_count(); ++i) {
    const Reading r = read(table_at(i));
    const auto stage_rows = stages(table_at(i));
    const CapacityForecast forecast = tracks_[i].forecast();
    char used_cap[32];
    if (r.capacity > 0) {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64 "/%" PRIu64,
                    r.entries, r.capacity);
    } else {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64, r.entries);
    }
    char exhaustion[24];
    if (forecast.valid && forecast.seconds_to_full >= 0) {
      std::snprintf(exhaustion, sizeof exhaustion, "%.1fs",
                    forecast.seconds_to_full);
    } else {
      std::snprintf(exhaustion, sizeof exhaustion, "-");
    }
    append(out, "%-18s %-9s %6.1f%% %22s %10" PRIu64 " B %6.2f %12s\n",
           kTableNames[i], to_string(tracks_[i].level), r.occupancy * 100,
           used_cap, bytes(table_at(i)), fragmentation_of(stage_rows),
           exhaustion);
    append(out, "  pressure:");
    for (const auto& [name, value] : pressure(table_at(i))) {
      append(out, " %s=%" PRIu64, name, value);
    }
    out += "\n";
    if (!stage_rows.empty()) {
      append(out, "  stages:");
      for (const auto& stage : stage_rows) {
        const double occ =
            stage.capacity == 0
                ? 0.0
                : static_cast<double>(stage.used) /
                      static_cast<double>(stage.capacity);
        append(out, " s%u=%.1f%%", stage.stage, occ * 100);
      }
      out += "\n";
    }
  }
  if (!vips_.empty()) {
    append(out, "per-VIP attribution:\n");
    for (const auto& vip : vips_) {
      append(out, "  %-22s entries=%-8" PRIu64 " bytes=%" PRIu64 "\n",
             vip.to_string().c_str(), vip_entries(vip), vip_bytes(vip));
    }
  }
  append(out, "alarm transitions: %" PRIu64 " (worst level: %s)\n",
         total_transitions(), to_string(worst_level()));
  return out;
}

std::string CapacityLedger::to_json() const {
  std::string out = "{\"tables\":[";
  for (std::size_t i = 0; i < table_count(); ++i) {
    if (i > 0) out += ",";
    const Reading r = read(table_at(i));
    const auto stage_rows = stages(table_at(i));
    const CapacityForecast forecast = tracks_[i].forecast();
    append(out,
           "\n  {\"name\":\"%s\",\"level\":\"%s\",\"occupancy\":%s,"
           "\"entries\":%" PRIu64 ",\"capacity_entries\":%" PRIu64
           ",\"headroom_entries\":%" PRIu64 ",\"bytes\":%" PRIu64
           ",\"fragmentation\":%s,\"alarm_transitions\":%" PRIu64,
           kTableNames[i], to_string(tracks_[i].level),
           obs::format_number(r.occupancy).c_str(), r.entries, r.capacity,
           r.capacity > r.entries ? r.capacity - r.entries : 0, bytes(table_at(i)),
           obs::format_number(fragmentation_of(stage_rows)).c_str(),
           tracks_[i].transitions);
    append(out,
           ",\"forecast\":{\"valid\":%s,\"slope_per_s\":%s,"
           "\"seconds_to_full\":%s}",
           forecast.valid ? "true" : "false",
           obs::format_number(forecast.slope_per_s).c_str(),
           obs::format_number(forecast.seconds_to_full).c_str());
    out += ",\"pressure\":{";
    bool first_pressure = true;
    for (const auto& [name, value] : pressure(table_at(i))) {
      if (!first_pressure) out += ",";
      first_pressure = false;
      append(out, "\"%s\":%" PRIu64, name, value);
    }
    out += "}";
    if (!stage_rows.empty()) {
      out += ",\"stages\":[";
      for (std::size_t s = 0; s < stage_rows.size(); ++s) {
        if (s > 0) out += ",";
        append(out,
               "{\"stage\":%u,\"used\":%zu,\"capacity\":%zu}",
               stage_rows[s].stage, stage_rows[s].used, stage_rows[s].capacity);
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n],\"vips\":[";
  for (std::size_t v = 0; v < vips_.size(); ++v) {
    if (v > 0) out += ",";
    append(out,
           "\n  {\"vip\":\"%s\",\"entries\":%" PRIu64 ",\"bytes\":%" PRIu64
           "}",
           obs::json_escape(vips_[v].to_string()).c_str(),
           vip_entries(vips_[v]), vip_bytes(vips_[v]));
  }
  append(out, "\n],\"alarm_transitions_total\":%" PRIu64
              ",\"worst_level\":\"%s\"}\n",
         total_transitions(), to_string(worst_level()));
  return out;
}

}  // namespace silkroad::core
