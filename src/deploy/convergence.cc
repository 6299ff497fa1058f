#include "deploy/convergence.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/exporters.h"

namespace silkroad::deploy {

namespace {

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

const char* state_name(FleetObserver::SwitchState s) {
  switch (s) {
    case FleetObserver::SwitchState::kLive:
      return "live";
    case FleetObserver::SwitchState::kDown:
      return "down";
    case FleetObserver::SwitchState::kRestoring:
      return "restoring";
    case FleetObserver::SwitchState::kResyncing:
      return "resyncing";
  }
  return "?";
}

const char* kind_name(int kind) {
  switch (static_cast<FleetObserver::ResyncKind>(kind)) {
    case FleetObserver::ResyncKind::kEmpty:
      return "empty";
    case FleetObserver::ResyncKind::kDelta:
      return "delta";
    case FleetObserver::ResyncKind::kFull:
      return "full";
  }
  return "?";
}

}  // namespace

// --- DivergenceFinding -------------------------------------------------------

std::string DivergenceFinding::to_text() const {
  std::string out;
  append(out,
         "=== silent divergence ===\n"
         "switch: %zu\n"
         "position: %" PRIu64 " (effective watermark; digests compared at "
         "equal history)\n"
         "expected digest: 0x%016" PRIx64 "\n"
         "actual digest:   0x%016" PRIx64 "\n"
         "detected at: %.6f s sim time\n",
         switch_index, position, expected_digest, actual_digest,
         sim::to_seconds(at));
  append(out, "per-VIP attribution (vs current desired state; exact at "
              "quiescence):\n");
  if (deltas.empty()) {
    out += "  (none — digests differ but memberships reconverged since)\n";
  }
  for (const auto& delta : deltas) {
    append(out, "  vip %s%s\n", delta.vip.to_string().c_str(),
           delta.presence_only ? " [provisioning differs]" : "");
    for (const auto& dip : delta.missing) {
      append(out, "    missing %s\n", dip.to_string().c_str());
    }
    for (const auto& dip : delta.extra) {
      append(out, "    extra   %s\n", dip.to_string().c_str());
    }
  }
  append(out, "recent resync sessions on this switch: %zu\n",
         sessions.size());
  for (const auto& s : sessions) {
    append(out, "  session#%" PRIu64 " kind=%s began=%.6fs %s\n",
           s.session_id, kind_name(s.kind), sim::to_seconds(s.began),
           s.ended == 0
               ? "(open)"
               : ("ended=" + std::to_string(sim::to_seconds(s.ended)) + "s")
                     .c_str());
  }
  return out;
}

std::string DivergenceFinding::to_json() const {
  std::string out;
  append(out,
         "{\"switch\":%zu,\"position\":%" PRIu64
         ",\"expected_digest\":\"0x%016" PRIx64
         "\",\"actual_digest\":\"0x%016" PRIx64 "\",\"at_ns\":%" PRIu64,
         switch_index, position, expected_digest, actual_digest, at);
  out += ",\"deltas\":[";
  bool first = true;
  for (const auto& delta : deltas) {
    if (!first) out += ",";
    first = false;
    append(out, "{\"vip\":\"%s\",\"presence_only\":%s,\"missing\":[",
           obs::json_escape(delta.vip.to_string()).c_str(),
           delta.presence_only ? "true" : "false");
    for (std::size_t i = 0; i < delta.missing.size(); ++i) {
      append(out, "%s\"%s\"", i == 0 ? "" : ",",
             obs::json_escape(delta.missing[i].to_string()).c_str());
    }
    out += "],\"extra\":[";
    for (std::size_t i = 0; i < delta.extra.size(); ++i) {
      append(out, "%s\"%s\"", i == 0 ? "" : ",",
             obs::json_escape(delta.extra[i].to_string()).c_str());
    }
    out += "]}";
  }
  out += "],\"sessions\":[";
  first = true;
  for (const auto& s : sessions) {
    if (!first) out += ",";
    first = false;
    append(out,
           "{\"session_id\":%" PRIu64 ",\"kind\":\"%s\",\"began_ns\":%" PRIu64
           ",\"ended_ns\":%" PRIu64 "}",
           s.session_id, kind_name(s.kind), s.began, s.ended);
  }
  out += "]}";
  return out;
}

// --- FleetObserver -----------------------------------------------------------

FleetObserver::FleetObserver(const SilkRoadFleet& fleet)
    : fleet_(fleet) {
  const sr::MutexLock lock(mu_);
  cells_.resize(fleet.size());
  history_.resize(std::max<std::size_t>(1, fleet.sync_config().journal_capacity));
}

// --- Feeds -------------------------------------------------------------------

void FleetObserver::on_append(std::uint64_t pos, sim::Time now,
                              std::uint64_t desired_digest,
                              bool applied_in_place) {
  bool due = false;
  {
    const sr::MutexLock lock(mu_);
    history_[pos % history_.size()] = {pos, desired_digest, now};
    if (applied_in_place) {
      for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
        if (state_locked(sw) != SwitchState::kDown) cells_[sw].oob.insert(pos);
      }
    }
    due = ++appends_ % kEvalEvery == 0;
  }
  if (due) evaluate(now);
}

void FleetObserver::on_switch_down(std::size_t sw, sim::Time now) {
  {
    const sr::MutexLock lock(mu_);
    SwitchCell& cell = cells_.at(sw);
    cell.oob.clear();
    cell.active_session = 0;
    cell.divergent = false;
    cell.lagging = false;
  }
  evaluate(now);  // The live set changed.
}

void FleetObserver::on_resync_begin(std::size_t sw, std::uint64_t session_id,
                                    ResyncKind kind, sim::Time now) {
  const sr::MutexLock lock(mu_);
  SwitchCell& cell = cells_.at(sw);
  cell.active_session = session_id;
  cell.sessions.push_back({session_id, static_cast<int>(kind), now, 0});
  while (cell.sessions.size() > kSessionHistory) cell.sessions.pop_front();
}

void FleetObserver::on_resync_end(std::size_t sw, std::uint64_t session_id,
                                  sim::Time now) {
  {
    const sr::MutexLock lock(mu_);
    SwitchCell& cell = cells_.at(sw);
    // A newer session won; its own end makes the switch checkable.
    if (cell.active_session != session_id || cell.sessions.empty()) return;
    cell.active_session = 0;
    cell.sessions.back().ended = now;
  }
  evaluate(now);
}

// --- Reading the fleet -------------------------------------------------------

FleetObserver::SwitchState FleetObserver::state_locked(std::size_t sw) const {
  // alive_/restoring_ are simulation-thread state, like every caller here.
  if (fleet_.restoring_[sw]) return SwitchState::kRestoring;
  if (!fleet_.alive_[sw]) return SwitchState::kDown;
  return cells_[sw].active_session != 0 ? SwitchState::kResyncing
                                        : SwitchState::kLive;
}

std::uint64_t FleetObserver::effective_locked(const SwitchCell& cell,
                                              std::uint64_t watermark) const {
  std::uint64_t effective = watermark;
  for (const std::uint64_t pos : cell.oob) {
    if (pos <= effective) continue;
    if (pos != effective + 1) break;
    effective = pos;
  }
  return effective;
}

std::uint64_t FleetObserver::switch_digest_locked(std::size_t sw) const {
  std::uint64_t digest = 0;
  for (const auto& [vip, pool] : fleet_.applied_[sw]) digest ^= pool.digest();
  return digest;
}

const FleetObserver::HistoryEntry* FleetObserver::entry_locked(
    std::uint64_t pos) const {
  const HistoryEntry& entry = history_[pos % history_.size()];
  return entry.pos == pos ? &entry : nullptr;
}

bool FleetObserver::digest_at_locked(std::uint64_t pos,
                                     std::uint64_t* digest) const {
  if (pos == 0) {
    // Before the first journaled mutation the desired state is empty —
    // unless history already scrolled past position 1.
    *digest = 0;
    return head_ <= history_.size();
  }
  const HistoryEntry* entry = entry_locked(pos);
  if (entry == nullptr) return false;
  *digest = entry->digest_after;
  return true;
}

// --- Evaluation --------------------------------------------------------------

std::vector<DivergenceFinding> FleetObserver::evaluate_locked(sim::Time now) {
  head_ = fleet_.journal_.head_pos();
  desired_ = fleet_.desired_digest_;
  std::size_t live = 0;
  std::size_t lagging = 0;
  std::vector<DivergenceFinding> fired;
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    SwitchCell& cell = cells_[sw];
    cell.state = state_locked(sw);
    cell.watermark = fleet_.applied_through_[sw];
    cell.digest = switch_digest_locked(sw);
    cell.oob.erase(cell.oob.begin(), cell.oob.upper_bound(cell.watermark));
    cell.effective = effective_locked(cell, cell.watermark);
    if (cell.state == SwitchState::kDown) {
      cell.lag = 0;
      cell.age = 0;
      continue;
    }
    ++live;
    cell.lag = head_ > cell.effective ? head_ - cell.effective : 0;
    cell.age = 0;
    if (cell.lag != 0) {
      // Age of the oldest unapplied mutation. When it predates the retained
      // history the oldest retained entry's timestamp is a lower bound.
      const std::uint64_t oldest =
          head_ >= history_.size() ? head_ - history_.size() + 1 : 1;
      const HistoryEntry* entry =
          entry_locked(std::max(cell.effective + 1, oldest));
      if (entry != nullptr && now > entry->appended_at) {
        cell.age = now - entry->appended_at;
      }
    }
    if (cell.lagging) {
      if (cell.lag <= kLagExit) cell.lagging = false;
    } else {
      if (cell.lag > kLagEnter) cell.lagging = true;
    }
    if (cell.lagging) ++lagging;
    if (h_lag_ != nullptr) h_lag_->record(cell.lag);
    DivergenceFinding finding;
    if (check_switch_locked(sw, now, &finding)) {
      fired.push_back(std::move(finding));
    }
  }
  lagging_fraction_ = live == 0 ? 0.0
                                : static_cast<double>(lagging) /
                                      static_cast<double>(live);
  const bool ok =
      live == 0 ||
      (static_cast<double>(live - lagging) / static_cast<double>(live)) >=
          kSloTarget;
  if (!slo_ok_ && now > last_eval_) slo_burn_ns_ += now - last_eval_;
  if (ok != slo_ok_) ++slo_transitions_;
  slo_ok_ = ok;
  last_eval_ = std::max(last_eval_, now);
  return fired;
}

bool FleetObserver::check_switch_locked(std::size_t sw, sim::Time now,
                                        DivergenceFinding* finding) {
  SwitchCell& cell = cells_[sw];
  // Every out-of-band position must lie inside the contiguous extension.
  if (cell.state != SwitchState::kLive ||
      (!cell.oob.empty() && *cell.oob.rbegin() > cell.effective)) {
    return false;
  }
  std::uint64_t expected = 0;
  if (!digest_at_locked(cell.effective, &expected)) {
    ++unverifiable_;  // Compacted past retention; catches up or stays flagged.
    return false;
  }
  if (cell.digest == expected) {
    cell.divergent = false;  // Re-arm the episode latch.
    return false;
  }
  if (cell.divergent) return false;  // Already reported this episode.
  cell.divergent = true;
  ++divergences_;
  finding->switch_index = sw;
  finding->position = cell.effective;
  finding->expected_digest = expected;
  finding->actual_digest = cell.digest;
  finding->at = now;
  attribute_locked(sw, finding);
  finding->sessions.assign(cell.sessions.begin(), cell.sessions.end());
  findings_.push_back(*finding);
  return true;
}

void FleetObserver::attribute_locked(std::size_t sw,
                                     DivergenceFinding* finding) const {
  // Diff the switch's applied pools against the *current* desired
  // membership. At quiescence the two references are the same; mid-stream
  // the attribution may include in-flight churn (§17).
  const auto& desired = fleet_.membership_;
  const auto& applied = fleet_.applied_[sw];
  std::vector<net::Endpoint> vips;
  for (const auto& [vip, dips] : desired) vips.push_back(vip);
  for (const auto& [vip, pool] : applied) {
    if (!desired.contains(vip)) vips.push_back(vip);
  }
  std::sort(vips.begin(), vips.end());
  for (const auto& vip : vips) {
    const auto want = desired.find(vip);
    const auto have = applied.find(vip);
    const bool wanted = want != desired.end();
    const bool had = have != applied.end();
    DivergenceFinding::VipDelta delta;
    delta.vip = vip;
    if (wanted) {
      for (const auto& dip : want->second) {
        if (!had || !have->second.contains(dip)) delta.missing.push_back(dip);
      }
    }
    if (had) {
      for (const auto& dip : have->second.dips()) {
        if (!wanted || std::find(want->second.begin(), want->second.end(),
                                 dip) == want->second.end()) {
          delta.extra.push_back(dip);
        }
      }
    }
    std::sort(delta.missing.begin(), delta.missing.end());
    std::sort(delta.extra.begin(), delta.extra.end());
    delta.presence_only =
        delta.missing.empty() && delta.extra.empty() && wanted != had;
    if (!delta.missing.empty() || !delta.extra.empty() ||
        delta.presence_only) {
      finding->deltas.push_back(std::move(delta));
    }
  }
}

void FleetObserver::fire(const std::vector<DivergenceFinding>& findings) const {
  if (!divergence_cb_) return;
  for (const auto& finding : findings) divergence_cb_(finding);
}

void FleetObserver::evaluate(sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock fleet_lock(fleet_.mu_);
    const sr::MutexLock lock(mu_);
    fired = evaluate_locked(now);
  }
  fire(fired);
}

// --- Introspection -----------------------------------------------------------

std::uint64_t FleetObserver::effective_watermark(std::size_t sw) const {
  const sr::MutexLock fleet_lock(fleet_.mu_);
  const sr::MutexLock lock(mu_);
  return effective_locked(cells_.at(sw), fleet_.applied_through_.at(sw));
}

std::uint64_t FleetObserver::lag_positions(std::size_t sw) const {
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).lag;
}

sim::Time FleetObserver::lag_age(std::size_t sw) const {
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).age;
}

FleetObserver::SwitchState FleetObserver::state(std::size_t sw) const {
  const sr::MutexLock lock(mu_);
  return state_locked(sw);
}

std::uint64_t FleetObserver::desired_digest() const {
  const sr::MutexLock fleet_lock(fleet_.mu_);
  return fleet_.desired_digest_;
}

std::uint64_t FleetObserver::switch_digest(std::size_t sw) const {
  const sr::MutexLock fleet_lock(fleet_.mu_);
  return switch_digest_locked(sw);
}

bool FleetObserver::slo_ok() const {
  const sr::MutexLock lock(mu_);
  return slo_ok_;
}

std::uint64_t FleetObserver::slo_transitions() const {
  const sr::MutexLock lock(mu_);
  return slo_transitions_;
}

sim::Time FleetObserver::slo_burn_ns() const {
  const sr::MutexLock lock(mu_);
  return slo_burn_ns_;
}

std::uint64_t FleetObserver::divergences() const {
  const sr::MutexLock lock(mu_);
  return divergences_;
}

std::vector<DivergenceFinding> FleetObserver::findings() const {
  const sr::MutexLock lock(mu_);
  return findings_;
}

std::uint64_t FleetObserver::unverifiable_checks() const {
  const sr::MutexLock lock(mu_);
  return unverifiable_;
}

void FleetObserver::set_divergence_callback(DivergenceCallback cb) {
  divergence_cb_ = std::move(cb);
}

void FleetObserver::bind_metrics(obs::MetricsRegistry& registry) {
  using obs::MetricKind;
  registry.register_callback(
      "silkroad_fleet_journal_lag_slo_ok", MetricKind::kGauge,
      [this] {
        const sr::MutexLock lock(mu_);
        return slo_ok_ ? 1.0 : 0.0;
      },
      "1 while the convergence SLO holds (lagging fraction within target)");
  registry.register_callback(
      "silkroad_fleet_lagging_fraction", MetricKind::kGauge,
      [this] {
        const sr::MutexLock lock(mu_);
        return lagging_fraction_;
      },
      "Fraction of live switches currently in the lagging hysteresis state");
  registry.register_callback(
      "silkroad_fleet_slo_burn_ns_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(slo_burn_ns_);
      },
      "Sim-time nanoseconds spent with the convergence SLO violated");
  registry.register_callback(
      "silkroad_fleet_slo_transitions_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(slo_transitions_);
      },
      "Convergence SLO ok<->violated flips");
  registry.register_callback(
      "silkroad_fleet_divergences_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(divergences_);
      },
      "Silent divergences detected (digest mismatch at equal watermark)");
  registry.register_callback(
      "silkroad_fleet_unverifiable_checks_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(unverifiable_);
      },
      "Digest checks skipped because history was compacted past the "
      "switch's watermark");
  h_lag_ = registry.histogram(
      "silkroad_fleet_lag_positions",
      "Per-switch watermark lag in journal positions, recorded per "
      "evaluation");
  for (std::size_t sw = 0; sw < switches(); ++sw) {
    const std::string labels = "switch=\"" + std::to_string(sw) + "\"";
    registry.register_callback(
        "silkroad_fleet_switch_lag_positions", MetricKind::kGauge,
        [this, sw] {
          const sr::MutexLock lock(mu_);
          return static_cast<double>(cells_[sw].lag);
        },
        "Journal positions between the head and this switch's effective "
        "watermark",
        labels);
    registry.register_callback(
        "silkroad_fleet_switch_lag_age_ns", MetricKind::kGauge,
        [this, sw] {
          const sr::MutexLock lock(mu_);
          return static_cast<double>(cells_[sw].age);
        },
        "Sim-time age of this switch's oldest unapplied journal mutation",
        labels);
  }
}

// --- Rendering ---------------------------------------------------------------
// Both renderings may run on the scrape thread: they read only the values
// cached by the last evaluation, never the fleet.

FleetObserver::LagSummary FleetObserver::lag_summary_locked() const {
  LagSummary summary;
  std::vector<std::uint64_t> lags;
  for (const SwitchCell& cell : cells_) {
    if (cell.state == SwitchState::kDown) continue;
    lags.push_back(cell.lag);
    if (cell.lagging) ++summary.lagging;
  }
  summary.live = lags.size();
  if (lags.empty()) return summary;
  std::sort(lags.begin(), lags.end());
  const auto quantile = [&lags](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(lags.size() - 1) + 0.5);
    return lags[std::min(idx, lags.size() - 1)];
  };
  summary.p50 = quantile(0.50);
  summary.p99 = quantile(0.99);
  summary.max = lags.back();
  return summary;
}

std::string FleetObserver::to_text() const {
  const sr::MutexLock lock(mu_);
  const LagSummary lag = lag_summary_locked();
  std::string out;
  out += "=== fleet convergence observatory (DESIGN.md \xC2\xA7"
         "17) ===\n";
  append(out, "journal head: %" PRIu64 "\n", head_);
  append(out,
         "lag positions: p50=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64
         " (over %zu live switches)\n",
         lag.p50, lag.p99, lag.max, lag.live);
  append(out,
         "slo: %s (target %.2f%% within enter=%" PRIu64 "/exit=%" PRIu64
         " positions; lagging %zu/%zu)\n",
         slo_ok_ ? "ok" : "VIOLATED", 100.0 * kSloTarget, kLagEnter,
         kLagExit, lag.lagging, lag.live);
  append(out, "slo burn: %.6f s over %" PRIu64 " transition(s)\n",
         sim::to_seconds(slo_burn_ns_), slo_transitions_);
  append(out, "digests: desired=0x%016" PRIx64 " unverifiable=%" PRIu64 "\n",
         desired_, unverifiable_);
  append(out, "divergences: %" PRIu64 "%s\n", divergences_,
         divergences_ == 0 ? "" : "  << SILENT DIVERGENCE");
  out += "switch  state      watermark  effective  lag  age_ms   digest"
         "              resync\n";
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const SwitchCell& cell = cells_[sw];
    std::string resync = "-";
    if (!cell.sessions.empty()) {
      const auto& last = cell.sessions.back();
      resync = std::string(kind_name(last.kind)) +
               (last.ended == 0 ? " (open)" : "");
    }
    append(out,
           "%-7zu %-10s %-10" PRIu64 " %-10" PRIu64 " %-4" PRIu64
           " %-8.3f 0x%016" PRIx64 "  %s%s\n",
           sw, state_name(cell.state), cell.watermark, cell.effective,
           cell.lag, static_cast<double>(cell.age) / 1e6, cell.digest,
           resync.c_str(), cell.divergent ? "  DIVERGED" : "");
  }
  for (const auto& finding : findings_) {
    out += "\n";
    out += finding.to_text();
  }
  return out;
}

std::string FleetObserver::to_json() const {
  const sr::MutexLock lock(mu_);
  const LagSummary lag = lag_summary_locked();
  std::string out;
  append(out, "{\"journal_head\":%" PRIu64, head_);
  append(out,
         ",\"lag\":{\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64
         ",\"live\":%zu,\"lagging\":%zu}",
         lag.p50, lag.p99, lag.max, lag.live, lag.lagging);
  append(out,
         ",\"slo\":{\"ok\":%s,\"target\":%s,\"lag_enter\":%" PRIu64
         ",\"lag_exit\":%" PRIu64 ",\"burn_ns\":%" PRIu64
         ",\"transitions\":%" PRIu64 "}",
         slo_ok_ ? "true" : "false", obs::format_number(kSloTarget).c_str(),
         kLagEnter, kLagExit, slo_burn_ns_, slo_transitions_);
  append(out,
         ",\"digest\":{\"desired\":\"0x%016" PRIx64
         "\",\"unverifiable\":%" PRIu64 "}",
         desired_, unverifiable_);
  append(out, ",\"divergences\":%" PRIu64, divergences_);
  out += ",\"switches\":[";
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const SwitchCell& cell = cells_[sw];
    if (sw != 0) out += ",";
    append(out,
           "\n  {\"index\":%zu,\"state\":\"%s\",\"watermark\":%" PRIu64
           ",\"effective_watermark\":%" PRIu64 ",\"lag_positions\":%" PRIu64
           ",\"lag_age_ns\":%" PRIu64 ",\"digest\":\"0x%016" PRIx64
           "\",\"lagging\":%s,\"divergent\":%s",
           sw, state_name(cell.state), cell.watermark, cell.effective,
           cell.lag, cell.age, cell.digest, cell.lagging ? "true" : "false",
           cell.divergent ? "true" : "false");
    out += ",\"sessions\":[";
    for (std::size_t i = 0; i < cell.sessions.size(); ++i) {
      const auto& s = cell.sessions[i];
      if (i != 0) out += ",";
      append(out,
             "{\"session_id\":%" PRIu64 ",\"kind\":\"%s\",\"began_ns\":%"
             PRIu64 ",\"ended_ns\":%" PRIu64 "}",
             s.session_id, kind_name(s.kind), s.began, s.ended);
    }
    out += "]}";
  }
  out += "\n],\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n  " + findings_[i].to_json();
  }
  out += "\n]}\n";
  return out;
}

}  // namespace silkroad::deploy
