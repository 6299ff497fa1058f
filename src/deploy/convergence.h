// Fleet convergence observatory (DESIGN.md §17): watermark-lag SLO and
// silent-divergence detection over a SilkRoadFleet.
//
// FleetObserver answers two fleet-level questions the per-switch
// InvariantAuditor cannot: how far behind the journal head each replica is,
// and whether a replica that confirmed the same history as the controller
// holds different membership. It keeps no copy of the fleet's state. Each
// evaluation reads the journal head, every switch's applied-through
// watermark and liveness, and the membership digests the fleet keeps beside
// its applied pools and desired membership (deploy/vip_digest.h). The
// observer records only what the fleet does not know: the desired digest at
// each retained journal position, positions applied out of band, the SLO
// and divergence latches, resync-session records and findings.
//
// Checkability: in-order delivery advances a switch's watermark W, while
// add_vip applies its journal position out of band without advancing W.
// The effective watermark E extends W through any contiguous run of
// out-of-band positions. A switch is compared against the desired digest at
// E only when it is live, not mid-resync, and holds no out-of-band position
// beyond E; anything else is unverifiable at the moment rather than checked
// against the wrong reference.
//
// Concurrency (DESIGN.md §13): feeds and evaluate() run on the simulation
// thread and take the fleet's mutex before the observer's; the fleet never
// calls the observer while holding its own. The scrape thread renders
// to_text()/to_json() and the bound metrics from the values cached at the
// last evaluation, under the observer's mutex alone. The divergence
// callback runs after both mutexes are released.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "check/thread_annotations.h"
#include "deploy/fleet.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace silkroad::deploy {

/// One detected silent divergence: switch `switch_index`'s applied mirror
/// digest disagreed with the controller's desired-state digest at the same
/// effective journal position.
struct DivergenceFinding {
  struct VipDelta {
    net::Endpoint vip;
    /// In desired-now but not in the switch mirror (sorted by to_string).
    std::vector<net::Endpoint> missing;
    /// In the switch mirror but not in desired-now (sorted by to_string).
    std::vector<net::Endpoint> extra;
    /// True when only this VIP's provisioning differs (present on exactly
    /// one side with equal member sets).
    bool presence_only = false;
  };
  struct SessionRecord {
    std::uint64_t session_id = 0;  ///< Resync span id (0 = none yet minted).
    int kind = 0;                  ///< FleetObserver::ResyncKind value.
    sim::Time began = 0;
    sim::Time ended = 0;  ///< 0 while still open.
  };

  std::size_t switch_index = 0;
  /// Effective watermark the mismatch was observed at.
  std::uint64_t position = 0;
  std::uint64_t expected_digest = 0;  ///< Desired-state digest at `position`.
  std::uint64_t actual_digest = 0;    ///< The switch mirror's digest.
  sim::Time at = 0;
  /// Attribution against the *current* desired state: exact at quiescence,
  /// approximate while updates past `position` are still in flight (§17).
  std::vector<VipDelta> deltas;
  /// Recent resync sessions on this switch (newest last) — the usual
  /// suspects when an apply path corrupted the mirror.
  std::vector<SessionRecord> sessions;

  std::string to_text() const;
  std::string to_json() const;
};

class FleetObserver {
 public:
  /// Lag hysteresis in journal positions: a switch becomes lagging above
  /// kLagEnter and stops lagging at or below kLagExit.
  static constexpr std::uint64_t kLagEnter = 64;
  static constexpr std::uint64_t kLagExit = 16;
  /// The SLO holds while at least this fraction of live switches is not
  /// lagging.
  static constexpr double kSloTarget = 0.99;
  /// Journal appends between periodic evaluations.
  static constexpr std::uint64_t kEvalEvery = 64;
  /// Resync-session records retained per switch for forensics.
  static constexpr std::size_t kSessionHistory = 16;

  enum class ResyncKind { kEmpty = 0, kDelta = 1, kFull = 2 };
  enum class SwitchState { kLive = 0, kDown = 1, kRestoring = 2,
                           kResyncing = 3 };

  using DivergenceCallback = std::function<void(const DivergenceFinding&)>;

  /// Observes `fleet`, which must outlive the observer. The desired-digest
  /// history retains as many positions as the fleet's journal: a switch
  /// whose effective watermark fell past the compaction horizon is
  /// unverifiable until its resync catches it up.
  explicit FleetObserver(const SilkRoadFleet& fleet);

  // --- Feeds (simulation thread, never under the fleet's mutex) -------------

  /// The controller journaled position `pos`; the desired digest after it
  /// is `desired_digest`. `applied_in_place` marks a config add_vip applied
  /// synchronously: every switch not down then holds `pos` out of band.
  /// Evaluates every kEvalEvery appends.
  void on_append(std::uint64_t pos, sim::Time now,
                 std::uint64_t desired_digest, bool applied_in_place);
  /// Switch `sw` failed: its latches and out-of-band positions reset.
  void on_switch_down(std::size_t sw, sim::Time now);
  /// A resync session opened on `sw` with the given escalation rung; the
  /// switch is not checkable until the session ends.
  void on_resync_begin(std::size_t sw, std::uint64_t session_id,
                       ResyncKind kind, sim::Time now);
  /// The session's final chunk landed; the switch is checkable again.
  void on_resync_end(std::size_t sw, std::uint64_t session_id, sim::Time now);

  /// Reads the fleet, recomputes per-switch lags, updates the SLO
  /// hysteresis and burn, records the fleet lag histogram, and runs the
  /// digest comparison on every checkable switch. Call it at quiescence
  /// before asserting.
  void evaluate(sim::Time now);

  // --- Introspection (simulation thread) ------------------------------------

  std::size_t switches() const noexcept { return fleet_.size(); }
  /// Switch `sw`'s watermark extended through out-of-band applied positions.
  std::uint64_t effective_watermark(std::size_t sw) const;
  /// Lag as of the last evaluation.
  std::uint64_t lag_positions(std::size_t sw) const;
  sim::Time lag_age(std::size_t sw) const;
  SwitchState state(std::size_t sw) const;
  /// The fleet's desired-membership digest.
  std::uint64_t desired_digest() const;
  /// XOR of switch `sw`'s applied pool digests.
  std::uint64_t switch_digest(std::size_t sw) const;

  bool slo_ok() const;
  std::uint64_t slo_transitions() const;
  sim::Time slo_burn_ns() const;
  std::uint64_t divergences() const;
  std::vector<DivergenceFinding> findings() const;
  std::uint64_t unverifiable_checks() const;

  void set_divergence_callback(DivergenceCallback cb);

  /// Registers the observer's pull metrics (lag gauges per switch, SLO
  /// state/burn/transitions, divergence and unverifiable counters) and the
  /// fleet lag histogram on `registry`.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// /fleet scrape body: lag distribution, per-switch table, SLO, alarms.
  std::string to_text() const;
  /// /fleet.json scrape body (machine-readable mirror of to_text()).
  std::string to_json() const;

 private:
  struct SwitchCell {
    std::set<std::uint64_t> oob;  ///< Out-of-band applied positions > W.
    std::uint64_t active_session = 0;  ///< 0 when no resync is open.
    std::deque<DivergenceFinding::SessionRecord> sessions;
    /// Dedup latch: one finding per divergence episode; re-arms when the
    /// digests agree again at a checkable position.
    bool divergent = false;
    bool lagging = false;  ///< SLO hysteresis state.
    // The last evaluation's reading, rendered by the scrape surface.
    SwitchState state = SwitchState::kLive;
    std::uint64_t watermark = 0;
    std::uint64_t effective = 0;
    std::uint64_t digest = 0;
    std::uint64_t lag = 0;
    sim::Time age = 0;
  };
  struct LagSummary {
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
    std::size_t live = 0;
    std::size_t lagging = 0;
  };
  struct HistoryEntry {
    std::uint64_t pos = 0;  ///< 0 while the slot was never written.
    std::uint64_t digest_after = 0;
    sim::Time appended_at = 0;
  };

  SwitchState state_locked(std::size_t sw) const SR_REQUIRES(mu_);
  std::uint64_t effective_locked(const SwitchCell& cell,
                                 std::uint64_t watermark) const
      SR_REQUIRES(mu_);
  std::uint64_t switch_digest_locked(std::size_t sw) const
      SR_REQUIRES(fleet_.mu_);
  /// History entry for `pos`, or nullptr when it is not retained.
  const HistoryEntry* entry_locked(std::uint64_t pos) const SR_REQUIRES(mu_);
  /// Desired digest at `pos`; false when compacted out of the history.
  bool digest_at_locked(std::uint64_t pos, std::uint64_t* digest) const
      SR_REQUIRES(mu_);
  /// One evaluation; returns the findings of newly diverged switches.
  std::vector<DivergenceFinding> evaluate_locked(sim::Time now)
      SR_REQUIRES(mu_, fleet_.mu_);
  /// Compares switch `sw` (just read by evaluate_locked) if checkable;
  /// fills `finding` and returns true on a fresh mismatch.
  bool check_switch_locked(std::size_t sw, sim::Time now,
                           DivergenceFinding* finding)
      SR_REQUIRES(mu_, fleet_.mu_);
  void attribute_locked(std::size_t sw, DivergenceFinding* finding) const
      SR_REQUIRES(fleet_.mu_);
  /// Lag order statistics over the non-down switches' cached readings.
  LagSummary lag_summary_locked() const SR_REQUIRES(mu_);
  void fire(const std::vector<DivergenceFinding>& findings) const;

  const SilkRoadFleet& fleet_;

  mutable sr::Mutex mu_;
  std::vector<SwitchCell> cells_ SR_GUARDED_BY(mu_);
  /// Desired digest per journal position; position p lives in slot
  /// p % size(), so the ring retains the newest size() positions.
  std::vector<HistoryEntry> history_ SR_GUARDED_BY(mu_);
  std::uint64_t appends_ SR_GUARDED_BY(mu_) = 0;
  // The last evaluation's fleet-wide reading, for the scrape surface.
  std::uint64_t head_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t desired_ SR_GUARDED_BY(mu_) = 0;

  // SLO.
  bool slo_ok_ SR_GUARDED_BY(mu_) = true;
  std::uint64_t slo_transitions_ SR_GUARDED_BY(mu_) = 0;
  sim::Time slo_burn_ns_ SR_GUARDED_BY(mu_) = 0;
  sim::Time last_eval_ SR_GUARDED_BY(mu_) = 0;
  double lagging_fraction_ SR_GUARDED_BY(mu_) = 0.0;

  // Divergence accounting.
  std::vector<DivergenceFinding> findings_ SR_GUARDED_BY(mu_);
  std::uint64_t divergences_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t unverifiable_ SR_GUARDED_BY(mu_) = 0;

  obs::Histogram* h_lag_ = nullptr;  ///< Bound fleet lag histogram.
  DivergenceCallback divergence_cb_;
};

}  // namespace silkroad::deploy
