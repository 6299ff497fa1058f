// Per-pipeline-stage profiling hooks (DESIGN.md §9).
//
// A PISA pipeline's cost structure is per-stage: each stage sees every
// packet, matches or misses its tables, and contributes a fixed slice of the
// pipeline latency. The profiler materializes that as labeled registry
// series — `<prefix>_stage_packets_total{stage="2"}` etc. — so a snapshot
// answers "which stage is the bottleneck" directly. Handles are resolved
// once at construction; the per-event cost is one relaxed counter increment.
//
// Timing scopes: enter()/exit() bracket a stage's latency charge. A nested
// enter() on an already-open stage would double-charge the stage sum, so it
// is counted in `<prefix>_profiler_reentry_total{stage="i"}` and ignored —
// the open scope keeps its single charge. The open flags are plain bools:
// a StageProfiler instance's scopes belong to one data-plane thread at a
// time (the counters underneath remain thread-safe).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace silkroad::obs {

class StageProfiler {
 public:
  /// Registers packets/hits/misses/latency series for `stages` stages under
  /// `prefix` (e.g. "silkroad_conn_table") in `registry`.
  StageProfiler(MetricsRegistry& registry, const std::string& prefix,
                std::size_t stages);

  std::size_t stages() const noexcept { return stages_.size(); }

  /// One lookup probe at `stage`: the stage examined the packet and hit or
  /// missed its table.
  void record_lookup(std::size_t stage, bool hit) noexcept {
    if (stage >= stages_.size()) return;
    stages_[stage].packets->inc();
    (hit ? stages_[stage].hits : stages_[stage].misses)->inc();
  }

  /// Modeled processing latency charged to `stage`, in nanoseconds.
  void add_latency(std::size_t stage, std::uint64_t ns) noexcept {
    if (stage >= stages_.size()) return;
    stages_[stage].latency_ns->inc(ns);
  }

  /// Opens a timing scope on `stage`. Returns false — and bumps the
  /// re-entry counter — when the stage is already open (nested enter without
  /// exit), so a buggy caller skews a diagnostic counter instead of the
  /// stage sums.
  bool enter(std::size_t stage) noexcept {
    if (stage >= stages_.size()) return false;
    Stage& s = stages_[stage];
    if (s.open) {
      s.reentries->inc();
      return false;
    }
    s.open = true;
    return true;
  }

  /// Closes the scope opened by enter() and charges `ns` to the stage.
  /// An exit without a matching open scope is ignored.
  void exit(std::size_t stage, std::uint64_t ns) noexcept {
    if (stage >= stages_.size()) return;
    Stage& s = stages_[stage];
    if (!s.open) return;
    s.open = false;
    s.latency_ns->inc(ns);
  }

 private:
  struct Stage {
    Counter* packets = nullptr;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* latency_ns = nullptr;
    Counter* reentries = nullptr;
    bool open = false;
  };
  std::vector<Stage> stages_;
};

}  // namespace silkroad::obs
