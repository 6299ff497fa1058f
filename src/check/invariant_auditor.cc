#include "check/invariant_auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>
#include <utility>

#include "asic/sram.h"
#include "check/sr_check.h"
#include "net/hash.h"
#include "obs/forensics.h"
#include "obs/trace.h"

namespace silkroad::check {

namespace {

using core::SilkRoadSwitch;

std::string flow_str(const net::FiveTuple& flow) {
  return flow.src.to_string() + "->" + flow.dst.to_string();
}

Violation make(std::string invariant, std::string detail,
               std::optional<net::Endpoint> vip = std::nullopt,
               std::optional<std::uint32_t> version = std::nullopt) {
  Violation v{std::move(invariant), std::move(detail), {}, version};
  if (vip) v.vip = vip->to_string();
  return v;
}

// Cheap hash of an endpoint's words: the census resolves every entry's
// `dst` through it, where find_vip would run an FNV pass over the bytes.
struct EndpointMix {
  std::size_t operator()(const net::Endpoint& ep) const noexcept {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::memcpy(&hi, ep.ip.bytes().data(), sizeof hi);
    std::memcpy(&lo, ep.ip.bytes().data() + sizeof hi, sizeof lo);
    return static_cast<std::size_t>(net::mix64(hi ^ net::mix64(lo ^ ep.port)));
  }
};

}  // namespace

struct InvariantAuditor::Census {
  /// Connections of one (VIP, version), by where they live.
  struct Tally {
    std::int64_t installed = 0;
    std::int64_t pending = 0;   ///< learned, not finished
    std::int64_t finished = 0;  ///< pending, FIN already seen
    std::int64_t degraded = 0;
    bool live = false;  ///< the version has a pool
    bool free = false;  ///< the version is in the recycling ring
    std::int64_t total() const noexcept {
      return installed + pending + finished + degraded;
    }
  };
  struct VipRow {
    net::Endpoint vip;
    const core::VipVersionManager* versions = nullptr;
    /// Indexed by version number, one per number in the version space.
    std::vector<Tally> tallies;
  };
  std::vector<VipRow> rows;
  std::unordered_map<net::Endpoint, std::size_t, EndpointMix> row_of;
  /// Occupied ConnTable slots.
  std::size_t used_slots = 0;
  /// Flows (with their version) whose `dst` is no configured VIP or whose
  /// version lies outside the VIP's version space, by where they live.
  using Orphan = std::pair<net::FiveTuple, std::uint32_t>;
  std::vector<Orphan> orphan_entries;
  std::vector<Orphan> orphan_pending;  ///< unfinished only
  std::vector<Orphan> orphan_degraded;
  /// Flows counted twice: pending or degraded while also installed, or
  /// degraded while also pending.
  std::vector<net::FiveTuple> double_counted;

  /// The tally `flow` counts toward, or nullptr for an orphan.
  Tally* tally(const net::FiveTuple& flow, std::uint32_t version) {
    const auto it = row_of.find(flow.dst);
    if (it == row_of.end()) return nullptr;
    auto& tallies = rows[it->second].tallies;
    return version < tallies.size() ? &tallies[version] : nullptr;
  }
};

InvariantAuditor::Census InvariantAuditor::take_census() const {
  Census census;
  census.rows.reserve(sw_.vips_.size());
  for (const auto& [vip, state] : sw_.vips_) {
    const auto& mgr = *state.versions;
    Census::VipRow row{vip, &mgr,
                       std::vector<Census::Tally>(mgr.version_capacity())};
    for (const std::uint32_t version : mgr.live_versions()) {
      if (version < row.tallies.size()) row.tallies[version].live = true;
    }
    for (const std::uint32_t version : mgr.free_versions()) {
      if (version < row.tallies.size()) row.tallies[version].free = true;
    }
    census.row_of.emplace(vip, census.rows.size());
    census.rows.push_back(std::move(row));
  }

  sw_.conn_table_.for_each_entry(
      [&](const net::FiveTuple& flow, std::uint64_t, std::uint32_t version) {
        ++census.used_slots;
        if (auto* tally = census.tally(flow, version)) {
          ++tally->installed;
        } else {
          census.orphan_entries.emplace_back(flow, version);
        }
      });
  for (const auto& [key, info] : sw_.pending_) {
    if (auto* tally = census.tally(key.tuple, info.version)) {
      ++(info.dead ? tally->finished : tally->pending);
    } else if (!info.dead) {
      census.orphan_pending.emplace_back(key.tuple, info.version);
    }
    // The pending key carries its hash: this probe hashes nothing.
    if (sw_.conn_table_.contains(key)) {
      census.double_counted.push_back(key.tuple);
    }
  }
  for (const auto& [flow, version] : sw_.degraded_flows_) {
    if (auto* tally = census.tally(flow, version)) {
      ++tally->degraded;
    } else {
      census.orphan_degraded.emplace_back(flow, version);
    }
    // Degraded pins exist only under shed/degraded admission; hashing each
    // one here is off the common path.
    const net::FlowKey key(flow);
    if (sw_.pending_.contains(key) || sw_.conn_table_.contains(key)) {
      census.double_counted.push_back(flow);
    }
  }
  return census;
}

std::vector<Violation> InvariantAuditor::audit() const {
  const Census census = take_census();
  std::vector<Violation> out;
  check_version_liveness(census, out);
  check_refcounts(census, out);
  check_version_recycling(census, out);
  check_transit_window(out);
  check_sram_accounting(census, out);
  check_dip_pool_coverage(census, out);
  return out;
}

void InvariantAuditor::check_version_liveness(
    const Census& census, std::vector<Violation>& out) const {
  for (const auto& [flow, version] : census.orphan_pending) {
    out.push_back(make("version-liveness",
                       "pending flow " + flow_str(flow) + " (version " +
                           std::to_string(version) +
                           ") references an unknown VIP or version",
                       flow.dst, version));
  }
  for (const auto& [flow, version] : census.orphan_degraded) {
    out.push_back(make("version-liveness",
                       "degraded flow " + flow_str(flow) + " (version " +
                           std::to_string(version) +
                           ") is pinned to an unknown VIP or version",
                       flow.dst, version));
  }
  for (const auto& row : census.rows) {
    for (std::uint32_t version = 0; version < row.tallies.size(); ++version) {
      const auto& tally = row.tallies[version];
      if (tally.live) continue;
      if (tally.pending > 0) {
        out.push_back(make("version-liveness",
                           "vip " + row.vip.to_string() + ": " +
                               std::to_string(tally.pending) +
                               " pending flows hold version " +
                               std::to_string(version) +
                               " which has no live pool",
                           row.vip, version));
      }
      if (tally.degraded > 0) {
        out.push_back(make("version-liveness",
                           "vip " + row.vip.to_string() + ": " +
                               std::to_string(tally.degraded) +
                               " degraded flows are pinned to version " +
                               std::to_string(version) +
                               " which has no live pool",
                           row.vip, version));
      }
    }
  }
}

void InvariantAuditor::check_refcounts(const Census& census,
                                       std::vector<Violation>& out) const {
  for (const auto& row : census.rows) {
    for (std::uint32_t version = 0; version < row.tallies.size(); ++version) {
      const auto& tally = row.tallies[version];
      if (tally.live) {
        const std::int64_t counted = row.versions->refcount(version);
        if (counted != tally.total()) {
          out.push_back(make(
              "refcount-match",
              "vip " + row.vip.to_string() + " version " +
                  std::to_string(version) + " refcount " +
                  std::to_string(counted) + " != " +
                  std::to_string(tally.total()) + " connections (" +
                  std::to_string(tally.installed) + " installed, " +
                  std::to_string(tally.pending + tally.finished) +
                  " pending, " + std::to_string(tally.degraded) +
                  " degraded)",
              row.vip, version));
        }
      } else if (tally.finished > 0) {
        // A finished pending flow still owes its version a release; that
        // release must not land on whatever pool the number goes to next.
        out.push_back(make(
            "refcount-match",
            "vip " + row.vip.to_string() + ": " +
                std::to_string(tally.finished) +
                " finished pending flows hold destroyed version " +
                std::to_string(version),
            row.vip, version));
      }
    }
  }
  for (const auto& flow : census.double_counted) {
    out.push_back(make("refcount-match",
                       "flow " + flow_str(flow) +
                           " is counted twice across ConnTable, pending and "
                           "degraded state",
                       flow.dst));
  }
}

void InvariantAuditor::check_version_recycling(
    const Census& census, std::vector<Violation>& out) const {
  for (const auto& row : census.rows) {
    const net::Endpoint& vip = row.vip;
    const auto& mgr = *row.versions;
    auto free = mgr.free_versions();
    const auto live = mgr.live_versions();

    std::sort(free.begin(), free.end());
    if (std::adjacent_find(free.begin(), free.end()) != free.end()) {
      out.push_back(make("version-recycling",
                         "vip " + vip.to_string() +
                             " has duplicate entries in the free ring",
                         vip));
    }
    for (const std::uint32_t version : live) {
      if (std::binary_search(free.begin(), free.end(), version)) {
        out.push_back(make("version-recycling",
                           "vip " + vip.to_string() + " version " +
                               std::to_string(version) +
                               " is simultaneously live and free",
                           vip, version));
      }
    }
    if (free.size() + live.size() != mgr.version_capacity()) {
      out.push_back(make(
          "version-recycling",
          "vip " + vip.to_string() + " leaks version numbers: " +
              std::to_string(free.size()) + " free + " +
              std::to_string(live.size()) + " live != capacity " +
              std::to_string(mgr.version_capacity()),
          vip));
    }
    // §4.4: a recycled version must never still be referenced.
    for (std::uint32_t version = 0; version < row.tallies.size(); ++version) {
      const auto& tally = row.tallies[version];
      if (tally.free && tally.total() > 0) {
        out.push_back(make("version-recycling",
                           "recycled version " + std::to_string(version) +
                               " of vip " + vip.to_string() +
                               " is still referenced by " +
                               std::to_string(tally.total()) + " connections",
                           vip, version));
      }
    }
  }
}

void InvariantAuditor::check_transit_window(std::vector<Violation>& out) const {
  using Phase = SilkRoadSwitch::Phase;
  if (sw_.phase_ == Phase::kIdle) {
    if (sw_.transit_.inserted() != 0 || sw_.transit_.fill_ratio() > 0.0) {
      out.push_back(make("transit-window",
                         "TransitTable holds state outside an update window (" +
                             std::to_string(sw_.transit_.inserted()) +
                             " inserts)"));
    }
    if (!sw_.transit_members_.empty()) {
      out.push_back(make("transit-window",
                         "transit member set non-empty while idle"));
    }
    if (!sw_.awaiting_pre_.empty()) {
      out.push_back(make("transit-window",
                         "pre-update wait set non-empty while idle"));
    }
    return;
  }

  const auto* state = sw_.find_vip(sw_.update_vip_);
  if (state == nullptr) {
    out.push_back(make("transit-window",
                       "update in flight for unknown VIP " +
                           sw_.update_vip_.to_string(),
                       sw_.update_vip_));
    return;
  }
  const auto& mgr = *state->versions;
  if (mgr.pool(sw_.update_new_version_) == nullptr) {
    out.push_back(make("transit-window",
                       "in-flight update targets dead version " +
                           std::to_string(sw_.update_new_version_),
                       sw_.update_vip_, sw_.update_new_version_));
  }
  if (sw_.phase_ == Phase::kStep1 &&
      mgr.current_version() != sw_.update_old_version_) {
    out.push_back(make("transit-window",
                       "Step1 but VIPTable already flipped away from version " +
                           std::to_string(sw_.update_old_version_),
                       sw_.update_vip_, sw_.update_old_version_));
  }
  if (sw_.phase_ == Phase::kStep2) {
    if (mgr.current_version() != sw_.update_new_version_) {
      out.push_back(make("transit-window",
                         "Step2 but VIPTable does not point at new version " +
                             std::to_string(sw_.update_new_version_),
                         sw_.update_vip_, sw_.update_new_version_));
    }
    if (!sw_.transit_members_.empty() &&
        mgr.pool(sw_.update_old_version_) == nullptr) {
      out.push_back(make("transit-window",
                         "flows pinned to old version " +
                             std::to_string(sw_.update_old_version_) +
                             " but its pool is gone",
                         sw_.update_vip_, sw_.update_old_version_));
    }
  }
  for (const auto& flow : sw_.transit_members_) {
    if (!sw_.pending_.contains(net::FlowKey(flow))) {
      out.push_back(make("transit-window",
                         "transit member " + flow_str(flow) +
                             " has no pending insertion and cannot resolve",
                         sw_.update_vip_));
    }
  }
  for (const auto& flow : sw_.awaiting_pre_) {
    if (!sw_.pending_.contains(net::FlowKey(flow))) {
      out.push_back(make("transit-window",
                         "pre-update flow " + flow_str(flow) +
                             " has no pending insertion and cannot resolve",
                         sw_.update_vip_));
    }
  }
}

void InvariantAuditor::check_sram_accounting(
    const Census& census, std::vector<Violation>& out) const {
  const auto usage = sw_.memory_usage();
  const auto& cfg = sw_.conn_table_.config();
  const std::size_t geometry_bytes = asic::bits_to_bytes(
      cfg.stages * cfg.buckets_per_stage * asic::kSramWordBits);
  if (usage.conn_table_bytes != geometry_bytes) {
    out.push_back(make("sram-accounting",
                       "reported ConnTable SRAM " +
                           std::to_string(usage.conn_table_bytes) +
                           " B != geometry " +
                           std::to_string(geometry_bytes) + " B"));
  }
  if (census.used_slots != sw_.conn_table_.size()) {
    out.push_back(make("sram-accounting",
                       "phantom SRAM occupancy: " +
                           std::to_string(census.used_slots) +
                           " used slots vs " +
                           std::to_string(sw_.conn_table_.size()) +
                           " installed entries"));
  }
  std::size_t pool_bytes = 0;
  for (const auto& [vip, state] : sw_.vips_) {
    for (const std::uint32_t version : state.versions->live_versions()) {
      pool_bytes += state.versions->pool(version)->wire_bytes();
    }
  }
  if (usage.dip_pool_table_bytes != pool_bytes) {
    out.push_back(make("sram-accounting",
                       "reported DIPPoolTable SRAM " +
                           std::to_string(usage.dip_pool_table_bytes) +
                           " B != live pool total " +
                           std::to_string(pool_bytes) + " B"));
  }
  if (usage.transit_table_bytes != sw_.transit_.byte_count()) {
    out.push_back(make("sram-accounting",
                       "reported TransitTable SRAM " +
                           std::to_string(usage.transit_table_bytes) +
                           " B != filter size " +
                           std::to_string(sw_.transit_.byte_count()) + " B"));
  }
}

void InvariantAuditor::check_dip_pool_coverage(
    const Census& census, std::vector<Violation>& out) const {
  for (const auto& row : census.rows) {
    const std::uint32_t current = row.versions->current_version();
    if (row.versions->pool(current) == nullptr) {
      out.push_back(make("dip-pool-coverage",
                         "vip " + row.vip.to_string() + " current version " +
                             std::to_string(current) + " has no pool",
                         row.vip, current));
    }
    for (std::uint32_t version = 0; version < row.tallies.size(); ++version) {
      const auto& tally = row.tallies[version];
      if (tally.live || tally.installed == 0) continue;
      out.push_back(make("dip-pool-coverage",
                         "vip " + row.vip.to_string() + ": " +
                             std::to_string(tally.installed) +
                             " ConnTable entries resolve to version " +
                             std::to_string(version) +
                             " with no DIPPoolTable pool",
                         row.vip, version));
    }
  }
  for (const auto& [flow, version] : census.orphan_entries) {
    out.push_back(make("dip-pool-coverage",
                       "ConnTable entry " + flow_str(flow) + " (version " +
                           std::to_string(version) +
                           ") targets an unknown VIP or version",
                       flow.dst, version));
  }
}

// ---------------------------------------------------------------------------
// Self-check entry point (declared in core/silkroad_switch.h).
// ---------------------------------------------------------------------------

void TestingHooks::skew_refcount(core::SilkRoadSwitch& sw,
                                 const net::Endpoint& vip) {
  auto* state = sw.find_vip(vip);
  SR_CHECK(state != nullptr);
  state->versions->acquire(state->versions->current_version());
}

void TestingHooks::inject_stale_conn_entry(core::SilkRoadSwitch& sw,
                                           const net::FiveTuple& flow,
                                           std::uint32_t version) {
  sw.conn_table_.insert(flow, version);
}

void TestingHooks::corrupt_slot_accounting(core::SilkRoadSwitch& sw) {
  auto& table = sw.conn_table_;
  for (auto& slot : table.slots_) {
    if (slot.used) {
      slot.used = false;  // the entry count now exceeds the used slots
      return;
    }
  }
  SR_CHECK(!table.slots_.empty());
  table.slots_.front().used = true;  // phantom occupancy in an empty table
}

void TestingHooks::pollute_transit(core::SilkRoadSwitch& sw,
                                   const net::FiveTuple& flow) {
  sw.transit_.insert(flow);
}

}  // namespace silkroad::check

namespace silkroad::core {

void SilkRoadSwitch::self_check() const {
  const check::InvariantAuditor auditor(*this);
  const auto violations = auditor.audit();
  for (const auto& violation : violations) {
    std::fprintf(stderr, "invariant violation: %s\n",
                 violation.to_string().c_str());
  }
  if (!violations.empty()) {
    // Causal context for the failure: the offending VIP's (and version's)
    // recent TraceRing timeline, oldest first.
    constexpr std::size_t kTailEvents = 16;
    if (trace_.dropped() > 0) {
      std::fprintf(stderr,
                   "note: %llu trace events lost to ring wraparound; the "
                   "tails below may start mid-story\n",
                   static_cast<unsigned long long>(trace_.dropped()));
    }
    std::set<std::pair<std::string, std::optional<std::uint32_t>>> dumped;
    for (const auto& violation : violations) {
      if (violation.vip.empty()) continue;
      if (!dumped.insert({violation.vip, violation.version}).second) continue;
      const auto scope = trace_.find_scope(violation.vip);
      if (!scope) continue;
      const auto tail = trace_.tail_for(*scope, violation.version, kTailEvents);
      if (violation.version) {
        std::fprintf(stderr, "trace tail for vip %s version %u (%zu events):\n",
                     violation.vip.c_str(), *violation.version, tail.size());
      } else {
        std::fprintf(stderr, "trace tail for vip %s (%zu events):\n",
                     violation.vip.c_str(), tail.size());
      }
      for (const auto& event : tail) {
        std::fprintf(stderr, "  %s\n",
                     obs::format_event(trace_, event).c_str());
      }
    }
    if (dumped.empty()) {
      const auto all = trace_.events();
      const std::size_t start =
          all.size() > kTailEvents ? all.size() - kTailEvents : 0;
      std::fprintf(stderr, "trace tail (%zu events):\n", all.size() - start);
      for (std::size_t i = start; i < all.size(); ++i) {
        std::fprintf(stderr, "  %s\n",
                     obs::format_event(trace_, all[i]).c_str());
      }
    }
  }
  if (!violations.empty()) {
    // Durable incident record: the trace ring interleaved with every
    // overlapping update/resync span, written to SILKROAD_TELEMETRY_DIR
    // (no-op when the env var is unset or the switch is untraced).
    const std::string dir = obs::telemetry_dir_from_env();
    if (!dir.empty()) {
      std::string reason = "invariant auditor: " + violations.front().invariant;
      if (violations.size() > 1) {
        reason += " (+" + std::to_string(violations.size() - 1) + " more)";
      }
      const auto report =
          obs::assemble_forensics(trace_, spans_, 0, std::move(reason));
      const std::string stem =
          "forensics_invariant_sw" + std::to_string(span_switch_);
      if (obs::write_forensics(report, dir, stem)) {
        std::fprintf(stderr, "forensics report written to %s/%s.{txt,json}\n",
                     dir.c_str(), stem.c_str());
      }
    }
  }
  SR_CHECKF(violations.empty(), "invariant auditor found %zu violation(s)",
            violations.size());
}

}  // namespace silkroad::core
