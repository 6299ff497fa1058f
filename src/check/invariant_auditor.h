// Runtime invariant auditor for the SilkRoad PCC state machine.
//
// The paper's guarantees are structural: per-connection consistency holds
// because every ConnTable entry resolves through a DIP-pool version that is
// still alive (§4.2), version numbers are recycled only once no connection
// references them (§4.4), and the TransitTable is consulted only inside an
// open 3-step update window (§4.3). The auditor walks a SilkRoadSwitch and
// re-derives each of those facts from scratch, reporting every divergence it
// finds instead of aborting on the first — so tests can assert on the precise
// violation set.
//
// Every audit starts with one census: a single linear pass over the ConnTable
// slot array (each occupied slot's shadow tuple `dst` names its VIP, its
// value its version) plus the pending and degraded maps. It counts, per
// (VIP, version), the installed, pending (finished ones included) and
// degraded connections, and the occupied slots. No entry is copied out and
// no tuple is hashed per entry; each entry's VIP is resolved through a
// per-audit table of the switch's VIPs.
//
// Invariant families (the `invariant` field of each Violation):
//   "version-liveness"    — every version a pending (unfinished) or
//                           degraded-pinned connection uses has a live pool
//                           in its VIP's manager.
//   "refcount-match"      — each live version's VersionManager refcount
//                           equals the census's installed + pending +
//                           degraded count for it (so an entry that never
//                           acquired its version is caught), no finished
//                           pending flow holds a destroyed version, and no
//                           flow is counted twice across ConnTable, pending
//                           and degraded state.
//   "version-recycling"   — the free ring buffer and the live pool set
//                           partition the version space; a recycled version
//                           is never referenced by any entry, pending or
//                           degraded flow.
//   "transit-window"      — the TransitTable is empty whenever no 3-step
//                           update is in flight; in-flight state (update VIP,
//                           old/new versions, member sets) is coherent.
//   "sram-accounting"     — reported SRAM usage matches the table geometry
//                           and the physical slot occupancy matches the CPU
//                           entry count (no phantom entries).
//   "dip-pool-coverage"   — every (VIP, version) pair a ConnTable entry can
//                           resolve to has a DIPPoolTable pool, including
//                           each VIP's current version.
//
// `SilkRoadSwitch::self_check()` (defined in invariant_auditor.cc) runs the
// auditor and SR_CHECK-fails on any violation; the scenario driver calls it
// after every pool-update step, so tier-1 audits continuously.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/silkroad_switch.h"
#include "net/five_tuple.h"

namespace silkroad::check {

struct Violation {
  std::string invariant;  ///< Family id, e.g. "refcount-match".
  std::string detail;     ///< Human-readable specifics.
  /// Offending VIP (its interned trace-scope name) when the violation is
  /// attributable to one; empty otherwise. self_check() uses it to dump the
  /// VIP's recent TraceRing events alongside the failure.
  std::string vip;
  /// Offending DIP-pool version, when one is implicated.
  std::optional<std::uint32_t> version;

  std::string to_string() const { return invariant + ": " + detail; }
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const core::SilkRoadSwitch& sw) : sw_(sw) {}

  /// Runs every invariant family; returns all violations found (empty on a
  /// healthy switch).
  std::vector<Violation> audit() const;

 private:
  /// Per-(VIP, version) connection counts from one pass (defined in the .cc).
  struct Census;
  Census take_census() const;

  // Individual families, each appending its findings to `out`.
  void check_version_liveness(const Census& census,
                              std::vector<Violation>& out) const;
  void check_refcounts(const Census& census, std::vector<Violation>& out) const;
  void check_version_recycling(const Census& census,
                               std::vector<Violation>& out) const;
  void check_transit_window(std::vector<Violation>& out) const;
  void check_sram_accounting(const Census& census,
                             std::vector<Violation>& out) const;
  void check_dip_pool_coverage(const Census& census,
                               std::vector<Violation>& out) const;

  const core::SilkRoadSwitch& sw_;
};

/// Deliberate state-corruption hooks for check_test.cc: the auditor must be
/// *proven* able to fail, so each hook plants one class of violation that a
/// subsequent audit() is asserted to report. Never use outside tests.
struct TestingHooks {
  /// Acquires a phantom reference on `vip`'s current version without
  /// tracking a connection (refcount skew).
  static void skew_refcount(core::SilkRoadSwitch& sw, const net::Endpoint& vip);

  /// Installs a ConnTable entry stamped with `version` without acquiring a
  /// reference on it — pass a recycled (free) version number to plant a
  /// stale version reference (§4.4 hazard), or a live one to plant an entry
  /// its version's refcount does not count.
  static void inject_stale_conn_entry(core::SilkRoadSwitch& sw,
                                      const net::FiveTuple& flow,
                                      std::uint32_t version);

  /// Desynchronizes the physical slot array from the CPU entry count
  /// (phantom SRAM accounting): clears one occupied slot's used bit if any
  /// entry exists, otherwise fabricates an occupied slot.
  static void corrupt_slot_accounting(core::SilkRoadSwitch& sw);

  /// Inserts `flow` into the TransitTable while no update window is open.
  static void pollute_transit(core::SilkRoadSwitch& sw,
                              const net::FiveTuple& flow);
};

}  // namespace silkroad::check
