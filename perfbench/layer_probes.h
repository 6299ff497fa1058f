// Batch timings of single layers' public functions, run by traced runs on the
// workload's own keys and live tables: 5-tuple hashing (net), ConnTable
// lookup and insert/erase (asic), and version select (core).
#pragma once

#include <functional>
#include <vector>

#include "asic/cuckoo_table.h"
#include "core/silkroad_switch.h"
#include "net/five_tuple.h"

namespace perfbench {

/// ns per hash_five_tuple + connection_digest pair over `keys`.
double time_hash_ns(const std::vector<silkroad::net::FiveTuple>& keys);

/// ns per conn_table().lookup on the switch's live table.
double time_lookup_ns(const silkroad::core::SilkRoadSwitch& sw,
                      const std::vector<silkroad::net::FiveTuple>& keys);

/// ns per version_manager(vip)->select(version, flow), with each key's
/// version read from the live table. Keys without an entry are skipped.
double time_select_ns(const silkroad::core::SilkRoadSwitch& sw,
                      const std::vector<silkroad::net::FiveTuple>& keys);

/// ns per (erase oldest, insert fresh) pair on a standalone DigestCuckooTable
/// of geometry `geometry` first filled with `resident` keys, so it runs at
/// the same occupancy as the switch it stands in for. `key_of` maps a key id
/// to its 5-tuple; `fresh` ids are inserted in order while `resident` ids are
/// erased oldest first.
double time_insert_erase_ns(
    const silkroad::asic::CuckooConfig& geometry,
    const std::function<silkroad::net::FiveTuple(std::uint64_t)>& key_of,
    const std::vector<std::uint64_t>& resident,
    const std::vector<std::uint64_t>& fresh);

}  // namespace perfbench
