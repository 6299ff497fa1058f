// Multi-stage digest exact-match table with cuckoo insertion — the hardware
// substrate of SilkRoad's ConnTable (paper §4.1, §4.2).
//
// Data plane (ASIC side): the table spans several physical pipeline stages;
// each stage has its own addressing hash function. A lookup addresses one
// SRAM word (bucket) per stage and compares the packed entries' stored
// *digests* against the packet's digest; the first stage that matches wins.
// Because only a digest is stored, two distinct connections can collide
// (same stage bucket + same digest): a *false positive*, resolved by the
// control plane (§4.2, SYN redirection + entry relocation).
//
// Control plane (switch CPU side): insertion requires finding an empty slot,
// possibly rearranging existing entries over a sequence of moves (BFS cuckoo).
// This is too complex for the ASIC and runs on the switch CPU — which is
// exactly why ConnTable insertion is slow and why SilkRoad needs the
// TransitTable to guarantee PCC (§4.3). The CPU keeps shadow state with each
// entry's full 5-tuple and flow hash; the ASIC stores only digest + value.
//
// Addressing: every operation takes a net::FlowKey, whose one 64-bit flow
// hash yields the digest and each stage's bucket by a seeded mix
// (net::derive_flow_hash). No operation on that path reads the tuple's bytes
// again; the FiveTuple overloads build the key and forward.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asic/sram.h"
#include "net/five_tuple.h"
#include "net/flow_key.h"
#include "net/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silkroad::check {
struct TestingHooks;
}  // namespace silkroad::check

namespace silkroad::asic {

struct CuckooConfig {
  /// Physical stages the table is instantiated on.
  std::size_t stages = 4;
  /// SRAM words (buckets) per stage; each word packs `ways` entries.
  std::size_t buckets_per_stage = 1024;
  /// Entries packed per SRAM word (4 for 28-bit SilkRoad entries in 112-bit
  /// words).
  std::size_t ways = 4;
  /// Digest width stored per entry (paper default: 16).
  unsigned digest_bits = 16;
  /// Action-data width per entry (6-bit DIP-pool version in SilkRoad).
  unsigned value_bits = 6;
  /// Packing overhead per entry (instruction + next-table address; §6.1 uses
  /// 6 bits so the ConnTable entry is exactly 28 bits).
  unsigned overhead_bits = 6;
  /// Base seed; stage s uses an independent hash derived from it.
  std::uint64_t hash_seed = 0x517C0ADULL;
  /// BFS search budget for insertion (nodes expanded before giving up).
  std::size_t max_bfs_nodes = 2048;
};

/// Position of an entry: (stage, bucket, way).
struct SlotRef {
  std::uint32_t stage = 0;
  std::uint32_t bucket = 0;
  std::uint32_t way = 0;

  friend bool operator==(const SlotRef&, const SlotRef&) = default;
};

class DigestCuckooTable {
 public:
  explicit DigestCuckooTable(const CuckooConfig& config);

  struct LookupResult {
    std::uint32_t value = 0;
    SlotRef slot;
  };

  /// ASIC data-plane lookup: first-stage-match-wins digest comparison.
  /// May return a false-positive hit; the ASIC cannot tell.
  std::optional<LookupResult> lookup(const net::FlowKey& key) const {
    return lookup_hash(key.hash);
  }
  std::optional<LookupResult> lookup(const net::FiveTuple& key) const {
    return lookup(net::FlowKey(key));
  }
  /// The same lookup from the flow hash alone: the data plane addresses the
  /// table by digest and buckets, never by the tuple.
  std::optional<LookupResult> lookup_hash(std::uint64_t flow_hash) const;

  /// CPU-side: true iff the hit at `slot` belongs to a different 5-tuple
  /// than `key` (digest collision).
  bool is_false_positive(const net::FiveTuple& key, const SlotRef& slot) const;
  bool is_false_positive(const net::FlowKey& key, const SlotRef& slot) const {
    return is_false_positive(key.tuple, slot);
  }

  struct InsertResult {
    bool inserted = false;
    /// Entry moves the cuckoo search performed (0 = direct placement).
    std::size_t moves = 0;
    /// Where the key's entry sits (when inserted).
    SlotRef slot;
  };

  /// CPU-side insertion. Fails (inserted=false) if the BFS budget is
  /// exhausted — the table is effectively full for this key. When `moved` is
  /// given, the new slot of every entry the cuckoo chain displaced is
  /// appended to it.
  InsertResult insert(const net::FlowKey& key, std::uint32_t value,
                      std::vector<SlotRef>* moved = nullptr);
  InsertResult insert(const net::FiveTuple& key, std::uint32_t value) {
    return insert(net::FlowKey(key), value);
  }

  /// CPU-side removal (connection expired). Returns false if absent.
  bool erase(const net::FlowKey& key);
  bool erase(const net::FiveTuple& key) { return erase(net::FlowKey(key)); }

  /// Drops every entry (switch crash/restore: connection state is lost while
  /// the geometry, observers, and monotone counters survive). Shadow state
  /// is only ever read behind a slot's used bit, so it is left as is.
  void clear() {
    for (auto& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  /// CPU-side exact-match presence test: probes the key's candidate slots,
  /// filters on digest and flow hash, confirms on the shadow 5-tuple.
  bool contains(const net::FlowKey& key) const {
    return find_exact(key).has_value();
  }
  bool contains(const net::FiveTuple& key) const {
    return contains(net::FlowKey(key));
  }

  /// CPU-side value read for an exactly-matching entry.
  std::optional<std::uint32_t> exact_value(const net::FlowKey& key) const;
  std::optional<std::uint32_t> exact_value(const net::FiveTuple& key) const {
    return exact_value(net::FlowKey(key));
  }

  /// CPU-side in-place action-data update for an exactly-matching entry.
  bool update_value(const net::FiveTuple& key, std::uint32_t value);

  /// §4.2 false-positive resolution: relocates the *existing* entry at
  /// `slot` to another stage so that the flow hashing to `arriving_hash` no
  /// longer falsely hits it (their buckets differ under that stage's hash).
  /// Returns false when no conflict-free placement exists within one level
  /// of displacement. When `moved` is given, the new slot of every entry the
  /// call moved is appended to it.
  bool relocate_for_hash(std::uint64_t arriving_hash, const SlotRef& slot,
                         std::vector<SlotRef>* moved = nullptr);
  bool relocate_for(const net::FlowKey& arriving, const SlotRef& slot,
                    std::vector<SlotRef>* moved = nullptr) {
    return relocate_for_hash(arriving.hash, slot, moved);
  }
  bool relocate_for(const net::FiveTuple& arriving, const SlotRef& slot) {
    return relocate_for(net::FlowKey(arriving), slot);
  }

  // --- Activity tracking (hardware hit bits, sampled by the CPU) -----------

  /// Records data-plane activity on an entry. ASICs keep a per-entry hit
  /// indication the control plane samples to expire idle connections.
  void touch(const SlotRef& slot, std::uint64_t stamp);

  /// Collects the keys of entries whose last activity stamp is strictly
  /// older than `older_than` (the CPU's aging sweep), in slot order.
  std::vector<net::FiveTuple> collect_idle(std::uint64_t older_than) const;

  // --- Introspection -------------------------------------------------------
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept {
    return config_.stages * config_.buckets_per_stage * config_.ways;
  }
  double occupancy() const noexcept {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(size()) / static_cast<double>(capacity());
  }
  unsigned entry_bits() const noexcept {
    return config_.digest_bits + config_.value_bits + config_.overhead_bits;
  }
  /// SRAM bytes this table's geometry occupies (allocated, not used).
  std::size_t sram_bytes() const noexcept {
    return bits_to_bytes(config_.stages * config_.buckets_per_stage *
                         kSramWordBits);
  }
  const CuckooConfig& config() const noexcept { return config_; }
  std::uint64_t total_moves() const noexcept { return total_moves_.value(); }
  std::uint64_t failed_inserts() const noexcept {
    return failed_inserts_.value();
  }

  /// One installed connection as the control plane sees it (shadow 5-tuple +
  /// the entry's action data).
  struct Entry {
    net::FiveTuple key;
    std::uint32_t value = 0;
    SlotRef slot;
  };
  /// Snapshot of every installed entry in slot order. It copies the whole
  /// table; for_each_entry() visits the same entries in place.
  std::vector<Entry> entries() const;

  /// Calls `fn(flow, flow_hash, value)` for every physically occupied slot
  /// in slot order: the CPU shadow 5-tuple and flow hash plus the entry's
  /// action data. One linear pass over the word array, no hashing; the
  /// number of calls is the used-slot count, which equals size() unless the
  /// word array and the CPU's entry count have diverged (the "phantom SRAM
  /// accounting" corruption the invariant auditor detects).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].used) {
        fn(shadow_keys_[i], shadow_hashes_[i], slots_[i].value);
      }
    }
  }

  /// Occupied slots in physical stage `stage` (cuckoo fills earlier stages
  /// first, so the per-stage skew is itself a signal — paper §6.1).
  std::size_t used_in_stage(std::uint32_t stage) const noexcept;

  /// One stage's occupancy heatmap row: `bins` contiguous bucket ranges,
  /// each counting its occupied slots (of bin_capacity possible).
  struct StageOccupancy {
    std::uint32_t stage = 0;
    std::size_t used = 0;      ///< occupied slots in the whole stage
    std::size_t capacity = 0;  ///< slots in the whole stage
    std::size_t bin_capacity = 0;
    std::vector<std::size_t> bins;
  };
  /// Heatmap rows for every stage — the ScrapeServer's /tables payload.
  /// `bins` is clamped to the bucket count.
  std::vector<StageOccupancy> stage_occupancy(std::size_t bins = 16) const;

  // --- Telemetry -----------------------------------------------------------

  /// Attaches structured event tracing (obs layer); null detaches. The ring
  /// must outlive the table. Inserts then emit cuckoo-insert /
  /// cuckoo-evict / cuckoo-insert-fail trace events.
  void bind_observer(obs::TraceRing* trace) noexcept { trace_ = trace; }

  /// Bucket index of `key` at `stage`: mix64(flow hash ^ stage seed) mod
  /// the bucket count.
  std::uint32_t bucket_of(const net::FlowKey& key, std::uint32_t stage) const {
    return bucket_of_hash(key.hash, stage);
  }
  std::uint32_t bucket_of(const net::FiveTuple& key,
                          std::uint32_t stage) const {
    return bucket_of(net::FlowKey(key), stage);
  }
  std::uint32_t bucket_of_hash(std::uint64_t flow_hash,
                               std::uint32_t stage) const noexcept {
    return static_cast<std::uint32_t>(
        net::derive_flow_hash(flow_hash, stage_seeds_[stage]) %
        config_.buckets_per_stage);
  }
  /// The digest stored for `key`: a slice of mix64(flow hash ^ digest seed),
  /// equal to net::connection_digest(key.tuple, digest_bits).
  std::uint32_t digest_of(const net::FlowKey& key) const {
    return digest_of_hash(key.hash);
  }
  std::uint32_t digest_of(const net::FiveTuple& key) const {
    return digest_of(net::FlowKey(key));
  }
  std::uint32_t digest_of_hash(std::uint64_t flow_hash) const noexcept {
    return net::flow_digest(flow_hash, config_.digest_bits);
  }

  /// Flow hash of the entry at `slot` (CPU shadow state; meaningless for an
  /// empty slot).
  std::uint64_t flow_hash_at(const SlotRef& slot) const {
    return shadow_hashes_[flat_index(slot)];
  }
  bool occupied(const SlotRef& slot) const {
    return slots_[flat_index(slot)].used;
  }

 private:
  /// check_test.cc's corruption hooks reach in to break slot/shadow agreement
  /// on purpose, proving the invariant auditor can fail.
  friend struct silkroad::check::TestingHooks;

  /// 16 bytes, so a 4-way bucket is one 64-byte line's worth.
  struct Slot {
    std::uint32_t digest = 0;
    std::uint32_t value = 0;
    /// Last data-plane activity stamp (hit bit + CPU sampling epoch). Sim
    /// time in ns, which stays far below 2^63.
    std::uint64_t last_hit : 63 = 0;
    std::uint64_t used : 1 = 0;
  };
  static_assert(sizeof(Slot) == 16);

  std::size_t flat_index(const SlotRef& ref) const noexcept {
    return (static_cast<std::size_t>(ref.stage) * config_.buckets_per_stage +
            ref.bucket) *
               config_.ways +
           ref.way;
  }
  SlotRef slot_ref(std::size_t index) const noexcept {
    const std::size_t word = index / config_.ways;
    return SlotRef{static_cast<std::uint32_t>(word / config_.buckets_per_stage),
                   static_cast<std::uint32_t>(word % config_.buckets_per_stage),
                   static_cast<std::uint32_t>(index % config_.ways)};
  }
  /// Places `key` in a free way of its bucket at some stage, if one exists.
  std::optional<SlotRef> find_free_slot(std::uint64_t flow_hash) const;
  /// Flat index of the slot holding exactly `key`: probes the key's
  /// stages x ways candidate slots, filters on digest and flow hash, and
  /// confirms on the shadow tuple (every entry lives in one of its own
  /// candidates, cuckoo moves included).
  std::optional<std::size_t> find_exact(const net::FlowKey& key) const;

  void place(const net::FlowKey& key, std::uint32_t value, const SlotRef& ref);
  void move_entry(const SlotRef& from, const SlotRef& to);

  CuckooConfig config_;
  /// Per-stage addressing seeds, derived from config_.hash_seed.
  std::vector<std::uint64_t> stage_seeds_;
  std::vector<Slot> slots_;
  /// CPU shadow, parallel to slots_: each occupied slot's full 5-tuple and
  /// its flow hash (cuckoo moves re-address an occupant from the hash alone).
  std::vector<net::FiveTuple> shadow_keys_;
  std::vector<std::uint64_t> shadow_hashes_;
  /// Installed entries, kept by insert/erase (the auditor checks it against
  /// the occupied-slot count).
  std::size_t size_ = 0;
  obs::Counter total_moves_;
  obs::Counter failed_inserts_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace silkroad::asic
