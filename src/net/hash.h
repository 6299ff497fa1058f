// Hash primitives modeling the generic hash units of a switching ASIC.
//
// Switching ASICs expose families of independent hash functions (used for
// ECMP, LAG, cuckoo stage addressing, bloom filter indices, digests). We model
// them as a seeded 64-bit mixer: each seed yields an independent member of the
// family. A software CRC32-C is also provided since ASIC digest units are
// CRC-based; ConnTable digests can use either.
#pragma once

#include <cstdint>
#include <span>

#include "net/five_tuple.h"

namespace silkroad::net {

/// SplitMix64 finalizer — a strong, cheap 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seeded hash over raw bytes (FNV-1a accumulation + SplitMix64 finalize).
std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) noexcept;

/// CRC32-C (Castagnoli) of raw bytes — software table-driven implementation.
std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed = 0) noexcept;

/// Seeded hash of a 5-tuple. All ASIC-side addressing (cuckoo stage index,
/// bloom index, ECMP member selection) and digest extraction flow through
/// this function with different seeds, exactly as distinct hash units would.
std::uint64_t hash_five_tuple(const FiveTuple& t, std::uint64_t seed) noexcept;

/// One member of an independent hash-function family, identified by seed.
class HashFunction {
 public:
  constexpr explicit HashFunction(std::uint64_t seed) noexcept : seed_(seed) {}

  std::uint64_t operator()(const FiveTuple& t) const noexcept {
    return hash_five_tuple(t, seed_);
  }
  std::uint64_t operator()(std::span<const std::uint8_t> bytes) const noexcept {
    return hash_bytes(bytes, seed_);
  }
  constexpr std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Extracts a `bits`-wide digest (1..32 bits) from a connection, independent
/// of the addressing hashes (distinct seed domain). Paper §4.2 uses 16 bits.
/// Equal to flow_digest(flow_hash(t), bits) (net/flow_key.h): the digest the
/// ConnTable stores.
std::uint32_t connection_digest(const FiveTuple& t, unsigned bits) noexcept;

/// Seed of the flow hash a net::FlowKey carries (net/flow_key.h).
inline constexpr std::uint64_t kFlowHashSeed = 0xC0FFEE0DDBA11ULL;

/// Hash functor for using FiveTuple as a key in std::unordered_map (the
/// switch-CPU shadow state and simulator bookkeeping). Its value is the flow
/// hash, so a FlowKey's hash can stand in for it.
struct FiveTupleHash {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(hash_five_tuple(t, kFlowHashSeed));
  }
};

/// Hash functor for Endpoint keys (VIP-indexed control-plane maps).
struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const noexcept {
    return static_cast<std::size_t>(
        hash_bytes(std::span<const std::uint8_t>(e.ip.bytes().data(), 16),
                   0x3D9021EULL ^ e.port));
  }
};

}  // namespace silkroad::net
