// A flow as the data plane addresses it: the 5-tuple plus one 64-bit flow
// hash taken in a single pass at ingress.
//
// An ASIC hash unit reads the packet's key once and slices every index it
// needs out of that one result. FlowKey models the same thing: the ConnTable
// digest and each stage's bucket are cheap seeded mixes of `hash`
// (derive_flow_hash), so a packet costs one pass over the tuple bytes however
// many stages or digests consume it. Concury's two-hasher composite key is the
// software precedent (SNIPPETS.md #2).
//
// The hash is FiveTupleHash's value, so host maps keyed by FiveTuple and
// trace flow ids agree with it without hashing again.
#pragma once

#include <cstdint>

#include "net/five_tuple.h"
#include "net/hash.h"

namespace silkroad::net {

/// Seed domain of the connection digest, separate from every addressing seed.
inline constexpr std::uint64_t kDigestDomain = 0xD16E57D0A11A5EEDULL;

/// The one pass over a tuple's bytes (seed kFlowHashSeed, as FiveTupleHash).
inline std::uint64_t flow_hash(const FiveTuple& t) noexcept {
  return hash_five_tuple(t, kFlowHashSeed);
}

/// Member `seed` of the hash family derived from a flow hash: one mix, no
/// pass over the tuple. Distinct seeds give independent values.
constexpr std::uint64_t derive_flow_hash(std::uint64_t hash,
                                         std::uint64_t seed) noexcept {
  return mix64(hash ^ seed);
}

/// The `bits`-wide (1..32) connection digest of a flow hash.
constexpr std::uint32_t flow_digest(std::uint64_t hash, unsigned bits) noexcept {
  const unsigned width = bits == 0 ? 1 : (bits > 32 ? 32 : bits);
  const std::uint64_t mask = width == 32 ? 0xFFFFFFFFULL : (1ULL << width) - 1;
  return static_cast<std::uint32_t>(derive_flow_hash(hash, kDigestDomain) &
                                    mask);
}

struct FlowKey {
  FiveTuple tuple;
  std::uint64_t hash = 0;

  FlowKey() = default;
  explicit FlowKey(const FiveTuple& t) noexcept : tuple(t), hash(flow_hash(t)) {}
  /// Rebuilds a key whose hash was taken earlier; `hash` must be
  /// flow_hash(t) (e.g. carried by a LearnEvent).
  FlowKey(const FiveTuple& t, std::uint64_t precomputed) noexcept
      : tuple(t), hash(precomputed) {}

  friend bool operator==(const FlowKey& a, const FlowKey& b) noexcept {
    return a.hash == b.hash && a.tuple == b.tuple;
  }
};

/// Hash functor for FlowKey-keyed maps: the stored hash, nothing recomputed.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace silkroad::net
