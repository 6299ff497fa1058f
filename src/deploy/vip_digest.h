// Order-independent membership digests (DESIGN.md §17).
//
// A VIP's digest is its presence token XOR the member tokens of its DIPs; a
// switch's digest, and the controller's desired digest, is the XOR of its
// VIPs' digests. XOR makes every digest independent of order and every
// membership change an O(1) toggle of one token. SilkRoadFleet keeps one
// DigestedPool per applied VIP, so a switch digest is O(VIPs) XORs of digests
// that cannot drift from the sets they summarize.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/endpoint.h"
#include "net/hash.h"

namespace silkroad::deploy {

/// Token algebra of the membership digest. Distinct salts keep the three
/// token families apart: a presence token never cancels a member token.
struct VipDigest {
  /// Salted key of the VIP itself; both tokens below derive from it.
  static std::uint64_t vip_key(const net::Endpoint& vip) {
    return net::mix64(net::EndpointHash{}(vip) ^ 0x9E3779B97F4A7C15ULL);
  }
  static std::uint64_t presence_of_key(std::uint64_t key) {
    return net::mix64(key ^ 0xC2B2AE3D27D4EB4FULL);
  }
  static std::uint64_t member_of_key(std::uint64_t key,
                                     const net::Endpoint& dip) {
    return net::mix64(
        key ^ net::mix64(net::EndpointHash{}(dip) ^ 0x165667B19E3779F9ULL));
  }
  /// Token of the VIP existing at all (an empty pool is not an absent VIP).
  static std::uint64_t presence_token(const net::Endpoint& vip) {
    return presence_of_key(vip_key(vip));
  }
  /// Token of `dip` being a member of `vip`'s pool. Salted with the VIP key
  /// so equal DIP sets under different VIPs cannot cancel.
  static std::uint64_t member_token(const net::Endpoint& vip,
                                    const net::Endpoint& dip) {
    return member_of_key(vip_key(vip), dip);
  }
  /// From-scratch digest of one VIP's pool (`dips` holds no duplicates).
  template <typename Container>
  static std::uint64_t of(const net::Endpoint& vip, const Container& dips) {
    std::uint64_t digest = presence_token(vip);
    for (const auto& dip : dips) digest ^= member_token(vip, dip);
    return digest;
  }
};

/// One VIP's DIP set with its VipDigest kept beside it. Every mutation goes
/// through these members, so the digest always equals VipDigest::of(set).
class DigestedPool {
 public:
  using DipSet = std::unordered_set<net::Endpoint, net::EndpointHash>;

  explicit DigestedPool(const net::Endpoint& vip)
      : key_(VipDigest::vip_key(vip)),
        digest_(VipDigest::presence_of_key(key_)) {}
  DigestedPool(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips)
      : DigestedPool(vip) {
    assign(dips);
  }

  /// False when `dip` already was a member.
  bool insert(const net::Endpoint& dip) {
    if (!dips_.insert(dip).second) return false;
    digest_ ^= VipDigest::member_of_key(key_, dip);
    return true;
  }
  /// False when `dip` was not a member.
  bool erase(const net::Endpoint& dip) {
    if (dips_.erase(dip) == 0) return false;
    digest_ ^= VipDigest::member_of_key(key_, dip);
    return true;
  }
  void assign(const std::vector<net::Endpoint>& dips) {
    dips_.clear();
    digest_ = VipDigest::presence_of_key(key_);
    for (const auto& dip : dips) insert(dip);
  }

  bool contains(const net::Endpoint& dip) const { return dips_.contains(dip); }
  const DipSet& dips() const noexcept { return dips_; }
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t key_;
  std::uint64_t digest_;
  DipSet dips_;
};

}  // namespace silkroad::deploy
