#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <unordered_set>

#include "asic/cuckoo_table.h"
#include "net/endpoint.h"
#include "net/five_tuple.h"
#include "net/flow_key.h"
#include "net/hash.h"
#include "net/ip_address.h"

namespace silkroad::net {
namespace {

TEST(IpAddress, V4RoundTrip) {
  const auto a = IpAddress::v4(0x0A000001);
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "10.0.0.1");
  EXPECT_EQ(a.v4_value(), 0x0A000001u);
  EXPECT_EQ(a.wire_bytes(), 4u);
  const auto parsed = IpAddress::parse("10.0.0.1");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(IpAddress, V4ParseEdgeCases) {
  EXPECT_TRUE(IpAddress::parse("0.0.0.0").has_value());
  EXPECT_TRUE(IpAddress::parse("255.255.255.255").has_value());
  EXPECT_FALSE(IpAddress::parse("256.0.0.1").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4 ").has_value());
}

TEST(IpAddress, V6RoundTrip) {
  const auto a = IpAddress::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v6());
  EXPECT_EQ(a->wire_bytes(), 16u);
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(IpAddress, V6ZeroCompression) {
  EXPECT_EQ(IpAddress::v6(0, 0).to_string(), "::");
  EXPECT_EQ(IpAddress::v6(0, 1).to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("1::")->to_string(), "1::");
  EXPECT_EQ(IpAddress::parse("1:0:0:2::3")->to_string(), "1:0:0:2::3");
  // Full address with no zero runs.
  const auto full = IpAddress::parse("1:2:3:4:5:6:7:8");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->to_string(), "1:2:3:4:5:6:7:8");
}

TEST(IpAddress, V6ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("1::2::3").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IpAddress::parse("12345::").has_value());
  EXPECT_FALSE(IpAddress::parse("g::1").has_value());
  // "::" replacing zero groups must actually shorten the address.
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7::8").has_value());
}

TEST(IpAddress, V6HiLoConstructor) {
  const auto a = IpAddress::v6(0x20010DB800000000ULL, 0x1ULL);
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

TEST(IpAddress, OrderingIsConsistent) {
  const auto a = IpAddress::v4(1);
  const auto b = IpAddress::v4(2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(Endpoint, RoundTrip) {
  const Endpoint e{IpAddress::v4(0x14000001), 80};
  EXPECT_EQ(e.to_string(), "20.0.0.1:80");
  const auto parsed = Endpoint::parse("20.0.0.1:80");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, e);
  EXPECT_EQ(e.wire_bytes(), 6u);
}

TEST(Endpoint, V6RoundTrip) {
  const auto parsed = Endpoint::parse("[2001:db8::1]:443");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->port, 443);
  EXPECT_EQ(parsed->to_string(), "[2001:db8::1]:443");
  EXPECT_EQ(parsed->wire_bytes(), 18u);
}

TEST(Endpoint, ParseRejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("10.0.0.1").has_value());
  EXPECT_FALSE(Endpoint::parse("10.0.0.1:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("[2001:db8::1]443").has_value());
  EXPECT_FALSE(Endpoint::parse("[2001:db8::1]").has_value());
  EXPECT_FALSE(Endpoint::parse(":80").has_value());
}

FiveTuple make_tuple(std::uint32_t client, std::uint16_t port) {
  return FiveTuple{{IpAddress::v4(client), port},
                   {IpAddress::v4(0x14000001), 80},
                   Protocol::kTcp};
}

TEST(FiveTuple, WireBytesMatchPaper) {
  // Paper footnote 1: an IPv6 5-tuple key is 37 bytes.
  const FiveTuple v6{{IpAddress::v6(1, 2), 1234},
                     {IpAddress::v6(3, 4), 80},
                     Protocol::kTcp};
  EXPECT_EQ(v6.wire_bytes(), 37u);
  // IPv4: 4+4 addr + 2+2 ports + 1 proto = 13 bytes.
  EXPECT_EQ(make_tuple(1, 2).wire_bytes(), 13u);
}

TEST(Hash, DeterministicAndSeedSensitive) {
  const auto t = make_tuple(0x01020304, 1234);
  EXPECT_EQ(hash_five_tuple(t, 7), hash_five_tuple(t, 7));
  EXPECT_NE(hash_five_tuple(t, 7), hash_five_tuple(t, 8));
}

TEST(Hash, DistinctTuplesRarelyCollide) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    seen.insert(hash_five_tuple(make_tuple(i, 1000), 42));
  }
  EXPECT_EQ(seen.size(), 20000u);  // 64-bit collisions at 20K keys: ~1e-11
}

TEST(Hash, V4DoesNotAliasV6) {
  // An IPv4 address zero-extended to 16 bytes must not hash like the
  // corresponding IPv6 address.
  FiveTuple v4 = make_tuple(0x0A000001, 80);
  FiveTuple v6 = v4;
  std::array<std::uint8_t, 16> raw{};
  raw[0] = 10;
  raw[3] = 1;
  v6.src.ip = IpAddress::v6(raw);
  EXPECT_NE(hash_five_tuple(v4, 1), hash_five_tuple(v6, 1));
}

TEST(Hash, Crc32cKnownVector) {
  // CRC32-C("123456789") = 0xE3069283 (RFC 3720 appendix test vector).
  const char* data = "123456789";
  const std::uint32_t crc = crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data), 9));
  EXPECT_EQ(crc, 0xE3069283u);
}

TEST(Hash, DigestWidthMasks) {
  const auto t = make_tuple(99, 42);
  EXPECT_LT(connection_digest(t, 16), 1u << 16);
  EXPECT_LT(connection_digest(t, 24), 1u << 24);
  EXPECT_LE(connection_digest(t, 1), 1u);
  // Digest must differ from the low bits of addressing hashes (independence
  // sanity check: at least not identical for a sample of tuples).
  int same = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const auto tuple = make_tuple(i, 1);
    if (connection_digest(tuple, 16) ==
        (hash_five_tuple(tuple, 0) & 0xFFFF)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

class DigestCollisionRate : public ::testing::TestWithParam<unsigned> {};

TEST_P(DigestCollisionRate, MatchesBirthdayExpectation) {
  const unsigned bits = GetParam();
  const std::size_t n = 4096;
  std::unordered_set<std::uint32_t> seen;
  std::size_t collisions = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!seen.insert(connection_digest(make_tuple(i, 7), bits)).second) {
      ++collisions;
    }
  }
  // Expected collisions ~ n^2 / 2^(bits+1); allow generous slack.
  const double expected =
      static_cast<double>(n) * n / std::pow(2.0, bits + 1);
  EXPECT_LE(static_cast<double>(collisions), expected * 3 + 8);
  if (bits >= 28) {
    EXPECT_EQ(collisions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DigestCollisionRate,
                         ::testing::Values(12u, 16u, 20u, 24u, 28u, 32u));

// --- FlowKey: one flow hash, every table index derived from it --------------

/// Flow `i` of a fixed pseudo-random IPv4 population (addresses and ports
/// drawn from mix64, four VIPs).
FiveTuple random_flow(std::uint64_t i) {
  const std::uint64_t r = mix64(i);
  return FiveTuple{{IpAddress::v4(static_cast<std::uint32_t>(r)),
                    static_cast<std::uint16_t>(r >> 32)},
                   {IpAddress::v4(0x14000000u + static_cast<std::uint32_t>(
                                                    (r >> 48) % 4)),
                    80},
                   Protocol::kTcp};
}

asic::CuckooConfig table_config(std::size_t stages, std::size_t buckets,
                                unsigned digest_bits = 16) {
  asic::CuckooConfig config;
  config.stages = stages;
  config.buckets_per_stage = buckets;
  config.digest_bits = digest_bits;
  return config;
}

TEST(FlowKey, HashIsTheHostMapHash) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const FiveTuple t = random_flow(i);
    const FlowKey key(t);
    EXPECT_EQ(key.hash, flow_hash(t));
    EXPECT_EQ(key.hash, FiveTupleHash{}(t));
    EXPECT_EQ(FlowKey(t, key.hash), key);
  }
}

TEST(FlowKey, DerivedDigestAndBucketsAreTheTables) {
  const asic::DigestCuckooTable table(table_config(4, 1000, 12));
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const FiveTuple t = random_flow(i);
    const FlowKey key(t);
    EXPECT_EQ(flow_digest(key.hash, 12), table.digest_of(t));
    EXPECT_EQ(table.digest_of(key), table.digest_of(t));
    EXPECT_EQ(table.digest_of_hash(key.hash), table.digest_of(t));
    EXPECT_EQ(connection_digest(t, 12), table.digest_of(t));
    for (std::uint32_t stage = 0; stage < 4; ++stage) {
      EXPECT_EQ(table.bucket_of_hash(key.hash, stage),
                table.bucket_of(t, stage));
      EXPECT_EQ(table.bucket_of(key, stage), table.bucket_of(t, stage));
    }
  }
  // An entry inserted by tuple sits where the key's derived bucket says.
  asic::DigestCuckooTable filled(table_config(4, 64));
  for (std::uint64_t i = 0; i < 600; ++i) {
    const FlowKey key(random_flow(i));
    const auto placed = filled.insert(key.tuple, 1);
    ASSERT_TRUE(placed.inserted);
    EXPECT_EQ(placed.slot.bucket,
              filled.bucket_of_hash(key.hash, placed.slot.stage));
    EXPECT_EQ(filled.flow_hash_at(placed.slot), key.hash);
  }
  for (std::uint64_t i = 0; i < 600; ++i) {
    const FlowKey key(random_flow(i));
    EXPECT_EQ(filled.contains(key), filled.contains(key.tuple));
    EXPECT_TRUE(filled.contains(key));
  }
}

TEST(FlowKey, V4AndV6WithTheSameBytesDoNotAlias) {
  const asic::DigestCuckooTable table(table_config(4, 64));
  int same_indices = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const FiveTuple v4 = random_flow(i);
    FiveTuple v6 = v4;
    std::array<std::uint8_t, 16> src{};
    std::array<std::uint8_t, 16> dst{};
    std::copy_n(v4.src.ip.bytes().begin(), 4, src.begin());
    std::copy_n(v4.dst.ip.bytes().begin(), 4, dst.begin());
    v6.src.ip = IpAddress::v6(src);
    v6.dst.ip = IpAddress::v6(dst);
    const FlowKey k4(v4);
    const FlowKey k6(v6);
    EXPECT_NE(k4.hash, k6.hash);
    bool all_equal = table.digest_of(k4) == table.digest_of(k6);
    for (std::uint32_t stage = 0; stage < 4; ++stage) {
      all_equal = all_equal &&
                  table.bucket_of(k4, stage) == table.bucket_of(k6, stage);
    }
    same_indices += all_equal;
  }
  // Equal digest and all four buckets by chance: 2^-16 * 64^-4 per flow.
  EXPECT_EQ(same_indices, 0);
}

TEST(FlowKey, StageBucketsSpreadEvenly) {
  constexpr std::size_t kFlows = 1 << 16;
  constexpr std::size_t kBuckets = 1024;
  const asic::DigestCuckooTable table(table_config(4, kBuckets));
  std::vector<std::vector<std::size_t>> load(
      4, std::vector<std::size_t>(kBuckets));
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    const FlowKey key(random_flow(i));
    for (std::uint32_t stage = 0; stage < 4; ++stage) {
      ++load[stage][table.bucket_of(key, stage)];
    }
  }
  // Poisson(64) per bucket: the fullest of 1024 sits near 1.4x the mean.
  const double mean = static_cast<double>(kFlows) / kBuckets;
  for (const auto& stage : load) {
    const auto [lo, hi] = std::minmax_element(stage.begin(), stage.end());
    EXPECT_LT(static_cast<double>(*hi) / mean, 1.6);
    EXPECT_GT(static_cast<double>(*lo) / mean, 0.4);
  }
}

TEST(FlowKey, StagesAreIndependent) {
  // With B buckets and S stages, a flow lands in the same bucket index at
  // every stage with probability 1/B^(S-1), and at two given stages with
  // probability 1/B. Stages derived from one hash must not correlate more.
  constexpr std::size_t kFlows = 1 << 16;
  constexpr std::size_t kBuckets = 8;
  const asic::DigestCuckooTable table(table_config(4, kBuckets));
  std::size_t all_same = 0;
  std::size_t pair_same = 0;
  for (std::uint64_t i = 0; i < kFlows; ++i) {
    const FlowKey key(random_flow(i));
    const std::uint32_t b0 = table.bucket_of(key, 0);
    pair_same += table.bucket_of(key, 1) == b0;
    all_same += table.bucket_of(key, 1) == b0 &&
                table.bucket_of(key, 2) == b0 && table.bucket_of(key, 3) == b0;
  }
  const double expect_all = kFlows / std::pow(kBuckets, 3);  // 128
  EXPECT_GT(static_cast<double>(all_same), 0.5 * expect_all);
  EXPECT_LT(static_cast<double>(all_same), 1.5 * expect_all);
  const double expect_pair = static_cast<double>(kFlows) / kBuckets;  // 8192
  EXPECT_NEAR(static_cast<double>(pair_same), expect_pair, 0.05 * expect_pair);
}

}  // namespace
}  // namespace silkroad::net
