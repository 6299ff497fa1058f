#include "net/hash.h"

#include <array>

#include "net/flow_key.h"

namespace silkroad::net {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82F63B78;  // reflected Castagnoli
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc32c_table() {
  static const auto table = make_crc32c_table();
  return table;
}

}  // namespace

std::uint64_t hash_bytes(std::span<const std::uint8_t> data,
                         std::uint64_t seed) noexcept {
  std::uint64_t h = kFnvOffset ^ mix64(seed);
  for (const std::uint8_t byte : data) {
    h = (h ^ byte) * kFnvPrime;
  }
  return mix64(h);
}

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  const auto& table = crc32c_table();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint64_t hash_five_tuple(const FiveTuple& t, std::uint64_t seed) noexcept {
  // Serialize the 5-tuple into a fixed 37-byte buffer (IPv6 width; IPv4
  // addresses occupy the first 4 bytes of each 16-byte field with zero fill,
  // plus a family tag folded into the seed so v4/v6 cannot alias).
  std::array<std::uint8_t, 37> buf{};
  std::size_t pos = 0;
  for (const std::uint8_t b : t.src.ip.bytes()) buf[pos++] = b;
  buf[pos++] = static_cast<std::uint8_t>(t.src.port >> 8);
  buf[pos++] = static_cast<std::uint8_t>(t.src.port);
  for (const std::uint8_t b : t.dst.ip.bytes()) buf[pos++] = b;
  buf[pos++] = static_cast<std::uint8_t>(t.dst.port >> 8);
  buf[pos++] = static_cast<std::uint8_t>(t.dst.port);
  buf[pos++] = static_cast<std::uint8_t>(t.proto);
  const std::uint64_t family_tag =
      (t.src.ip.is_v6() ? 2u : 0u) | (t.dst.ip.is_v6() ? 1u : 0u);
  return hash_bytes(std::span<const std::uint8_t>(buf),
                    seed ^ mix64(family_tag));
}

std::uint32_t connection_digest(const FiveTuple& t, unsigned bits) noexcept {
  return flow_digest(flow_hash(t), bits);
}

}  // namespace silkroad::net
