#include "layer_probes.h"

#include "bench_util.h"
#include "net/hash.h"

namespace perfbench {

namespace {

using silkroad::net::FiveTuple;

/// Median ns/op over `passes` timed passes of `body`, which performs `ops`
/// operations and returns a value that keeps the work from being optimized
/// away.
template <typename Body>
double median_pass_ns(std::size_t ops, Body body, int passes = 7) {
  if (ops == 0) return 0;
  std::vector<double> per_op;
  volatile std::uint64_t sink = 0;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    sink = sink + body();
    per_op.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                     static_cast<double>(ops));
  }
  return median(per_op);
}

}  // namespace

double time_hash_ns(const std::vector<FiveTuple>& keys) {
  return median_pass_ns(keys.size(), [&] {
    std::uint64_t acc = 0;
    for (const FiveTuple& k : keys) {
      acc += silkroad::net::hash_five_tuple(k, acc & 0xFF);
      acc += silkroad::net::connection_digest(k, 16);
    }
    return acc;
  });
}

double time_lookup_ns(const silkroad::core::SilkRoadSwitch& sw,
                      const std::vector<FiveTuple>& keys) {
  const auto& table = sw.conn_table();
  return median_pass_ns(keys.size(), [&] {
    std::uint64_t acc = 0;
    for (const FiveTuple& k : keys) {
      if (const auto hit = table.lookup(k)) acc += hit->value + 1;
    }
    return acc;
  });
}

double time_select_ns(const silkroad::core::SilkRoadSwitch& sw,
                      const std::vector<FiveTuple>& keys) {
  struct Target {
    const silkroad::core::VipVersionManager* versions;
    std::uint32_t version;
    const FiveTuple* flow;
  };
  std::vector<Target> targets;
  targets.reserve(keys.size());
  for (const FiveTuple& k : keys) {
    const auto* versions = sw.version_manager(k.dst);
    const auto value = sw.conn_table().exact_value(k);
    if (versions != nullptr && value) targets.push_back({versions, *value, &k});
  }
  return median_pass_ns(targets.size(), [&] {
    std::uint64_t acc = 0;
    for (const Target& t : targets) {
      if (const auto dip = t.versions->select(t.version, *t.flow)) acc += dip->port;
    }
    return acc;
  });
}

double time_insert_erase_ns(
    const silkroad::asic::CuckooConfig& geometry,
    const std::function<FiveTuple(std::uint64_t)>& key_of,
    const std::vector<std::uint64_t>& resident,
    const std::vector<std::uint64_t>& fresh) {
  silkroad::asic::DigestCuckooTable table(geometry);
  for (const std::uint64_t id : resident) table.insert(key_of(id), 1);
  const std::size_t pairs = std::min(resident.size(), fresh.size());
  if (pairs == 0) return 0;
  std::vector<FiveTuple> out_keys(pairs);
  std::vector<FiveTuple> in_keys(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    out_keys[i] = key_of(resident[i]);
    in_keys[i] = key_of(fresh[i]);
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < pairs; ++i) {
    table.erase(out_keys[i]);
    table.insert(in_keys[i], 1);
  }
  return static_cast<double>(ns_between(t0, Clock::now())) /
         static_cast<double>(pairs);
}

}  // namespace perfbench
