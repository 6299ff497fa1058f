// conntable_1m: one SilkRoadSwitch holding the paper's 1M connections.
//
// Setup installs 1M flows (SYN each, then run the simulator until the
// learning filter and switch CPU have drained every insert). The measured
// part is a read phase of uniform-random data packets to installed flows
// and a write phase of churn rounds at steady occupancy: FIN the B oldest
// flows, SYN B new ones, drain. Every packet's DIP is checked against the
// one its SYN got, and every FINed flow's entry must be gone after the drain.
#include <memory>
#include <numeric>

#include "layer_probes.h"
#include "net/hash.h"
#include "sim/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

using silkroad::core::SilkRoadSwitch;
using silkroad::net::Endpoint;
using silkroad::net::FiveTuple;
using silkroad::net::IpAddress;
using silkroad::net::Packet;

constexpr std::size_t kConns = 1'000'000;
constexpr std::uint32_t kVips = 16;
constexpr std::uint32_t kDipsPerVip = 32;
/// FINs (and then SYNs) per write-phase round.
constexpr std::size_t kChurnBatch = 5'000;
constexpr std::size_t kReadBatch = 50'000;
/// Read packets and churn rounds per second of --seconds.
constexpr double kReadPacketsPerSecond = 250'000;
constexpr double kRoundsPerSecond = 2;
/// Keys the traced run's layer probes are timed on.
constexpr std::size_t kProbeKeys = 1 << 16;
/// Erase+insert pairs timed on the standalone table.
constexpr std::size_t kInsertErasePairs = 20'000;

Endpoint vip_of(std::uint32_t v) { return {IpAddress::v4(0x14000000u + v), 80}; }

std::vector<Endpoint> dips_of(std::uint32_t v) {
  std::vector<Endpoint> dips;
  for (std::uint32_t i = 0; i < kDipsPerVip; ++i) {
    dips.push_back({IpAddress::v4(0x0A000000u + v * 256 + i), 20});
  }
  return dips;
}

/// Flow `id` of the run seeded `seed`. The source address is a bijection of
/// the id, so distinct ids are distinct connections.
FiveTuple flow_key(std::uint64_t seed, std::uint64_t id) {
  const std::uint64_t r = silkroad::net::mix64(seed ^ (id * 0x2545F4914F6CDD1DULL));
  FiveTuple t;
  t.src = {IpAddress::v4(static_cast<std::uint32_t>(id * 0x9E3779B1u + seed)),
           static_cast<std::uint16_t>(1024 + r % 60000)};
  t.dst = vip_of(static_cast<std::uint32_t>((r >> 32) % kVips));
  return t;
}

/// DIPs are numbered by their address's low byte within a VIP's pool.
std::uint8_t dip_index(const Endpoint& dip) { return dip.ip.bytes()[3]; }

/// Live flows oldest-first, with the DIP each one's SYN got.
class LiveFlows {
 public:
  LiveFlows() : ids_(kConns), dips_(kConns) {}
  std::size_t size() const { return count_; }
  std::uint64_t id_at(std::size_t k) const { return ids_[(head_ + k) % kConns]; }
  std::uint8_t dip_at(std::size_t k) const { return dips_[(head_ + k) % kConns]; }
  void push(std::uint64_t id, std::uint8_t dip) {
    const std::size_t slot = (head_ + count_) % kConns;
    ids_[slot] = static_cast<std::uint32_t>(id);
    dips_[slot] = dip;
    ++count_;
  }
  void pop() {
    head_ = (head_ + 1) % kConns;
    --count_;
  }

 private:
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint8_t> dips_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Span op ids of the core layer.
enum CoreOp : std::uint16_t { kHit, kSynOp, kFinOp, kDrain };

class ConnTableRun {
 public:
  explicit ConnTableRun(const Options& opt)
      : opt_(opt), spans_(1 << 20, 16), read_rng_(opt.seed ^ 0x4EADULL) {}

  Result run();

 private:
  /// Sends one packet and checks its DIP (`expect` < 0: a SYN, any DIP).
  std::optional<Endpoint> send(const FiveTuple& flow, bool syn, bool fin,
                               int expect, bool traced, CoreOp op);
  double read_batch(bool traced);
  double churn_round(bool traced);

  Options opt_;
  Result result_;
  SpanLog spans_;
  silkroad::sim::Rng read_rng_;
  LiveFlows live_;
  std::unique_ptr<silkroad::sim::Simulator> sim_;
  std::unique_ptr<SilkRoadSwitch> sw_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> finned_;

  CallTotals op_totals_[4];
  std::uint64_t no_dip_ = 0;
  std::uint64_t wrong_dip_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t packets_sent_ = 0;
  /// Sized like the table's working set (hundreds of MB, beyond the cache).
  HostProbe probe_{256u << 20, 5.0e-3};
};

std::optional<Endpoint> ConnTableRun::send(const FiveTuple& flow, bool syn,
                                           bool fin, int expect, bool traced,
                                           CoreOp op) {
  const Packet packet{flow, syn, fin, 64};
  ++packets_sent_;
  silkroad::lb::PacketResult r;
  if (traced) {
    const auto t0 = Clock::now();
    r = sw_->process_packet(packet);
    const std::uint64_t dur = ns_between(t0, Clock::now());
    op_totals_[op].add(dur);
    spans_.record(Layer::kCore, op, t0, dur);
  } else {
    r = sw_->process_packet(packet);
  }
  if (!r.dip) {
    ++no_dip_;
  } else if (expect >= 0 && dip_index(*r.dip) != expect) {
    ++wrong_dip_;
  }
  return r.dip;
}

double ConnTableRun::read_batch(bool traced) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kReadBatch; ++i) {
    const std::size_t k = read_rng_.next() % live_.size();
    send(flow_key(opt_.seed, live_.id_at(k)), false, false, live_.dip_at(k),
         traced, kHit);
  }
  return seconds_between(t0, Clock::now());
}

double ConnTableRun::churn_round(bool traced) {
  finned_.clear();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kChurnBatch; ++i) {
    const std::uint64_t id = live_.id_at(0);
    send(flow_key(opt_.seed, id), false, true, live_.dip_at(0), traced, kFinOp);
    live_.pop();
    finned_.push_back(id);
  }
  for (std::size_t i = 0; i < kChurnBatch; ++i) {
    const std::uint64_t id = next_id_++;
    const auto dip = send(flow_key(opt_.seed, id), true, false, -1, traced, kSynOp);
    live_.push(id, dip ? dip_index(*dip) : 0);
  }
  const auto t_drain = Clock::now();
  sim_->run();
  const auto t1 = Clock::now();
  if (traced) {
    op_totals_[kDrain].add(ns_between(t_drain, t1));
    spans_.record(Layer::kCore, kDrain, t_drain, ns_between(t_drain, t1), true);
  }
  // A FINed flow's entry must be gone once the CPU has drained.
  for (const std::uint64_t id : finned_) {
    if (sw_->conn_table().contains(flow_key(opt_.seed, id))) ++stale_;
  }
  return seconds_between(t0, t1);
}

Result ConnTableRun::run() {
  const bool traced = opt_.trace;
  finned_.reserve(kChurnBatch);

  // --- Setup: build the switch and install 1M connections. ------------------
  const auto t_setup = Clock::now();
  sim_ = std::make_unique<silkroad::sim::Simulator>();
  SilkRoadSwitch::Config config;
  config.conn_table = SilkRoadSwitch::conn_table_for(kConns);
  sw_ = std::make_unique<SilkRoadSwitch>(*sim_, config);
  for (std::uint32_t v = 0; v < kVips; ++v) sw_->add_vip(vip_of(v), dips_of(v));
  const std::uint64_t rss_before_kb = proc_status_kb("VmRSS");
  for (std::size_t i = 0; i < kConns; ++i) {
    const std::uint64_t id = next_id_++;
    const auto dip = send(flow_key(opt_.seed, id), true, false, -1, false, kSynOp);
    live_.push(id, dip ? dip_index(*dip) : 0);
  }
  sim_->run();
  const double setup_s = seconds_between(t_setup, Clock::now());
  const std::uint64_t rss_after_kb = proc_status_kb("VmRSS");
  const auto fill_stats = sw_->stats();
  const std::uint64_t fill_moves = sw_->conn_table().total_moves();

  // --- Read phase: uniform-random data packets to installed flows. ----------
  // Traced runs alternate traced and untraced batches, so the tracing
  // overhead is measured on the same table in the same run.
  const auto read_batches = std::max<std::size_t>(
      2, static_cast<std::size_t>(opt_.seconds * kReadPacketsPerSecond / kReadBatch));
  std::vector<double> read_s[2];
  for (std::size_t b = 0; b < read_batches; ++b) {
    const bool t = traced && (b % 2 == 1);
    read_s[t].push_back(read_batch(t));
    probe_.sample();
  }

  // --- Write phase: churn rounds at steady occupancy. -------------------------
  const auto rounds =
      std::max<std::size_t>(2, static_cast<std::size_t>(opt_.seconds * kRoundsPerSecond));
  std::vector<double> round_s[2];
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool t = traced && (r % 2 == 1);
    round_s[t].push_back(churn_round(t));
    probe_.sample();
  }
  const auto end_stats = sw_->stats();
  const std::uint64_t churn_moves = sw_->conn_table().total_moves() - fill_moves;
  const std::uint64_t churn_inserts = end_stats.inserts - fill_stats.inserts;

  // --- Output checks. ---------------------------------------------------------
  const auto t_check = Clock::now();
  sw_->self_check();  // aborts the run on any structural invariant violation
  const double self_check_s = seconds_between(t_check, Clock::now());
  if (sw_->pending_insertions() != 0) result_.fail_check("inserts left pending after drain");
  // Every installed entry is a live flow or a counted stale one.
  if (sw_->conn_table().size() + sw_->software_flows() != live_.size() + stale_) {
    result_.fail_check("ConnTable size does not reconcile with live flows + stale entries");
  }
  const std::uint64_t fallbacks = end_stats.software_fallback_conns;
  result_.attempted = packets_sent_;
  result_.failed = no_dip_ + wrong_dip_ + stale_ + fallbacks;
  result_.fingerprint = {
      {"packets", end_stats.packets},
      {"inserts", end_stats.inserts},
      {"erases", end_stats.erases},
      {"insert_failures", end_stats.insert_failures},
      {"cuckoo_moves", sw_->conn_table().total_moves()},
      {"syn_false_positives", end_stats.syn_false_positives},
      {"non_syn_false_hits", end_stats.non_syn_false_hits},
      {"relocation_failures", end_stats.relocation_failures},
      {"software_fallbacks", fallbacks},
      {"sim_events", sim_->executed_events()},
      {"table_size", sw_->conn_table().size()},
      {"stale_entries", stale_},
      {"wrong_dip", wrong_dip_},
      {"no_dip", no_dip_},
  };

  auto& m = result_.metrics;
  // Contention from other tenants of the host only ever slows a batch down,
  // so the fast quartile of batch times is the steadiest estimate of the
  // code's own speed.
  report_end_to_end(result_, probe_, setup_s,
                    ratio(kReadBatch, quantile(read_s[0], 0.25)) / 1e6,
                    ratio(kChurnBatch, quantile(round_s[0], 0.25)));
  m["host_bytes_per_conn"] =
      ratio(static_cast<double>(rss_after_kb - rss_before_kb) * 1024.0,
            static_cast<double>(fill_stats.inserts));

  // Exact counts (both modes; they are part of the fingerprint as well).
  m["core.non_syn_false_hits"] = static_cast<double>(end_stats.non_syn_false_hits);
  m["core.syn_false_positives"] = static_cast<double>(end_stats.syn_false_positives);
  m["core.relocation_failures"] = static_cast<double>(end_stats.relocation_failures);
  m["core.insert_failures"] = static_cast<double>(end_stats.insert_failures);
  m["core.stale_entries"] = static_cast<double>(stale_);
  m["asic.moves_per_insert"] =
      ratio(static_cast<double>(churn_moves), static_cast<double>(churn_inserts));
  m["sim.events_per_flow"] =
      ratio(static_cast<double>(sim_->executed_events()), static_cast<double>(next_id_));
  m["check.self_check_ms"] = self_check_s * 1e3;
  // Layers this workload does not run.
  for (const char* name : {"lb.pcc_violations", "lb.probes_per_risk_event",
                           "deploy.request_update_us", "deploy.restore_ms",
                           "deploy.delta_sessions", "deploy.full_sessions",
                           "fault.ctrl_retries", "fault.resync_bytes"}) {
    m[name] = 0;
  }

  if (!traced) return result_;

  // --- Traced run: per-layer figures. ----------------------------------------
  const double phase_untraced_s = median(read_s[0]) * static_cast<double>(read_batches) +
                                  median(round_s[0]) * static_cast<double>(rounds);
  const double phase_traced_s = median(read_s[1]) * static_cast<double>(read_batches) +
                                median(round_s[1]) * static_cast<double>(rounds);
  m["trace_overhead_pct"] = 100.0 * (phase_traced_s / phase_untraced_s - 1.0);
  double measured_s = self_check_s;
  for (const auto* phase : {&read_s[0], &read_s[1], &round_s[0], &round_s[1]}) {
    measured_s = std::accumulate(phase->begin(), phase->end(), measured_s);
  }
  m["check.self_check_share"] = self_check_s / measured_s;

  const auto hits = spans_.durations(Layer::kCore, kHit);
  m["core.hit_ns_p50"] = quantile(hits, 0.5);
  m["core.hit_ns_p99"] = quantile(hits, 0.99);
  const auto syns = spans_.durations(Layer::kCore, kSynOp);
  m["core.syn_ns_p50"] = quantile(syns, 0.5);
  m["core.syn_ns_p99"] = quantile(syns, 0.99);
  m["core.fin_ns_p50"] = quantile(spans_.durations(Layer::kCore, kFinOp), 0.5);
  m["core.drain_ns_per_conn"] =
      ratio(static_cast<double>(op_totals_[kDrain].ns),
            static_cast<double>(op_totals_[kDrain].calls * kChurnBatch));
  // The switch's process_packet is the lb boundary of this workload too.
  m["lb.packet_ns_syn"] = op_totals_[kSynOp].mean_ns();
  m["lb.packet_ns_fin"] = op_totals_[kFinOp].mean_ns();
  m["lb.packet_ns_probe"] = op_totals_[kHit].mean_ns();
  double inside_ns = 0;
  for (const CallTotals& t : op_totals_) inside_ns += static_cast<double>(t.ns);
  const double traced_phase_s =
      std::accumulate(read_s[1].begin(), read_s[1].end(), 0.0) +
      std::accumulate(round_s[1].begin(), round_s[1].end(), 0.0);
  m["lb.driver_s"] = traced_phase_s - inside_ns / 1e9;

  std::vector<FiveTuple> keys;
  keys.reserve(kProbeKeys);
  silkroad::sim::Rng key_rng(opt_.seed ^ 0x4EADULL);
  for (std::size_t i = 0; i < kProbeKeys; ++i) {
    keys.push_back(flow_key(opt_.seed, live_.id_at(key_rng.next() % live_.size())));
  }
  m["net.hash_ns"] = time_hash_ns(keys);
  m["asic.lookup_ns"] = time_lookup_ns(*sw_, keys);
  m["core.select_ns"] = time_select_ns(*sw_, keys);
  m["core.hit_residual_ns"] =
      m["core.hit_ns_p50"] - m["asic.lookup_ns"] - m["core.select_ns"];

  // Standalone table at the same geometry and occupancy; the switch is freed
  // first so the two tables never coexist.
  std::vector<std::uint64_t> resident(live_.size());
  for (std::size_t k = 0; k < live_.size(); ++k) resident[k] = live_.id_at(k);
  std::vector<std::uint64_t> fresh(kInsertErasePairs);
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i] = next_id_ + i;
  const auto geometry = config.conn_table;
  sw_.reset();
  sim_.reset();
  m["asic.insert_erase_ns"] = time_insert_erase_ns(
      geometry, [&](std::uint64_t id) { return flow_key(opt_.seed, id); },
      resident, fresh);
  return result_;
}

}  // namespace

Result run_conntable(const Options& opt) { return ConnTableRun(opt).run(); }

}  // namespace perfbench
