// pcc_scenario and fleet_sync: lb::Scenario runs (Hadoop flow arrivals plus
// UpdateGenerator pool updates, audited for PCC by the scenario driver) on
// one switch, or on a 3-switch SilkRoadFleet behind lossy control channels
// with one switch failed and restored every simulated minute.
//
// The balancer is wrapped in a TimedBalancer. At a checkpoint every 10
// simulated seconds a burst of data packets to installed flows measures the
// hit rate on the live table; the flow rate is taken over the whole run,
// less the bursts.
#include <algorithm>
#include <memory>
#include <unordered_set>

#include "deploy/fleet.h"
#include "layer_probes.h"
#include "lb/scenario.h"
#include "net/hash.h"
#include "sim/random.h"
#include "timed_balancer.h"
#include "workload/update_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sim = silkroad::sim;
using silkroad::core::SilkRoadSwitch;
using silkroad::deploy::SilkRoadFleet;
using silkroad::net::Endpoint;
using silkroad::net::FiveTuple;
using silkroad::net::IpAddress;

struct Shape {
  bool fleet = false;
  double conns_per_min = 0;    ///< all VIPs together
  double updates_per_min = 0;  ///< all VIPs together
  /// Simulated arrival window per second of --seconds.
  sim::Time horizon_per_second = 0;
  /// ConnTable sizing (connections) of each switch.
  std::size_t table_conns = 0;
};

constexpr std::uint32_t kVips = 16;
constexpr std::uint32_t kDipsPerVip = 24;
constexpr std::size_t kSwitches = 3;
constexpr sim::Time kCheckpoint = 10 * sim::kSecond;
/// Data packets sent to installed flows at each checkpoint.
constexpr std::size_t kBurstPackets = 20'000;
constexpr int kSetups = 11;

Endpoint vip_of(std::uint32_t v) { return {IpAddress::v4(0x14000000u + v), 80}; }

std::vector<Endpoint> dips_of(std::uint32_t v) {
  std::vector<Endpoint> dips;
  for (std::uint32_t i = 0; i < kDipsPerVip; ++i) {
    dips.push_back({IpAddress::v4(0x0A000000u + v * 256 + i), 20});
  }
  return dips;
}

silkroad::lb::ScenarioConfig scenario_config(const Shape& shape, std::uint64_t seed,
                                             sim::Time horizon) {
  silkroad::lb::ScenarioConfig config;
  config.horizon = horizon;
  config.seed = silkroad::net::mix64(seed ^ 0x5CE7A210ULL);
  sim::Rng seeder(seed ^ 0x0BDA7E5ULL);
  for (std::uint32_t v = 0; v < kVips; ++v) {
    config.vip_loads.push_back({vip_of(v), shape.conns_per_min / kVips,
                                silkroad::workload::FlowProfile::hadoop(), false});
    config.dip_pools.push_back(dips_of(v));
    silkroad::workload::UpdateGenerator gen({.seed = seeder.next()}, vip_of(v),
                                            config.dip_pools.back());
    const auto updates = gen.generate(shape.updates_per_min / kVips, 3 * horizon);
    config.updates.insert(config.updates.end(), updates.begin(), updates.end());
  }
  // Exactly rate x horizon updates, the earliest of a longer stream: the
  // count a horizon-truncated stream realizes varies by a quarter between
  // seeds, and every update batch costs a full invariant audit, so a fixed
  // count keeps the run's work the same from seed to seed.
  std::stable_sort(config.updates.begin(), config.updates.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  const auto count = static_cast<std::size_t>(
      shape.updates_per_min * static_cast<double>(horizon) / static_cast<double>(sim::kMinute));
  config.updates.resize(std::min(count, config.updates.size()));
  return config;
}

SilkRoadSwitch::Config switch_config(std::size_t table_conns) {
  SilkRoadSwitch::Config config;
  config.conn_table = SilkRoadSwitch::conn_table_for(table_conns);
  config.learning = {.capacity = 2048, .timeout = sim::kMillisecond};
  config.cpu = {.tasks_per_second = 200'000.0};
  return config;
}

silkroad::fault::ControlChannel::Config channel_config(std::uint64_t seed) {
  silkroad::fault::ControlChannel::Config channel;
  channel.base_delay = 200 * sim::kMicrosecond;
  channel.jitter = 300 * sim::kMicrosecond;
  channel.drop_probability = 0.05;
  channel.seed = silkroad::net::mix64(seed ^ 0xC0117301ULL);
  return channel;
}

/// One system under test, built by setup and driven by the scenario.
struct Instance {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<SilkRoadSwitch> sw;
  std::unique_ptr<SilkRoadFleet> fleet;
  std::unique_ptr<TimedBalancer> timed;
  std::unique_ptr<silkroad::lb::Scenario> scenario;

  silkroad::lb::LoadBalancer& inner() {
    return fleet ? static_cast<silkroad::lb::LoadBalancer&>(*fleet) : *sw;
  }
  std::size_t switch_count() const { return fleet ? fleet->size() : 1; }
  SilkRoadSwitch& switch_at(std::size_t i) { return fleet ? fleet->switch_at(i) : *sw; }
  /// Tears down in dependency order (the scenario and decorator reference
  /// the balancer, which references the simulator).
  void reset() {
    scenario.reset();
    timed.reset();
    fleet.reset();
    sw.reset();
    sim.reset();
  }
  /// The switch `flow`'s packets reach, or null when none is live.
  SilkRoadSwitch* route(const FiveTuple& flow) {
    if (!fleet) return sw.get();
    const auto index = fleet->route_of(flow);
    return index ? &fleet->switch_at(*index) : nullptr;
  }
};

class ScenarioRun {
 public:
  ScenarioRun(const Options& opt, const Shape& shape)
      : opt_(opt),
        shape_(shape),
        horizon_(static_cast<sim::Time>(opt.seconds *
                                        static_cast<double>(shape.horizon_per_second))) {}

  Result run();

 private:
  /// Per-pass state. An untraced run makes two identical untraced passes;
  /// a traced run one untraced and one traced pass.
  struct Pass {
    Instance inst;
    std::unique_ptr<SpanLog> spans;
    std::vector<double> setup_s;
    double run_s = 0;
    double excluded_s = 0;  ///< burst + probes inside the run window
    /// Wall time between checkpoints, bursts excluded; the last segment is
    /// the drain after the arrival window.
    std::vector<double> segment_s;
    Clock::time_point segment_start;
    std::vector<double> burst_rates;
    silkroad::sim::Rng burst_rng;
    std::uint64_t burst_packets = 0;
    std::uint64_t burst_failed = 0;
    std::uint64_t peak_active = 0;
    std::uint64_t rss_before_kb = 0;
    std::uint64_t rss_at_peak_kb = 0;
    std::uint64_t restores = 0;
    std::uint64_t restore_ns = 0;
    std::unordered_set<FiveTuple, silkroad::net::FiveTupleHash> rerouted;
    /// The pool-update schedule the scenario runs.
    std::vector<silkroad::workload::DipUpdate> updates;
    std::map<std::string, double> layer;
    Fingerprint fingerprint;
  };

  void build(Pass& pass, bool traced);
  void schedule_faults(Pass& pass);
  void schedule_checkpoints(Pass& pass);
  /// A batch of data packets to installed flows (and, when `probe_layers`
  /// in a traced pass, the layer probes on the live table).
  void burst(Pass& pass, bool probe_layers);
  void finish(Pass& pass);

  Options opt_;
  Shape shape_;
  sim::Time horizon_;
  /// Sized like the scenario's working set (tens of MB).
  HostProbe probe_{24u << 20, 3.5e-3};
};

void ScenarioRun::build(Pass& pass, bool traced) {
  Instance& inst = pass.inst;
  pass.burst_rng = sim::Rng(opt_.seed ^ 0xB0257ULL);
  inst.sim = std::make_unique<sim::Simulator>();
  if (shape_.fleet) {
    inst.fleet = std::make_unique<SilkRoadFleet>(*inst.sim, switch_config(shape_.table_conns), kSwitches,
                                                 0xFEE7ULL ^ opt_.seed,
                                                 channel_config(opt_.seed));
  } else {
    inst.sw = std::make_unique<SilkRoadSwitch>(*inst.sim, switch_config(shape_.table_conns));
  }
  if (traced) pass.spans = std::make_unique<SpanLog>(1 << 18, 16);
  inst.timed = std::make_unique<TimedBalancer>(inst.inner(), pass.spans.get());
  auto config = scenario_config(shape_, opt_.seed, horizon_);
  pass.updates = config.updates;
  inst.scenario = std::make_unique<silkroad::lb::Scenario>(*inst.sim, *inst.timed,
                                                           std::move(config));
}

void ScenarioRun::schedule_faults(Pass& pass) {
  if (!shape_.fleet) return;
  Instance& inst = pass.inst;
  // Flows whose ECMP route moves are exempt from the PCC audit: the fleet
  // loses their state by design (same rule as the chaos harness).
  const auto exempt_routed_to = [&pass](std::size_t index) {
    for (const auto& flow : pass.inst.scenario->active_flows()) {
      if (const auto route = pass.inst.fleet->route_of(flow); route && *route == index) {
        pass.inst.scenario->exempt_flow(flow);
        pass.rerouted.insert(flow);
      }
    }
  };
  inst.fleet->set_membership_callback([exempt_routed_to](std::size_t index, bool alive) {
    if (alive) exempt_routed_to(index);
  });
  // Switch (k-1) mod 3 fails 15 s into minute k and is restored 20 s later.
  for (sim::Time at = 15 * sim::kSecond; at + 20 * sim::kSecond < horizon_;
       at += sim::kMinute) {
    const std::size_t index = static_cast<std::size_t>(at / sim::kMinute) % kSwitches;
    inst.sim->schedule_at(at, [&pass, index, exempt_routed_to] {
      exempt_routed_to(index);
      pass.inst.fleet->fail_switch(index);
    });
    inst.sim->schedule_at(at + 20 * sim::kSecond, [&pass, index] {
      const auto t0 = Clock::now();
      pass.inst.fleet->restore_switch(index);
      const std::uint64_t dur = ns_between(t0, Clock::now());
      ++pass.restores;
      pass.restore_ns += dur;
      if (pass.spans) pass.spans->record(Layer::kDeploy, 0, t0, dur, true);
    });
  }
}

void ScenarioRun::schedule_checkpoints(Pass& pass) {
  const sim::Time probe_at = (horizon_ / 2 / kCheckpoint) * kCheckpoint;
  for (sim::Time at = kCheckpoint; at <= horizon_; at += kCheckpoint) {
    pass.inst.sim->schedule_at(at, [this, &pass, at, probe_at] {
      std::uint64_t active = 0;
      for (std::size_t i = 0; i < pass.inst.switch_count(); ++i) {
        active += pass.inst.switch_at(i).active_connections();
      }
      if (active > pass.peak_active) {
        pass.peak_active = active;
        pass.rss_at_peak_kb = proc_status_kb("VmRSS");
      }
      pass.segment_s.push_back(seconds_between(pass.segment_start, Clock::now()));
      burst(pass, at == probe_at);
      pass.segment_start = Clock::now();
    });
  }
}

void ScenarioRun::burst(Pass& pass, bool probe_layers) {
  const auto t_begin = Clock::now();
  probe_.sample();
  Instance& inst = pass.inst;
  const auto& tracker = inst.scenario->tracker();
  // Flows the PCC audit exempts keep no DIP guarantee: those whose server
  // has left service (version reuse may re-map them) and those whose route
  // moved. The burst targets installed flows outside both sets.
  std::unordered_set<Endpoint, silkroad::net::EndpointHash> removed;
  for (const auto& update : pass.updates) {
    if (update.at <= inst.sim->now() &&
        update.action == silkroad::workload::UpdateAction::kRemoveDip) {
      removed.insert(update.dip);
    }
  }
  struct Target {
    FiveTuple flow;
    Endpoint dip;
  };
  std::vector<Target> targets;
  for (const auto& flow : inst.scenario->active_flows()) {
    SilkRoadSwitch* sw = inst.route(flow);
    const auto dip = tracker.assigned_dip(flow);
    if (sw != nullptr && dip && !removed.contains(*dip) && !pass.rerouted.contains(flow) &&
        sw->conn_table().contains(flow)) {
      targets.push_back({flow, *dip});
    }
  }
  if (targets.empty()) return;
  SpanLog* spans = pass.spans.get();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kBurstPackets; ++i) {
    const Target& t = targets[pass.burst_rng.next() % targets.size()];
    const silkroad::net::Packet packet{t.flow, false, false, 64};
    silkroad::lb::PacketResult r;
    if (spans != nullptr) {
      const auto p0 = Clock::now();
      r = inst.inner().process_packet(packet);
      spans->record(Layer::kCore, 0, p0, ns_between(p0, Clock::now()));
    } else {
      r = inst.inner().process_packet(packet);
    }
    if (!r.dip || !(*r.dip == t.dip)) ++pass.burst_failed;
  }
  pass.burst_rates.push_back(kBurstPackets / seconds_between(t0, Clock::now()));
  pass.burst_packets += kBurstPackets;

  if (probe_layers && spans != nullptr) {
    // Layer probes on the keys of the switch holding the first target.
    SilkRoadSwitch& sw = *inst.route(targets.front().flow);
    std::vector<FiveTuple> keys;
    for (const Target& t : targets) {
      if (inst.route(t.flow) == &sw) keys.push_back(t.flow);
    }
    pass.layer["net.hash_ns"] = time_hash_ns(keys);
    pass.layer["asic.lookup_ns"] = time_lookup_ns(sw, keys);
    pass.layer["core.select_ns"] = time_select_ns(sw, keys);
    // Fresh keys for the standalone table come from an address range the
    // scenario's clients never use.
    const auto key_of = [&keys](std::uint64_t id) {
      if (id < keys.size()) return keys[id];
      FiveTuple t = keys[id % keys.size()];
      t.src.ip = IpAddress::v4(0xC0000000u + static_cast<std::uint32_t>(id));
      return t;
    };
    std::vector<std::uint64_t> resident(keys.size());
    std::vector<std::uint64_t> fresh(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      resident[i] = i;
      fresh[i] = keys.size() + i;
    }
    pass.layer["asic.insert_erase_ns"] =
        time_insert_erase_ns(sw.conn_table().config(), key_of, resident, fresh);
  }
  pass.excluded_s += seconds_between(t_begin, Clock::now());
}

void ScenarioRun::finish(Pass& pass) {
  Instance& inst = pass.inst;
  const TimedBalancer& timed = *inst.timed;
  SilkRoadSwitch::Stats total{};
  std::uint64_t moves = 0;
  std::uint64_t stale = 0;
  std::uint64_t orphaned = 0;
  for (std::size_t i = 0; i < inst.switch_count(); ++i) {
    SilkRoadSwitch& sw = inst.switch_at(i);
    const auto s = sw.stats();
    total.packets += s.packets;
    total.inserts += s.inserts;
    total.insert_failures += s.insert_failures;
    total.erases += s.erases;
    total.syn_false_positives += s.syn_false_positives;
    total.non_syn_false_hits += s.non_syn_false_hits;
    total.relocation_failures += s.relocation_failures;
    total.updates_completed += s.updates_completed;
    total.software_fallback_conns += s.software_fallback_conns;
    moves += sw.conn_table().total_moves();
    // Every flow has ended: an entry still installed is stale, unless its
    // flow's route moved (its FIN then reached another switch and the entry
    // is orphaned by the failover, which the fleet does not clean up).
    for (const auto& entry : sw.conn_table().entries()) {
      (pass.rerouted.contains(entry.key) ? orphaned : stale) += 1;
    }
  }
  const auto& tracker = inst.scenario->tracker();
  const bool converged = !inst.fleet || inst.fleet->converged();

  Fingerprint& fp = pass.fingerprint;
  fp["flows"] = tracker.flows_seen();
  fp["pcc_violations"] = tracker.violations();
  fp["syn_packets"] = timed.packets(kSyn).calls;
  fp["fin_packets"] = timed.packets(kFin).calls;
  fp["probe_packets"] = timed.packets(kProbe).calls;
  fp["no_dip_packets"] = timed.no_dip();
  fp["risk_events"] = timed.risk_events();
  fp["self_checks"] = timed.self_checks().calls;
  fp["updates_requested"] = timed.updates().calls;
  fp["updates_completed"] = total.updates_completed;
  fp["switch_packets"] = total.packets;
  fp["inserts"] = total.inserts;
  fp["insert_failures"] = total.insert_failures;
  fp["erases"] = total.erases;
  fp["cuckoo_moves"] = moves;
  fp["syn_false_positives"] = total.syn_false_positives;
  fp["non_syn_false_hits"] = total.non_syn_false_hits;
  fp["relocation_failures"] = total.relocation_failures;
  fp["software_fallbacks"] = total.software_fallback_conns;
  fp["sim_events"] = inst.sim->executed_events();
  fp["burst_packets"] = pass.burst_packets;
  fp["burst_failed"] = pass.burst_failed;
  fp["stale_entries"] = stale;
  fp["orphaned_entries"] = orphaned;
  if (inst.fleet) {
    fp["rerouted_flows"] = pass.rerouted.size();
    fp["ctrl_retries"] = inst.fleet->ctrl_retries();
    fp["ctrl_resyncs"] = inst.fleet->ctrl_resyncs();
    fp["resync_bytes"] = inst.fleet->ctrl_resync_bytes();
    fp["delta_sessions"] = inst.fleet->delta_sessions();
    fp["full_sessions"] = inst.fleet->full_sessions();
    fp["converged"] = converged ? 1 : 0;
  }

  auto& m = pass.layer;
  m["lb.pcc_violations"] = static_cast<double>(tracker.violations());
  m["core.non_syn_false_hits"] = static_cast<double>(total.non_syn_false_hits);
  m["core.syn_false_positives"] = static_cast<double>(total.syn_false_positives);
  m["core.relocation_failures"] = static_cast<double>(total.relocation_failures);
  m["core.insert_failures"] = static_cast<double>(total.insert_failures);
  m["core.stale_entries"] = static_cast<double>(stale);
  m["asic.moves_per_insert"] =
      ratio(static_cast<double>(moves), static_cast<double>(total.inserts));
  m["sim.events_per_flow"] = ratio(static_cast<double>(inst.sim->executed_events()),
                                   static_cast<double>(tracker.flows_seen()));
  m["lb.probes_per_risk_event"] =
      ratio(static_cast<double>(timed.packets(kProbe).calls),
            static_cast<double>(timed.risk_events()));
  m["fault.ctrl_retries"] = inst.fleet ? static_cast<double>(inst.fleet->ctrl_retries()) : 0;
  m["fault.resync_bytes"] =
      inst.fleet ? static_cast<double>(inst.fleet->ctrl_resync_bytes()) : 0;
  m["deploy.delta_sessions"] =
      inst.fleet ? static_cast<double>(inst.fleet->delta_sessions()) : 0;
  m["deploy.full_sessions"] =
      inst.fleet ? static_cast<double>(inst.fleet->full_sessions()) : 0;
  if (pass.spans) {
    const double window_s = pass.run_s - pass.excluded_s;
    m["check.self_check_ms"] = timed.self_checks().mean_ns() / 1e6;
    m["check.self_check_share"] =
        ratio(static_cast<double>(timed.self_checks().ns) / 1e9, window_s);
    m["lb.packet_ns_syn"] = timed.packets(kSyn).mean_ns();
    m["lb.packet_ns_fin"] = timed.packets(kFin).mean_ns();
    m["lb.packet_ns_probe"] = timed.packets(kProbe).mean_ns();
    m["lb.driver_s"] = window_s - static_cast<double>(timed.inside_ns()) / 1e9;
    m["deploy.request_update_us"] = timed.updates().mean_ns() / 1e3;
    m["deploy.restore_ms"] =
        ratio(static_cast<double>(pass.restore_ns), static_cast<double>(pass.restores)) / 1e6;
    const auto hits = pass.spans->durations(Layer::kCore, 0);
    m["core.hit_ns_p50"] = quantile(hits, 0.5);
    m["core.hit_ns_p99"] = quantile(hits, 0.99);
    m["core.hit_residual_ns"] = m["core.hit_ns_p50"] - m["asic.lookup_ns"] - m["core.select_ns"];
    // SYN/FIN as the scenario sends them, through the decorated balancer.
    const auto syns = pass.spans->durations(Layer::kLb, kSyn);
    m["core.syn_ns_p50"] = quantile(syns, 0.5);
    m["core.syn_ns_p99"] = quantile(syns, 0.99);
    m["core.fin_ns_p50"] = quantile(pass.spans->durations(Layer::kLb, kFin), 0.5);
    // Inserts drain inside simulator events between packets, which no call
    // from outside can time apart from the driver: not measured here.
    m["core.drain_ns_per_conn"] = 0;
  }
  pass.fingerprint = fp;
}

Result ScenarioRun::run() {
  Result result;
  std::vector<std::unique_ptr<Pass>> done;
  for (int p = 0; p < 2; ++p) {
    const bool traced = opt_.trace && p == 1;
    auto pass = std::make_unique<Pass>();
    // Setup several times and keep the last instance.
    for (int s = 0; s < kSetups; ++s) {
      pass->inst.reset();
      pass->spans.reset();
      const auto t0 = Clock::now();
      build(*pass, traced);
      pass->setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    schedule_faults(*pass);
    schedule_checkpoints(*pass);
    pass->rss_before_kb = proc_status_kb("VmRSS");
    const auto t0 = Clock::now();
    pass->segment_start = t0;
    pass->inst.scenario->run();
    const auto t1 = Clock::now();
    pass->segment_s.push_back(seconds_between(pass->segment_start, t1));
    pass->run_s = seconds_between(t0, t1);
    finish(*pass);
    if (!done.empty() && done.front()->fingerprint != pass->fingerprint) {
      result.fail_check("simulated counts differ between two passes of the same seed");
    }
    // Keep only what the result needs; free the instance before the next pass.
    pass->inst.reset();
    done.push_back(std::move(pass));
  }

  const Pass& base = *done.front();
  const auto& fp = base.fingerprint;
  result.fingerprint = fp;
  result.attempted = fp.at("syn_packets") + fp.at("fin_packets") +
                     fp.at("probe_packets") + fp.at("burst_packets");
  const bool converged = !shape_.fleet || fp.at("converged") == 1;
  result.failed = fp.at("pcc_violations") + fp.at("no_dip_packets") +
                  fp.at("burst_failed") + fp.at("software_fallbacks") +
                  fp.at("stale_entries") + (converged ? 0 : 1);
  if (!converged) result.notes.push_back("fleet did not converge after the drain");

  // Contention from other tenants of the host only ever slows work down.
  // The untraced passes do identical work segment by segment, so the faster
  // pass's time of each segment is the steadier estimate of the code's own
  // speed; likewise the fast quartile of the bursts.
  std::vector<double> setups;
  std::vector<double> bursts;
  double quiet_s = 0;
  for (std::size_t k = 0; k < base.segment_s.size(); ++k) {
    double best = base.segment_s[k];
    for (const auto& pass : done) {
      if (pass->spans == nullptr) best = std::min(best, pass->segment_s.at(k));
    }
    quiet_s += best;
  }
  for (const auto& pass : done) {
    if (pass->spans != nullptr) continue;
    setups.insert(setups.end(), pass->setup_s.begin(), pass->setup_s.end());
    bursts.insert(bursts.end(), pass->burst_rates.begin(), pass->burst_rates.end());
  }
  auto& m = result.metrics;
  m = base.layer;
  report_end_to_end(result, probe_, median(setups), quantile(bursts, 0.75) / 1e6,
                    static_cast<double>(fp.at("flows")) / quiet_s);
  // Host memory the run grew by, per connection held, at the checkpoint
  // with the most live connections.
  m["host_bytes_per_conn"] =
      ratio(static_cast<double>(base.rss_at_peak_kb) - static_cast<double>(base.rss_before_kb),
            static_cast<double>(base.peak_active)) * 1024.0;
  if (opt_.trace) {
    const Pass& traced = *done.back();
    for (const auto& [name, value] : traced.layer) m[name] = value;
    m["trace_overhead_pct"] =
        100.0 * ((traced.run_s - traced.excluded_s) / (base.run_s - base.excluded_s) - 1.0);
  }
  return result;
}

}  // namespace

Result run_pcc_scenario(const Options& opt) {
  return ScenarioRun(opt, {.fleet = false,
                           .conns_per_min = 50'000,
                           .updates_per_min = 50,
                           .horizon_per_second = 36 * sim::kSecond,
                           .table_conns = 400'000})
      .run();
}

Result run_fleet_sync(const Options& opt) {
  return ScenarioRun(opt, {.fleet = true,
                           .conns_per_min = 30'000,
                           .updates_per_min = 100,
                           .horizon_per_second = 24 * sim::kSecond,
                           // Sized to the fleet's load (≈5K live flows per
                           // switch), so the O(capacity) invariant audit
                           // after each update does not drown the sync,
                           // deploy and fault paths this workload exists for.
                           .table_conns = 100'000})
      .run();
}

}  // namespace perfbench
