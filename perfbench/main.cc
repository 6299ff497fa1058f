// Host-time benchmark driver.
//
//   perfbench --workload <conntable_1m|pcc_scenario|fleet_sync>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints notes and the run's exact-count fingerprint, then, as the last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs (--trace 0) report the end-to-end metrics;
// traced runs (--trace 1) the per-layer metrics. README.md explains each.
#include <cmath>
#include <cstdio>
#include <span>
#include <string>

#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"hit_mpps", "Mpps"},
    {"churn_conns_per_s", "conn/s"},
    {"host_bytes_per_conn", "B"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.hash_ns", "ns"},
    {"asic.lookup_ns", "ns"},
    {"asic.insert_erase_ns", "ns"},
    {"asic.moves_per_insert", "count"},
    {"core.select_ns", "ns"},
    {"core.hit_ns_p50", "ns"},
    {"core.hit_ns_p99", "ns"},
    {"core.hit_residual_ns", "ns"},
    {"core.syn_ns_p50", "ns"},
    {"core.syn_ns_p99", "ns"},
    {"core.fin_ns_p50", "ns"},
    {"core.drain_ns_per_conn", "ns"},
    {"core.non_syn_false_hits", "count"},
    {"core.syn_false_positives", "count"},
    {"core.relocation_failures", "count"},
    {"core.insert_failures", "count"},
    {"core.stale_entries", "count"},
    {"check.self_check_ms", "ms"},
    {"check.self_check_share", "ratio"},
    {"check.failed_ops_share", "ratio"},
    {"lb.packet_ns_syn", "ns"},
    {"lb.packet_ns_fin", "ns"},
    {"lb.packet_ns_probe", "ns"},
    {"lb.probes_per_risk_event", "count"},
    {"lb.driver_s", "s"},
    {"lb.pcc_violations", "count"},
    {"sim.events_per_flow", "count"},
    {"deploy.request_update_us", "us"},
    {"deploy.restore_ms", "ms"},
    {"deploy.delta_sessions", "count"},
    {"deploy.full_sessions", "count"},
    {"fault.ctrl_retries", "count"},
    {"fault.resync_bytes", "B"},
    {"trace_overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<conntable_1m|pcc_scenario|fleet_sync> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  // Below 1 s the scenario workloads would end before their first checkpoint.
  if (!(opt.seconds >= 1 && opt.seconds <= 60)) return usage("--seconds must be in [1, 60]");

  perfbench::Result result;
  if (opt.workload == "conntable_1m") {
    result = perfbench::run_conntable(opt);
  } else if (opt.workload == "pcc_scenario") {
    result = perfbench::run_pcc_scenario(opt);
  } else if (opt.workload == "fleet_sync") {
    result = perfbench::run_fleet_sync(opt);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  result.metrics["check.failed_ops_share"] = perfbench::ratio(
      static_cast<double>(result.failed), static_cast<double>(result.attempted));

  for (const std::string& note : result.notes) std::printf("note: %s\n", note.c_str());
  std::printf("fingerprint {");
  const char* sep = "";
  for (const auto& [name, value] : result.fingerprint) {
    std::printf("%s\"%s\": %llu", sep, name.c_str(), static_cast<unsigned long long>(value));
    sep = ", ";
  }
  std::printf("}\n");

  std::string metrics;
  for (const MetricDef& def : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                        : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
      return 3;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, it->second, def.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
