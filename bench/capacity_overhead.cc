// Capacity-ledger overhead gate (DESIGN.md §15): the chaos-style
// control-plane scenario run as interleaved pairs — Config::capacity_telemetry
// off vs on — with the overhead taken as the median per-pair CPU-time ratio.
// The ledger's contract is that it is cheap enough to leave on everywhere:
// the per-packet cost is one uint64 compare (the poll rate limiter) and a
// full table sweep at most once per 10 ms of sim time. The headline
// capacity_overhead_pct must stay under 5% of the untracked run, and the
// committed baseline pins that. Sim-side numbers (flows, violations,
// convergence) are identical across the two runs by construction — the
// ledger only observes, it must never change behavior.
#include "bench_common.h"

using namespace silkroad;

namespace {

constexpr int kReps = 9;

struct RunResult {
  double cpu_ms = 0;
  std::uint64_t flows = 0;
  std::uint64_t violations = 0;
  std::size_t ledger_tables = 0;
  std::uint64_t alarm_transitions = 0;
  bool converged = false;
};

RunResult run_once(bool ledger_enabled) {
  const double start = bench::cpu_ms();
  core::SilkRoadSwitch::Config config;
  config.capacity_telemetry = ledger_enabled;
  bench::ControlPlaneScenario scenario(config);
  const lb::ScenarioStats stats = scenario.run();

  RunResult result;
  result.cpu_ms = bench::cpu_ms() - start;
  result.flows = stats.flows;
  result.violations = stats.violations;
  result.converged = scenario.fleet.converged();
  for (std::size_t s = 0; s < scenario.fleet.size(); ++s) {
    const auto& ledger = scenario.fleet.switch_at(s).capacity();
    result.ledger_tables += ledger.table_count();
    result.alarm_transitions += ledger.total_transitions();
  }
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "capacity ledger overhead — chaos-style control plane, ledger on vs off",
      "the SRAM ledger must be cheap enough to leave on: <5% CPU overhead");

  const auto pairs = bench::on_off_pairs(kReps, run_once);
  const RunResult& base = pairs.off;
  const RunResult& tracked = pairs.on;
  const double overhead_pct = pairs.median_pct();

  std::printf("\n%-28s %12s %12s\n", "", "ledger off", "ledger on");
  std::printf("%-28s %12.1f %12.1f\n", "cpu_ms (min of 9)", base.cpu_ms,
              tracked.cpu_ms);
  std::printf("%-28s %12llu %12llu\n", "flows",
              static_cast<unsigned long long>(base.flows),
              static_cast<unsigned long long>(tracked.flows));
  std::printf("%-28s %12zu %12zu\n", "ledger tables", base.ledger_tables,
              tracked.ledger_tables);
  std::printf("%-28s %12llu %12llu\n", "alarm transitions",
              static_cast<unsigned long long>(base.alarm_transitions),
              static_cast<unsigned long long>(tracked.alarm_transitions));
  std::printf("%-28s %12.2f%%  (median of %zu interleaved pairs)\n",
              "capacity_overhead_pct", overhead_pct, pairs.ratios.size());

  const bool behavior_identical = base.flows == tracked.flows &&
                                  base.violations == tracked.violations &&
                                  base.converged && tracked.converged;
  // The disabled side registers no tables at all; the enabled side carries
  // the four SRAM-bearing tables on every switch.
  const bool ledger_live =
      base.ledger_tables == 0 &&
      tracked.ledger_tables == 4 * bench::ControlPlaneScenario::kSwitches;

  // Absolute CPU ms is machine-dependent and deliberately NOT a headline; the
  // committed baseline pins the relative overhead and the sim-side counts.
  bench::headline("capacity_overhead_pct", overhead_pct,
                  "ledger-on CPU time over ledger-off, percent (budget: <5)");
  bench::headline("ledger_tables", static_cast<double>(tracked.ledger_tables),
                  "SRAM tables registered across the fleet (4 per switch)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "the ledger changed no sim-visible outcome (must be 1)");
  bench::emit_headlines("capacity_overhead");

  if (!behavior_identical || !ledger_live) return 1;
  return overhead_pct < 5.0 ? 0 : 1;
}
