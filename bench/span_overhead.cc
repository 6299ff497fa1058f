// Span-tracing overhead gate (DESIGN.md §12): the chaos-style control-plane
// scenario run as interleaved untraced/traced pairs — SpanCollector disabled
// vs enabled — with the overhead taken as the median per-pair CPU-time
// ratio. The tracing contract is that the causal span tree is cheap enough
// to leave on everywhere: the headline span_overhead_pct must stay under 5%
// of the untraced run, and the committed baseline pins that.
// Sim-side numbers (flows, spans, audit problems) are identical across the
// two runs by construction — tracing must never change behavior.
#include "bench_common.h"

using namespace silkroad;

namespace {

constexpr int kReps = 9;

struct RunResult {
  double cpu_ms = 0;
  std::uint64_t flows = 0;
  std::uint64_t violations = 0;
  std::uint64_t spans_started = 0;
  std::uint64_t span_events = 0;
  std::size_t audit_problems = 0;
  bool converged = false;
};

RunResult run_once(bool spans_enabled) {
  const double start = bench::cpu_ms();
  bench::ControlPlaneScenario scenario({});
  scenario.fleet.spans().set_enabled(spans_enabled);
  const lb::ScenarioStats stats = scenario.run();

  RunResult result;
  result.cpu_ms = bench::cpu_ms() - start;
  result.flows = stats.flows;
  result.violations = stats.violations;
  result.spans_started = scenario.fleet.spans().total_started();
  result.span_events = scenario.fleet.spans().events_recorded();
  result.audit_problems = scenario.fleet.spans().audit_complete().size();
  result.converged = scenario.fleet.converged();
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "span tracing overhead — chaos-style control plane, traced vs untraced",
      "tracing must be cheap enough to leave on: <5% of untraced wall clock");

  const auto pairs = bench::on_off_pairs(kReps, run_once);
  const RunResult& base = pairs.off;
  const RunResult& traced = pairs.on;
  const double overhead_pct = pairs.median_pct();

  std::printf("\n%-28s %12s %12s\n", "", "untraced", "traced");
  std::printf("%-28s %12.1f %12.1f\n", "cpu_ms (min of 9)", base.cpu_ms,
              traced.cpu_ms);
  std::printf("%-28s %12llu %12llu\n", "flows",
              static_cast<unsigned long long>(base.flows),
              static_cast<unsigned long long>(traced.flows));
  std::printf("%-28s %12llu %12llu\n", "spans_started",
              static_cast<unsigned long long>(base.spans_started),
              static_cast<unsigned long long>(traced.spans_started));
  std::printf("%-28s %12llu %12llu\n", "span_events",
              static_cast<unsigned long long>(base.span_events),
              static_cast<unsigned long long>(traced.span_events));
  std::printf("%-28s %12.2f%%  (median of %zu interleaved pairs)\n",
              "span_overhead_pct", overhead_pct, pairs.ratios.size());

  const bool behavior_identical = base.flows == traced.flows &&
                                  base.violations == traced.violations &&
                                  base.converged && traced.converged;
  const bool complete = traced.audit_problems == 0 &&
                        traced.spans_started > 0 && base.spans_started == 0;

  // Absolute CPU ms is machine-dependent and deliberately NOT a headline; the
  // committed baseline pins the relative overhead and the sim-side counts.
  bench::headline("span_overhead_pct", overhead_pct,
                  "traced CPU time over untraced, percent (budget: <5)");
  bench::headline("spans_started", static_cast<double>(traced.spans_started),
                  "update/resync spans minted in the traced run");
  bench::headline("span_audit_problems",
                  static_cast<double>(traced.audit_problems),
                  "incomplete span legs at quiesce (must be 0)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "tracing changed no sim-visible outcome (must be 1)");
  bench::emit_headlines("span_overhead");

  if (!behavior_identical || !complete) return 1;
  return overhead_pct < 5.0 ? 0 : 1;
}
