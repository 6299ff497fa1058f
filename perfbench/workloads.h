// The benchmark's workloads. Each builds its inputs from Options::seed only,
// measures a fixed amount of work sized by Options::seconds, checks the
// program's outputs, and returns every figure it computed.
#pragma once

#include "bench_util.h"

namespace perfbench {

/// conntable_1m: 1M connections on one switch; read and churn phases.
Result run_conntable(const Options& opt);

/// pcc_scenario: lb::Scenario on one switch at the paper's high update rate.
Result run_pcc_scenario(const Options& opt);

/// fleet_sync: lb::Scenario over a 3-switch fleet with lossy control
/// channels and a switch failed and restored every simulated minute.
Result run_fleet_sync(const Options& opt);

}  // namespace perfbench
