#include "obs/stage_profiler.h"

namespace silkroad::obs {

StageProfiler::StageProfiler(MetricsRegistry& registry,
                             const std::string& prefix, std::size_t stages) {
  stages_.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string label = "stage=\"" + std::to_string(i) + "\"";
    Stage stage;
    stage.packets = registry.counter(prefix + "_stage_packets_total",
                                     "packets examined by the stage", label);
    stage.hits = registry.counter(prefix + "_stage_hits_total",
                                  "table hits at the stage", label);
    stage.misses = registry.counter(prefix + "_stage_misses_total",
                                    "table misses at the stage", label);
    stage.latency_ns = registry.counter(
        prefix + "_stage_latency_ns_total",
        "modeled processing latency charged to the stage", label);
    stage.reentries = registry.counter(
        prefix + "_profiler_reentry_total",
        "nested enter() on an already-open stage scope (double-accounting "
        "avoided and counted here)",
        label);
    stages_.push_back(stage);
  }
}

}  // namespace silkroad::obs
