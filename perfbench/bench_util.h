// Shared plumbing of the host-time benchmark: wall-clock timing, process
// memory readings, robust statistics, the in-memory span log of a traced run,
// and the result record main.cc prints as JSON.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// One field of /proc/self/status in kB ("VmRSS", "VmHWM"); 0 if absent.
inline std::uint64_t proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  }
  return 0;
}

inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Counts of simulated behaviour that must repeat exactly for a given seed:
/// across repeated runs, and between traced and untraced runs. Ordered, so
/// the printed form is stable.
using Fingerprint = std::map<std::string, std::uint64_t>;

/// Layers the benchmark's spans are recorded at, named after the modules.
enum class Layer : std::uint8_t { kCore, kCheck, kLb, kDeploy };

/// In-memory span log of a traced run. Every call into a timed layer is
/// measured and summed; only one in `sample_every` hot-path spans is kept,
/// in storage reserved up front, so tracing adds no allocation while a phase
/// runs and does not grow the process's memory with the run length.
class SpanLog {
 public:
  struct Span {
    Layer layer = Layer::kCore;
    std::uint16_t op = 0;  ///< operation id within the layer (caller-defined)
    std::uint64_t start_ns = 0;  ///< since the log was created
    std::uint64_t dur_ns = 0;
  };

  SpanLog(std::size_t capacity, std::uint32_t sample_every)
      : sample_every_(sample_every), origin_(Clock::now()) {
    spans_.reserve(capacity);
  }

  /// Records a finished span unless sampling skips it or the log is full.
  /// `always` bypasses sampling for rare spans (self checks, updates,
  /// restores).
  void record(Layer layer, std::uint16_t op, Clock::time_point start, std::uint64_t dur_ns,
              bool always = false) {
    if (!always && ++tick_ % sample_every_ != 0) return;
    if (spans_.size() == spans_.capacity()) return;
    spans_.push_back({layer, op, ns_between(origin_, start), dur_ns});
  }

  /// Durations (ns) of the kept spans of one (layer, op).
  std::vector<double> durations(Layer layer, std::uint16_t op) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.layer == layer && s.op == op) out.push_back(static_cast<double>(s.dur_ns));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t sample_every_;
  std::uint64_t tick_ = 0;
  Clock::time_point origin_;
};

/// Exact call count and summed wall time of one operation at a layer boundary.
struct CallTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(std::uint64_t dur_ns) {
    ++calls;
    ns += dur_ns;
  }
  double mean_ns() const { return ratio(static_cast<double>(ns), static_cast<double>(calls)); }
};

/// Host-speed probe. Other tenants of a shared host slow this benchmark by
/// up to a third for minutes at a time, through the shared cache and memory.
/// The probe times a fixed dependent random walk over an array sized like the
/// workload's working set, between workload batches; the run's median probe
/// time over the nominal one rescales the timed rates to a host running at
/// nominal speed. The probe is the benchmark's own code and does not change
/// with the library.
class HostProbe {
 public:
  /// `bytes`: walk footprint. `nominal_s`: the probe's time on a quiet 4-vCPU
  /// host the benchmark was calibrated on.
  HostProbe(std::size_t bytes, double nominal_s)
      : nominal_s_(nominal_s), next_(bytes / sizeof(std::uint32_t)) {
    // Sattolo's shuffle: a single cycle through every word.
    const auto words = static_cast<std::uint32_t>(next_.size());
    for (std::uint32_t i = 0; i < words; ++i) next_[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = words - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next_[i], next_[x % i]);
    }
  }

  void sample() {
    const auto t0 = Clock::now();
    std::uint32_t at = at_;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    at_ = at;
    samples_.push_back(seconds_between(t0, Clock::now()));
  }

  /// Host slowdown factor: median probe time over the nominal (1 = nominal).
  double slowdown() const { return samples_.empty() ? 1.0 : median(samples_) / nominal_s_; }
  double median_ms() const { return median(samples_) * 1e3; }
  /// Resident memory the probe itself holds (excluded from peak_rss_mb).
  std::uint64_t resident_kb() const { return next_.size() * sizeof(std::uint32_t) / 1024; }

 private:
  static constexpr int kSteps = 20'000;
  double nominal_s_;
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  std::vector<double> samples_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Everything one workload run measured and checked. `metrics` holds every
/// figure the run computed, keyed by metric name; main.cc selects the
/// end-to-end or the per-layer set for the JSON line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when an exact count failed to reconcile or to repeat; failed
  /// operations alone are reported through `failed`, not hidden here.
  bool correct = true;
  std::map<std::string, double> metrics;
  Fingerprint fingerprint;
  std::vector<std::string> notes;

  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Sets the end-to-end metrics every workload reports: the rates rescaled by
/// the host probe (the raw figures go to a note; the probe samples the
/// measured phases, not setup, so setup_s is reported as measured), and peak
/// RSS without the probe's own memory.
inline void report_end_to_end(Result& result, const HostProbe& probe, double setup_s,
                              double hit_mpps, double churn_conns_per_s) {
  const double slowdown = probe.slowdown();
  auto& m = result.metrics;
  m["setup_s"] = setup_s;
  m["hit_mpps"] = hit_mpps * slowdown;
  m["churn_conns_per_s"] = churn_conns_per_s * slowdown;
  m["peak_rss_mb"] =
      static_cast<double>(proc_status_kb("VmHWM") - probe.resident_kb()) / 1024.0;
  result.notes.push_back("host probe " + std::to_string(probe.median_ms()) +
                         " ms (slowdown " + std::to_string(slowdown) +
                         "); unadjusted hit_mpps=" + std::to_string(hit_mpps) +
                         " churn_conns_per_s=" + std::to_string(churn_conns_per_s));
}

}  // namespace perfbench
