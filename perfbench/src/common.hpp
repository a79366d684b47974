// Shared plumbing of the repo benchmark: arguments, the metric catalogue,
// per-workload outcomes, statistics and the host/window record.
//
// Every workload is a function Outcome(const Args&). It sets up its inputs
// from --seed, measures for --seconds, checks every output it produces and
// counts failed operations against attempted ones. With --trace 0 it fills
// the end-to-end metrics; with --trace 1 it interleaves untraced and traced
// iterations and fills the per-layer metrics. Spans are taken here, around
// calls into the library's public functions; nothing under src/ is timed
// from the inside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the measured sizes) or "tiny" (the smoke test's sizes).
  std::string scale = "full";
  /// "" or "oversubscribe": wrap every in-process scheduler so it starts
  /// one task more than the free processors allow. Proves the checks fail.
  std::string inject;
  int threads = 1;  // nproc: the benchmark's whole thread budget
  /// Where service-unix binds its socket (relative, to stay short).
  std::string socket_dir = ".";
  /// Source id recorded in the host record (git commit or tree digest).
  std::string commit = "unknown";

  [[nodiscard]] bool tiny() const { return scale == "tiny"; }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for the report
  /// Metrics of this run (end-to-end with --trace 0, per-layer with 1).
  std::map<std::string, Metric> metrics;
  /// Workload-specific figures printed in the report line only (sample
  /// counts, per-scheduler rates, latency percentiles).
  std::map<std::string, Metric> report;

  /// Counts `count` failed operations, keeping `what` for the report.
  void fail(const std::string& what, std::uint64_t count = 1);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report[name] = Metric{value, unit};
  }
};

/// The catalogue BENCHMARK.json mirrors (the smoke test diffs the two).
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Schedulers whose callbacks the per-layer run times, in catalogue order.
const std::vector<std::string>& traced_algorithms();

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of `v` (copied, then sorted).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

[[nodiscard]] double peak_rss_mb();

/// CPU time counters from /proc/stat, sampled at the window's ends.
struct CpuSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuSample sample_cpu();

/// Wall time, in ms, of a fixed kernel (eight sorts of 2^16 pseudo-random
/// keys). Taken before and after the workload: this host's speed drifts by
/// tens of percent over minutes, and the pair shows how fast it was.
[[nodiscard]] double reference_kernel_ms();

/// Host record (fixed for the machine) plus the measurement window's
/// steal share, load average and reference-kernel times, as one JSON
/// object.
[[nodiscard]] std::string host_record_json(const Args& args,
                                           const CpuSample& begin,
                                           const CpuSample& end,
                                           double kernel_before_ms,
                                           double kernel_after_ms);

/// Runs `body` `reps` times and returns the median wall time. Set-up is
/// measured this way so that a single slow repetition does not move it.
template <typename Body>
double median_setup_seconds(int reps, Body&& body) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(r == reps - 1);
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// The measurement window: calls body(traced) until `args.seconds` have
/// passed and at least `min_iters` iterations ran. A --trace 1 run
/// alternates untraced and traced iterations (starting untraced), so the
/// trace overhead is measured in the same window as the layers.
template <typename Body>
void measure_window(const Args& args, int min_iters, Body&& body) {
  const auto t0 = Clock::now();
  for (int i = 0; i < min_iters || seconds_since(t0) < args.seconds; ++i) {
    body(args.trace && i % 2 == 1);
  }
}

}  // namespace perfbench
