#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "obs/process_stats.hpp"
#include "support/json.hpp"

namespace perfbench {

void Outcome::fail(const std::string& what, std::uint64_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(what);
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"tasks_per_s", "1/s"},
      {"makespan_over_lb", "ratio"},
  };
  return specs;
}

const std::vector<std::string>& traced_algorithms() {
  // dag-soa runs catbatch; sweep-graph the standard lineup (the first
  // seven); trace-swf relaxed-catbatch and the two backfill schedulers.
  static const std::vector<std::string> algos = {
      "catbatch",          "relaxed-catbatch",
      "list-fifo",         "list-longest-first",
      "list-widest-first", "list-smallest-criticality",
      "easy-backfill",     "conservative-backfill"};
  return algos;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        {"layer_sum_ratio", "ratio"},
        {"trace_overhead_ratio", "ratio"},
        {"core.freeze_s", "s"},
        {"core.freeze_speedup", "ratio"},
        {"core.criticality_s", "s"},
        {"sim.ingest_s", "s"},
        {"sim.ingest_speedup", "ratio"},
        {"sim.loop_self_s", "s"},
        {"sim.finish_s", "s"},
        {"sim.events", "count"},
        {"sim.decision_points", "count"},
        {"sim.replay_s.relaxed-catbatch", "s"},
        {"sim.replay_s.easy-backfill", "s"},
        {"sim.replay_s.conservative-backfill", "s"},
        {"instances.generate_s", "s"},
        {"instances.parse_s", "s"},
        {"instances.dropped", "count"},
        {"analysis.sweep_s", "s"},
        {"analysis.run_s", "s"},
        {"analysis.run_self_s", "s"},
        {"analysis.worker_busy_ratio", "ratio"},
        {"analysis.flow_s", "s"},
        {"service.request_encode_us", "us"},
        {"service.reply_decode_us", "us"},
        {"service.hub_us", "us"},
        {"service.transport_us", "us"},
        {"service.requests", "count"},
        {"service.error_replies", "count"},
        {"service.bytes_per_request", "B"},
    };
    for (const std::string& algo : traced_algorithms()) {
      out.push_back({"sched.select_s." + algo, "s"});
      out.push_back({"sched.ready_s." + algo, "s"});
      out.push_back({"sched.finished_s." + algo, "s"});
      out.push_back({"sched.select_calls." + algo, "count"});
      out.push_back({"sched.select_useful_ratio." + algo, "ratio"});
    }
    return out;
  }();
  return specs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  return static_cast<double>(catbatch::peak_rss_bytes()) / (1024.0 * 1024.0);
}

CpuSample sample_cpu() {
  CpuSample s;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return s;
  std::uint64_t field = 0;
  for (int k = 0; k < 8 && (in >> field); ++k) {
    s.total += field;
    if (k == 7) s.steal = field;
  }
  return s;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double one = -1.0;
  in >> one;
  return one;
}

std::uint64_t cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

double reference_kernel_ms() {
  // 512 KiB of keys: small next to every workload's footprint, so the
  // kernel never sets the process's peak RSS.
  std::vector<std::uint64_t> keys(std::size_t{1} << 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double total_s = 0.0;
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
    const auto t0 = Clock::now();
    std::sort(keys.begin(), keys.end());
    total_s += seconds_since(t0);
  }
  return total_s * 1e3;
}

std::string host_record_json(const Args& args, const CpuSample& begin,
                             const CpuSample& end, double kernel_before_ms,
                             double kernel_after_ms) {
  const std::uint64_t total = end.total - begin.total;
  const std::uint64_t steal = end.steal - begin.steal;
  catbatch::JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("seconds").value(args.seconds);
  w.key("trace").value(args.trace);
  w.key("scale").value(args.scale);
  w.key("nproc").value(args.threads);
  w.key("cpu_model").value(cpu_model());
  w.key("l2_bytes").value(cache_bytes(_SC_LEVEL2_CACHE_SIZE));
  w.key("l3_bytes").value(cache_bytes(_SC_LEVEL3_CACHE_SIZE));
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("git_commit").value(args.commit);
  w.key("steal_share")
      .value(total > 0 ? static_cast<double>(steal) /
                             static_cast<double>(total)
                       : 0.0);
  w.key("load_average_1m").value(load_average_1m());
  w.key("reference_kernel_ms").begin_array();
  w.value(kernel_before_ms).value(kernel_after_ms);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
