// perfbench: the repo benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--inject oversubscribe] [--socket-dir D]
//             [--commit ID]
//
// Prints a host/window record and a full report line (every metric with its
// unit and sample counts), then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 2 on a usage error, 0 otherwise (failed operations are in the
// result, not in the exit code).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "support/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dag-soa|sweep-graph|trace-swf|service-unix --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] "
               "[--inject oversubscribe] [--socket-dir DIR] [--commit ID]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

void write_metrics(catbatch::JsonWriter& w,
                   const std::vector<MetricSpec>& specs,
                   const std::map<std::string, Metric>& have) {
  w.begin_object();
  for (const MetricSpec& spec : specs) {
    const auto it = have.find(spec.name);
    // A layer the workload does not run reads 0.
    double value = it == have.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    w.key(spec.name).begin_object();
    w.key("value").value(value);
    w.key("unit").value(spec.unit);
    w.end_object();
  }
  w.end_object();
}

void write_all(catbatch::JsonWriter& w,
               const std::map<std::string, Metric>& metrics) {
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, &number) || number < 0 ||
          number != std::floor(number)) {
        return usage("--seed must be a non-negative integer");
      }
      args.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &number) || number <= 0) {
        return usage("--seconds must be positive");
      }
      args.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return usage("--trace must be 0 or 1");
      }
      args.trace = std::string(value) == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      args.scale = value;
      if (args.scale != "full" && args.scale != "tiny") {
        return usage("--scale must be full or tiny");
      }
    } else if (flag == "--inject") {
      args.inject = value;
      if (args.inject != "oversubscribe") {
        return usage("--inject must be oversubscribe");
      }
    } else if (flag == "--socket-dir") {
      args.socket_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  args.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "dag-soa") run = run_dag_soa;
  if (args.workload == "sweep-graph") run = run_sweep_graph;
  if (args.workload == "trace-swf") run = run_trace_swf;
  if (args.workload == "service-unix") run = run_service_unix;
  if (run == nullptr) return usage("unknown workload");

  const double kernel_before_ms = reference_kernel_ms();
  const CpuSample begin = sample_cpu();
  Outcome out;
  try {
    out = run(args);
  } catch (const std::exception& e) {
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.fail(std::string("workload aborted: ") + e.what());
  }
  const CpuSample end = sample_cpu();
  const double kernel_after_ms = reference_kernel_ms();

  std::printf("perfbench host %s\n",
              host_record_json(args, begin, end, kernel_before_ms,
                               kernel_after_ms)
                  .c_str());

  catbatch::JsonWriter detail;
  detail.begin_object();
  detail.key("metrics");
  write_all(detail, out.metrics);
  detail.key("report");
  write_all(detail, out.report);
  detail.key("failures").begin_array();
  for (const std::string& f : out.failures) detail.value(f);
  detail.end_array();
  detail.end_object();
  std::printf("perfbench report %s\n", detail.str().c_str());
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-44s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : out.report) {
    std::printf("  %-44s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  catbatch::JsonWriter result;
  result.begin_object();
  result.key("correct").value(out.failed == 0);
  result.key("attempted").value(std::max<std::uint64_t>(out.attempted, 1));
  result.key("failed").value(out.failed);
  result.key("metrics");
  write_metrics(result, args.trace ? per_layer_metrics() : end_to_end_metrics(),
                out.metrics);
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  return 0;
}
