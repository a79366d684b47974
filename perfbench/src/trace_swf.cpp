// trace-swf: release-time events and the generic submit(vector<SourceTask>)
// ingest path. Each iteration parses a 100k-job SWF text, replays it for
// relaxed-catbatch and the two backfill schedulers, and computes their flow
// metrics.
//
// At offered load 0.7 relaxed-catbatch runs close to saturation: its queue,
// and so its select() cost, differs by up to 2x from one drawn trace to the
// next. One trace per run would make the seed, not the code, decide the
// figure; so set-up draws several traces from the seed, iterations cycle
// through them, and every trace is replayed at least once per run.
#include <exception>
#include <sstream>

#include "analysis/flow_metrics.hpp"
#include "checks.hpp"
#include "instances/trace.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace catbatch;

namespace {

constexpr const char* kAlgos[] = {"relaxed-catbatch", "easy-backfill",
                                  "conservative-backfill"};
constexpr std::size_t kAlgoCount = std::size(kAlgos);
constexpr int kProcs = 256;
constexpr double kLoad = 0.7;

struct Trace {
  std::string text;
  double lower_bound = 0.0;  // max(max_i(submit_i + run_i), area / P)
  double makespan[kAlgoCount] = {-1.0, -1.0, -1.0};
  double mean_flow[kAlgoCount] = {-1.0, -1.0, -1.0};
  std::vector<double> untraced_s, traced_s;  // whole iterations
  std::vector<double> replay_rates[kAlgoCount];
};

struct Layers {
  std::vector<double> replay_s, select, ready, finished, calls, useful;
};

}  // namespace

Outcome run_trace_swf(const Args& args) {
  const std::size_t jobs = args.tiny() ? 2000 : 100000;
  const std::size_t trace_count = args.tiny() ? 2 : 8;
  const bool inject = args.inject == "oversubscribe";
  Outcome out;

  std::vector<Trace> traces(trace_count);
  const double setup_s = median_setup_seconds(5, [&](bool) {
    for (std::size_t k = 0; k < trace_count; ++k) {
      Rng rng(args.seed * trace_count + k);
      const TraceWorkload trace =
          generate_swf_workload(rng, jobs, kProcs, kLoad);
      std::ostringstream os;
      write_swf(trace, os);
      traces[k].text = os.str();
      double area = 0.0;
      double last = 0.0;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        area += trace.run[i] * std::min(trace.procs[i], kProcs);
        last = std::max(last, trace.submit[i] + trace.run[i]);
      }
      traces[k].lower_bound = std::max(last, area / kProcs);
    }
  });

  Layers layers[kAlgoCount];
  std::vector<double> traced_s, parse, flow, loop_self, sched_sum;
  double events = 0.0;
  double decision_points = 0.0;
  double dropped = 0.0;
  std::size_t iteration = 0;

  const auto run_once = [&](bool traced) {
    // A --trace 1 run replays each trace untraced, then traced.
    Trace& tr = traces[(args.trace ? iteration / 2 : iteration) % trace_count];
    ++iteration;
    out.attempted += 1 + kAlgoCount;  // the parse, then each replay
    const auto t0 = Clock::now();
    TraceWorkload trace;
    try {
      std::istringstream in(tr.text);
      trace = parse_swf(in);
    } catch (const std::exception& e) {
      out.fail(std::string("parse failed: ") + e.what(), 1 + kAlgoCount);
      return;
    }
    const double parse_s = seconds_since(t0);
    dropped = static_cast<double>(trace.dropped);
    if (trace.size() != jobs || trace.dropped != 0) {
      out.fail("parse lost jobs", 1 + kAlgoCount);
      return;
    }
    const std::span<const Time> run(trace.run.data(), trace.run.size());

    double total_s = parse_s;
    double flow_s = 0.0;
    double self_s = 0.0;
    double sched_s = 0.0;
    double ev = 0.0;
    double dp = 0.0;
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      const std::string algo = kAlgos[a];
      SimResult result;
      FlowMetrics fm;
      double replay_s = 0.0;
      SchedTimes st;
      try {
        auto sched = make_bench_scheduler(algo, inject, traced);
        const auto t1 = Clock::now();
        result = replay_trace(trace, *sched, kProcs);
        replay_s = seconds_since(t1);
        const auto t2 = Clock::now();
        fm = compute_flow_metrics(run, result);
        flow_s += seconds_since(t2);
        if (const auto* timed =
                dynamic_cast<const TimedScheduler*>(sched.get())) {
          st = timed->times();
        }
      } catch (const std::exception& e) {
        out.fail(algo + " replay failed: " + e.what());
        continue;
      }
      total_s += replay_s;
      // Checks: no job before its submit time, each exactly once for its
      // run time, capacity never exceeded; the same result every time.
      const std::string bad =
          check_schedule(result.schedule, jobs, run, trace.submit, kProcs,
                         [](std::size_t) { return std::span<const TaskId>{}; });
      if (!bad.empty()) {
        out.fail(algo + ": " + bad);
        continue;
      }
      if (result.makespan < tr.lower_bound * (1.0 - kBoundSlack)) {
        out.fail(algo + ": makespan below Lb");
        continue;
      }
      if (tr.makespan[a] >= 0.0 && (result.makespan != tr.makespan[a] ||
                                    fm.mean_flow != tr.mean_flow[a])) {
        out.fail(algo + ": result differs between iterations");
        continue;
      }
      tr.makespan[a] = result.makespan;
      tr.mean_flow[a] = fm.mean_flow;
      ev += static_cast<double>(result.stats.events);
      dp += static_cast<double>(result.stats.decision_points);
      if (!traced) {
        tr.replay_rates[a].push_back(static_cast<double>(jobs) / replay_s);
        continue;
      }
      Layers& l = layers[a];
      l.replay_s.push_back(replay_s);
      l.select.push_back(st.select_s);
      l.ready.push_back(st.ready_s);
      l.finished.push_back(st.finished_s);
      l.calls.push_back(static_cast<double>(st.select_calls));
      l.useful.push_back(st.select_calls > 0
                             ? static_cast<double>(st.useful_calls) /
                                   static_cast<double>(st.select_calls)
                             : 0.0);
      self_s += replay_s - st.total_s();
      sched_s += st.total_s();
    }
    total_s += flow_s;
    events = ev;
    decision_points = dp;
    (traced ? tr.traced_s : tr.untraced_s).push_back(total_s);
    if (traced) {
      traced_s.push_back(total_s);
      parse.push_back(parse_s);
      flow.push_back(flow_s);
      loop_self.push_back(self_s);
      sched_sum.push_back(sched_s);
    }
  };

  measure_window(args, args.trace ? 2 : static_cast<int>(trace_count),
                 run_once);

  // Rates: each trace's time is the median over its iterations, so a
  // trace replayed twice counts once; the rate pools the traces (all their
  // jobs over all their times), which varies less from seed to seed than
  // a median over eight traces.
  const double tasks = static_cast<double>(jobs * kAlgoCount);
  std::vector<double> tps, overhead;
  double pooled_s = 0.0;
  double pooled_algo_s[kAlgoCount] = {};
  double ratio = 0.0;
  double flows[kAlgoCount] = {};
  std::size_t timed = 0;
  std::size_t replayed = 0;
  for (const Trace& tr : traces) {
    if (!tr.untraced_s.empty()) {
      tps.push_back(tasks / median(tr.untraced_s));
      pooled_s += median(tr.untraced_s);
      ++timed;
    }
    if (!tr.untraced_s.empty() && !tr.traced_s.empty()) {
      overhead.push_back(median(tr.traced_s) / median(tr.untraced_s));
    }
    if (tr.replay_rates[0].empty()) continue;
    ++replayed;
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      pooled_algo_s[a] +=
          static_cast<double>(jobs) / median(tr.replay_rates[a]);
      ratio += tr.makespan[a] / tr.lower_bound;
      flows[a] += tr.mean_flow[a];
    }
  }
  out.note("samples", static_cast<double>(iteration), "count");
  out.note("traces", static_cast<double>(trace_count), "count");
  out.note("jobs_per_trace", static_cast<double>(jobs), "count");
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("tasks_per_s", tasks * static_cast<double>(timed) / pooled_s,
            "1/s");
    out.note("tasks_per_s.q1", quantile(tps, 0.25), "1/s");
    out.note("tasks_per_s.q3", quantile(tps, 0.75), "1/s");
    out.set("makespan_over_lb",
            ratio / static_cast<double>(replayed * kAlgoCount), "ratio");
    for (std::size_t a = 0; a < kAlgoCount; ++a) {
      out.note(std::string("jobs_per_s.") + kAlgos[a],
               static_cast<double>(jobs * replayed) / pooled_algo_s[a], "1/s");
      out.note(std::string("mean_flow_s.") + kAlgos[a],
               flows[a] / static_cast<double>(replayed), "s");
    }
    return out;
  }
  for (std::size_t a = 0; a < kAlgoCount; ++a) {
    const Layers& l = layers[a];
    const std::string name = kAlgos[a];
    out.set("sim.replay_s." + name, median(l.replay_s), "s");
    out.set("sched.select_s." + name, median(l.select), "s");
    out.set("sched.ready_s." + name, median(l.ready), "s");
    out.set("sched.finished_s." + name, median(l.finished), "s");
    out.set("sched.select_calls." + name, median(l.calls), "count");
    out.set("sched.select_useful_ratio." + name, median(l.useful), "ratio");
  }
  out.set("instances.parse_s", median(parse), "s");
  out.set("instances.dropped", dropped, "count");
  out.set("analysis.flow_s", median(flow), "s");
  out.set("sim.loop_self_s", median(loop_self), "s");
  out.set("sim.events", events, "count");
  out.set("sim.decision_points", decision_points, "count");
  out.set("layer_sum_ratio",
          (median(parse) + median(loop_self) + median(sched_sum) +
           median(flow)) /
              median(traced_s),
          "ratio");
  out.set("trace_overhead_ratio", median(overhead), "ratio");
  return out;
}

}  // namespace perfbench
