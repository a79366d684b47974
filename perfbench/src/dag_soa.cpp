// dag-soa: the scale path. A 1M-task layered DAG (the 1M tier recipe of
// bench_perf_engine, P = 32) is appended through StreamingGraphBuilder,
// frozen and ingested with ParallelOptions{threads = nproc}, then scheduled
// by catbatch in counting mode under SessionEngine.
#include <exception>

#include "checks.hpp"
#include "core/lmatrix.hpp"
#include "core/soa_graph.hpp"
#include "instances/streaming.hpp"
#include "sim/session.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace catbatch;

constexpr int kProcs = 32;

SoaGraph append_and_freeze(const SoaGraph& proto, const ParallelOptions& par,
                           double* freeze_s) {
  StreamingGraphBuilder builder(proto.size());
  for (TaskId id = 0; id < proto.size(); ++id) {
    (void)builder.add_task(proto.work[id], proto.procs[id],
                           proto.predecessors(id));
  }
  const auto t0 = Clock::now();
  SoaGraph graph = builder.finish(par);
  *freeze_s = seconds_since(t0);
  return graph;
}

struct Iteration {
  double freeze_s = 0.0;
  double ingest_s = 0.0;
  double drain_s = 0.0;
  double finish_s = 0.0;
  double total_s = 0.0;  // freeze, then ingest + drain + finish as one span
  SchedTimes sched;
  SchedTimes sched_in_drain;
  SimResult result;
};

}  // namespace

Outcome run_dag_soa(const Args& args) {
  const std::size_t n = args.tiny() ? 20000 : 1000000;
  const ParallelOptions par = ParallelOptions{}.with_threads(args.threads);
  const bool inject = args.inject == "oversubscribe";
  Outcome out;

  // Set-up: draw the instance and the lower bound the checks compare with.
  SoaGraph proto;
  double lower_bound = 0.0;
  const double setup_s = median_setup_seconds(5, [&](bool) {
    Rng rng(args.seed);
    RandomTaskParams params;
    params.procs.max_procs = kProcs;
    proto = huge_layered_soa(rng, n, std::max<std::size_t>(2, n / 16),
                             params);
    lower_bound = compute_bounds(proto, kProcs).lower_bound();
  });
  const double bound1 = theorem1_bound(n);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> freeze, freeze1, criticality, ingest, ingest1,
      loop_self, finish, select, ready, finished, calls, useful, in_drain;
  double makespan = -1.0;
  std::size_t events = 0;
  std::size_t decision_points = 0;

  const auto run_once = [&](bool traced) {
    ++out.attempted;
    Iteration it;
    try {
      SoaGraph graph = append_and_freeze(proto, par, &it.freeze_s);
      const auto t_frozen = Clock::now();
      auto sched = make_bench_scheduler("catbatch", inject, traced);
      const auto* timed = dynamic_cast<const TimedScheduler*>(sched.get());
      {
        SoaSource source(graph);
        SessionEngine engine(*sched, kProcs,
                             SessionOptions{}
                                 .with_mode(ScheduleMode::Counting)
                                 .with_parallel(par));
        (void)engine.submit(source);
        const auto t2 = Clock::now();
        const SchedTimes at_ingest =
            timed != nullptr ? timed->times() : SchedTimes{};
        engine.drain();
        const auto t3 = Clock::now();
        it.result = engine.finish();
        const auto t4 = Clock::now();
        // The engine's construction is part of ingest.
        it.ingest_s = std::chrono::duration<double>(t2 - t_frozen).count();
        it.drain_s = std::chrono::duration<double>(t3 - t2).count();
        it.finish_s = std::chrono::duration<double>(t4 - t3).count();
        it.total_s =
            it.freeze_s + std::chrono::duration<double>(t4 - t_frozen).count();
        if (timed != nullptr) {
          it.sched = timed->times();
          it.sched_in_drain = it.sched;
          it.sched_in_drain.select_s -= at_ingest.select_s;
          it.sched_in_drain.ready_s -= at_ingest.ready_s;
          it.sched_in_drain.finished_s -= at_ingest.finished_s;
        }
      }

      if (traced) {
        // Same-window companions: serial freeze and ingest for the
        // speed-ups, and the criticality sweep on its own.
        double f1 = 0.0;
        const SoaGraph serial_graph =
            append_and_freeze(proto, ParallelOptions{}, &f1);
        freeze1.push_back(f1);
        auto t0c = Clock::now();
        const CriticalityArrays crit = compute_criticalities(graph, par);
        criticality.push_back(seconds_since(t0c));
        (void)crit;
        auto serial_sched = make_bench_scheduler("catbatch", false, false);
        SoaSource serial_source(serial_graph);
        t0c = Clock::now();
        SessionEngine serial_engine(
            *serial_sched, kProcs,
            SessionOptions{}.with_mode(ScheduleMode::Counting));
        (void)serial_engine.submit(serial_source);
        ingest1.push_back(seconds_since(t0c));
      }
    } catch (const std::exception& e) {
      out.fail(std::string("run failed: ") + e.what());
      return;
    }

    // Checks: feasibility, Lb <= makespan <= (log2 n + 3) Lb, and the same
    // schedule every iteration.
    const SimResult& r = it.result;
    const std::string bad = check_schedule(
        r.schedule, n, proto.work, {}, kProcs,
        [&](std::size_t id) {
          return proto.predecessors(static_cast<TaskId>(id));
        });
    if (!bad.empty()) {
      out.fail(bad);
      return;
    }
    if (r.makespan < lower_bound * (1.0 - kBoundSlack)) {
      out.fail("makespan below Lb");
      return;
    }
    if (r.makespan > bound1 * lower_bound * (1.0 + kBoundSlack)) {
      out.fail("catbatch ratio above log2(n)+3");
      return;
    }
    if (makespan >= 0.0 && (r.makespan != makespan ||
                            r.stats.events != events ||
                            r.stats.decision_points != decision_points)) {
      out.fail("schedule differs between iterations");
      return;
    }
    makespan = r.makespan;
    events = r.stats.events;
    decision_points = r.stats.decision_points;

    (traced ? traced_s : untraced_s).push_back(it.total_s);
    if (traced) {
      freeze.push_back(it.freeze_s);
      ingest.push_back(it.ingest_s);
      loop_self.push_back(it.drain_s - it.sched_in_drain.total_s());
      finish.push_back(it.finish_s);
      in_drain.push_back(it.sched_in_drain.total_s());
      select.push_back(it.sched.select_s);
      ready.push_back(it.sched.ready_s);
      finished.push_back(it.sched.finished_s);
      calls.push_back(static_cast<double>(it.sched.select_calls));
      useful.push_back(
          it.sched.select_calls > 0
              ? static_cast<double>(it.sched.useful_calls) /
                    static_cast<double>(it.sched.select_calls)
              : 0.0);
    }
  };

  run_once(false);  // warm-up: page in the allocator's arenas
  untraced_s.clear();
  measure_window(args, args.trace ? 2 : 3, run_once);

  const double nd = static_cast<double>(n);
  out.note("samples", static_cast<double>(untraced_s.size()), "count");
  out.note("tasks", nd, "count");
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<double> rates;
    for (const double s : untraced_s) rates.push_back(nd / s);
    out.set("tasks_per_s", median(rates), "1/s");
    out.note("tasks_per_s.q1", quantile(rates, 0.25), "1/s");
    out.note("tasks_per_s.q3", quantile(rates, 0.75), "1/s");
    out.set("makespan_over_lb",
            lower_bound > 0.0 ? makespan / lower_bound : 0.0, "ratio");
    return out;
  }
  const double freeze_m = median(freeze);
  const double ingest_m = median(ingest);
  const double loop_m = median(loop_self);
  const double finish_m = median(finish);
  out.set("core.freeze_s", freeze_m, "s");
  out.set("core.freeze_speedup", median(freeze1) / freeze_m, "ratio");
  out.set("core.criticality_s", median(criticality), "s");
  out.set("sim.ingest_s", ingest_m, "s");
  out.set("sim.ingest_speedup", median(ingest1) / ingest_m, "ratio");
  out.set("sim.loop_self_s", loop_m, "s");
  out.set("sim.finish_s", finish_m, "s");
  out.set("sim.events", static_cast<double>(events), "count");
  out.set("sim.decision_points", static_cast<double>(decision_points),
          "count");
  out.set("sched.select_s.catbatch", median(select), "s");
  out.set("sched.ready_s.catbatch", median(ready), "s");
  out.set("sched.finished_s.catbatch", median(finished), "s");
  out.set("sched.select_calls.catbatch", median(calls), "count");
  out.set("sched.select_useful_ratio.catbatch", median(useful), "ratio");
  out.set("layer_sum_ratio",
          (freeze_m + ingest_m + loop_m + median(in_drain) + finish_m) /
              median(traced_s),
          "ratio");
  out.set("trace_overhead_ratio", median(traced_s) / median(untraced_s),
          "ratio");
  return out;
}

}  // namespace perfbench
