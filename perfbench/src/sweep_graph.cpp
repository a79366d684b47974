// sweep-graph: the researcher's path. sweep_grid over standard_families x
// standard_lineup on TaskGraph instances with SweepOptions::jobs = nproc;
// every run is validated by the sweep itself and checked again here.
#include <atomic>
#include <exception>

#include "analysis/experiment.hpp"
#include "checks.hpp"
#include "core/bounds.hpp"
#include "core/lmatrix.hpp"
#include "sched/registry.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace catbatch;

Outcome run_sweep_graph(const Args& args) {
  const std::size_t task_count = args.tiny() ? 64 : 1000;
  const std::size_t trials = args.tiny() ? 1 : 4;
  constexpr int kMaxProcs = 16;
  constexpr int kProcs = 32;
  const bool inject = args.inject == "oversubscribe";
  const std::vector<InstanceFamily> families =
      standard_families(task_count, kMaxProcs);
  const std::vector<std::string> algos = standard_lineup();
  const std::size_t runs = families.size() * trials * algos.size();
  Outcome out;

  // Set-up: every (family, trial) instance once, for the reference n and
  // Lb the checks hold each run to.
  struct Ref {
    std::size_t n = 0;
    Time lb = 0.0;
  };
  std::vector<Ref> refs(families.size() * trials);
  const double setup_s = median_setup_seconds(5, [&](bool) {
    for (std::size_t f = 0; f < families.size(); ++f) {
      for (std::size_t t = 0; t < trials; ++t) {
        Rng rng(args.seed + t);
        const TaskGraph graph = families[f].make(rng);
        const InstanceBounds b = compute_bounds(graph, kProcs);
        refs[f * trials + t] = Ref{b.task_count, b.lower_bound()};
      }
    }
  });

  SchedTimesSink sink;
  std::atomic<std::uint64_t> generate_ns{0};
  std::vector<double> untraced_s, traced_s, sweep, run, run_self, generate,
      busy;
  std::map<std::string, std::vector<double>> select, ready, finished, calls,
      useful;
  double mean_ratio = -1.0;
  double tasks = 0.0;

  const auto run_once = [&](bool traced) {
    std::vector<NamedScheduler> lineup;
    for (const std::string& algo : algos) {
      lineup.push_back(NamedScheduler{algo, [&, algo, traced] {
        return make_bench_scheduler(algo, inject, traced,
                                    traced ? &sink : nullptr);
      }});
    }
    std::vector<InstanceFamily> fams = families;
    if (traced) {
      for (InstanceFamily& family : fams) {
        family.make = [inner = family.make, &generate_ns](Rng& rng) {
          const auto t0 = Clock::now();
          TaskGraph graph = inner(rng);
          generate_ns += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
          return graph;
        };
      }
    }
    SweepOptions options;
    options.procs = kProcs;
    options.trials = trials;
    options.base_seed = args.seed;
    options.jobs = args.threads;
    options.keep_runs = true;

    out.attempted += runs;
    generate_ns = 0;
    (void)sink.take();
    std::vector<FamilySweep> grid;
    const auto t0 = Clock::now();
    try {
      grid = sweep_grid(fams, lineup, options);
    } catch (const std::exception& e) {
      out.fail(std::string("sweep failed: ") + e.what(), runs);
      return;
    }
    const double sweep_s = seconds_since(t0);

    // Checks: each run on the reference instance, Lb <= makespan, and
    // catbatch within log2(n)+3 of Lb; the same ratios every sweep.
    double ratio_sum = 0.0;
    double run_s = 0.0;
    double sweep_tasks = 0.0;
    for (std::size_t f = 0; f < grid.size(); ++f) {
      for (const RunRecord& rec : grid[f].runs) {
        const Ref& ref = refs[f * trials + (rec.seed - args.seed)];
        const RunMetrics& m = rec.metrics;
        run_s += rec.wall_ms / 1e3;
        sweep_tasks += static_cast<double>(m.task_count);
        ratio_sum += m.ratio;
        if (m.task_count != ref.n || m.lower_bound != ref.lb) {
          out.fail(rec.scheduler + " ran on the wrong instance");
        } else if (m.makespan < ref.lb * (1.0 - kBoundSlack)) {
          out.fail(rec.scheduler + " makespan below Lb");
        } else if (rec.scheduler == "catbatch" &&
                   m.makespan >
                       theorem1_bound(ref.n) * ref.lb * (1.0 + kBoundSlack)) {
          out.fail("catbatch ratio above log2(n)+3");
        }
      }
    }
    const double ratio = ratio_sum / static_cast<double>(runs);
    if (mean_ratio >= 0.0 && ratio != mean_ratio) {
      out.fail("sweep ratios differ between iterations");
    }
    mean_ratio = ratio;
    tasks = sweep_tasks;

    (traced ? traced_s : untraced_s).push_back(sweep_s);
    if (!traced) return;
    const std::map<std::string, SchedTimes> times = sink.take();
    double sched_s = 0.0;
    for (const std::string& algo : algos) {
      const auto it = times.find(algo);
      const SchedTimes st = it == times.end() ? SchedTimes{} : it->second;
      sched_s += st.total_s();
      select[algo].push_back(st.select_s);
      ready[algo].push_back(st.ready_s);
      finished[algo].push_back(st.finished_s);
      calls[algo].push_back(static_cast<double>(st.select_calls));
      useful[algo].push_back(st.select_calls > 0
                                 ? static_cast<double>(st.useful_calls) /
                                       static_cast<double>(st.select_calls)
                                 : 0.0);
    }
    const double gen_s = static_cast<double>(generate_ns.load()) / 1e9;
    sweep.push_back(sweep_s);
    run.push_back(run_s);
    generate.push_back(gen_s);
    run_self.push_back(run_s - gen_s - sched_s);
    busy.push_back(run_s / (args.threads * sweep_s));
  };

  run_once(false);  // warm-up: start the global pool's workers
  untraced_s.clear();
  measure_window(args, args.trace ? 2 : 3, run_once);

  out.note("samples", static_cast<double>(untraced_s.size()), "count");
  out.note("runs_per_sweep", static_cast<double>(runs), "count");
  out.note("tasks_per_sweep", tasks, "count");
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<double> rates;
    for (const double s : untraced_s) rates.push_back(tasks / s);
    out.set("tasks_per_s", median(rates), "1/s");
    out.note("tasks_per_s.q1", quantile(rates, 0.25), "1/s");
    out.note("tasks_per_s.q3", quantile(rates, 0.75), "1/s");
    out.set("makespan_over_lb", mean_ratio, "ratio");
    return out;
  }
  for (const std::string& algo : algos) {
    out.set("sched.select_s." + algo, median(select[algo]), "s");
    out.set("sched.ready_s." + algo, median(ready[algo]), "s");
    out.set("sched.finished_s." + algo, median(finished[algo]), "s");
    out.set("sched.select_calls." + algo, median(calls[algo]), "count");
    out.set("sched.select_useful_ratio." + algo, median(useful[algo]),
            "ratio");
  }
  out.set("analysis.sweep_s", median(sweep), "s");
  out.set("analysis.run_s", median(run), "s");
  out.set("analysis.run_self_s", median(run_self), "s");
  out.set("analysis.worker_busy_ratio", median(busy), "ratio");
  out.set("instances.generate_s", median(generate), "s");
  // The layers here are busy time summed over the sweep's workers, so the
  // whole they add up to is jobs x sweep wall time.
  out.set("layer_sum_ratio", median(busy), "ratio");
  out.set("trace_overhead_ratio", median(traced_s) / median(untraced_s),
          "ratio");
  return out;
}

}  // namespace perfbench
