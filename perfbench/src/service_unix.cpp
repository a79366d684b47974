// service-unix: the deployed daemon path. serve_unix runs on a socket inside
// the checkout, in this process; client threads drive it in a closed loop
// through SocketClient with external-clock catbatch sessions on 64-task
// layered DAGs, one request per completion. Closed loop because the
// lockstep protocol makes every caller wait for its reply.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "core/bounds.hpp"
#include "instances/random_dags.hpp"
#include "sched/registry.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/hub.hpp"
#include "service/protocol.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace catbatch;

namespace {

constexpr int kProcs = 16;

struct PoolGraph {
  TaskGraph graph;
  std::vector<Decision> decisions;  // simulate() reference, dispatch order
  Time makespan = 0.0;
  Time lb = 0.0;
};

std::vector<PoolGraph> make_pool(std::uint64_t seed, std::size_t count,
                                 std::size_t tasks) {
  std::vector<PoolGraph> pool(count);
  RandomTaskParams params;
  params.procs.max_procs = kProcs;
  for (std::size_t k = 0; k < count; ++k) {
    Rng rng(seed * 1000003 + k);
    PoolGraph& pg = pool[k];
    pg.graph = random_layered_dag(rng, tasks, 8, params);
    const auto sched = make_scheduler("catbatch");
    const SimResult r = simulate(pg.graph, *sched, kProcs,
                                 SimOptions{ScheduleMode::Counting});
    for (const ScheduledTask& e : r.schedule.entries()) {
      pg.decisions.push_back(Decision{e.id, e.start, e.procs()});
    }
    pg.makespan = r.makespan;
    pg.lb = compute_bounds(pg.graph, kProcs).lower_bound();
  }
  return pool;
}

// ---- request encoding ------------------------------------------------------

std::string open_line(const std::string& session) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("open");
  w.key("session").value(session);
  w.key("algo").value("catbatch");
  w.key("procs").value(kProcs);
  w.key("mode").value("counting");
  w.key("clock").value("external");
  w.end_object();
  return w.str();
}

std::string submit_line(const std::string& session, const TaskGraph& graph) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("submit");
  w.key("session").value(session);
  w.key("tasks").begin_array();
  for (TaskId id = 0; id < graph.size(); ++id) {
    w.begin_object();
    w.key("work").value(graph.task(id).work);
    w.key("procs").value(graph.task(id).procs);
    const std::span<const TaskId> preds = graph.predecessors(id);
    if (!preds.empty()) {
      w.key("preds").begin_array();
      for (const TaskId p : preds) w.value(static_cast<std::uint64_t>(p));
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string complete_line(const std::string& session, TaskId id, Time at) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("complete");
  w.key("session").value(session);
  w.key("task").value(static_cast<std::uint64_t>(id));
  w.key("at").value(at);
  w.end_object();
  return w.str();
}

std::string simple_line(const char* type, const std::string& session = {}) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value(type);
  if (type == std::string("hello")) w.key("version").value(kProtocolVersion);
  if (!session.empty()) w.key("session").value(session);
  w.end_object();
  return w.str();
}

/// Request latencies in 1%-wide logarithmic buckets from 1 us: fixed
/// memory, so the process footprint does not grow with throughput.
class LatencyHistogram {
 public:
  void add(double us) {
    const double k = us <= 1.0 ? 0.0 : std::log(us) / kLogStep;
    ++counts_[std::min(counts_.size() - 1, static_cast<std::size_t>(k))];
    ++total_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t k = 0; k < counts_.size(); ++k) {
      counts_[k] += other.counts_[k];
    }
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// The q-quantile, as its bucket's geometric midpoint.
  [[nodiscard]] double quantile(double q) const {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < counts_.size(); ++k) {
      seen += counts_[k];
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        return std::exp((static_cast<double>(k) + 0.5) * kLogStep);
      }
    }
    return 0.0;
  }

 private:
  static inline const double kLogStep = std::log(1.01);
  std::array<std::uint64_t, 1700> counts_{};  // up to ~20 s
  std::uint64_t total_ = 0;
};

// ---- one client thread -----------------------------------------------------

struct ClientStats {
  LatencyHistogram rtt;  // every request
  std::vector<std::pair<double, double>> session_ends;  // (end s, tasks)
  // Traced sessions only.
  double encode_s = 0.0, decode_s = 0.0, rtt_s = 0.0, wall_s = 0.0;
  std::uint64_t traced_requests = 0;
  double untraced_wall_s = 0.0;
  std::uint64_t untraced_requests = 0;
  std::uint64_t requests = 0, bytes = 0, error_replies = 0;
  std::vector<std::vector<std::string>> recorded;  // traced sessions' lines
  std::map<std::size_t, Time> makespans;           // pool index -> reported
  std::vector<std::string> failures;
  std::uint64_t failed = 0;
};

/// Runs `stop` when the scope ends, on exception paths too.
struct JoinAtExit {
  explicit JoinAtExit(std::function<void()> f) : stop(std::move(f)) {}
  ~JoinAtExit() { stop(); }
  JoinAtExit(const JoinAtExit&) = delete;
  JoinAtExit& operator=(const JoinAtExit&) = delete;

  std::function<void()> stop;
};

class SessionFailed : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Client {
  LineClient& conn;
  ClientStats& stats;
  bool traced = false;
  std::vector<std::string>* record = nullptr;

  /// Encodes (timed by the caller), sends, and decodes one request.
  JsonValue exchange(const std::string& line, const char* want) {
    if (record != nullptr) record->push_back(line);
    const auto t0 = Clock::now();
    const std::string reply = conn.request(line);
    const double rtt = seconds_since(t0);
    stats.rtt.add(rtt * 1e6);
    ++stats.requests;
    stats.bytes += line.size() + reply.size();
    const auto t1 = Clock::now();
    std::optional<JsonValue> parsed = parse_json(reply);
    const JsonValue* type = parsed ? parsed->find("type") : nullptr;
    if (traced) {
      stats.rtt_s += rtt;
      stats.decode_s += seconds_since(t1);
      ++stats.traced_requests;
    }
    if (type == nullptr || !type->is_string()) {
      throw SessionFailed("unparseable reply: " + reply);
    }
    if (type->str_v == "error") {
      ++stats.error_replies;
      throw SessionFailed("error reply: " + reply);
    }
    if (type->str_v != want) throw SessionFailed("unexpected reply: " + reply);
    return std::move(*parsed);
  }

  /// Appends a decisions reply's entries; returns its "complete" flag.
  bool decisions(const JsonValue& reply, std::vector<Decision>& out) {
    const auto t0 = Clock::now();
    const JsonValue* list = reply.find("decisions");
    if (list == nullptr || !list->is_array()) {
      throw SessionFailed("decisions reply without decisions");
    }
    for (const JsonValue& d : list->items) {
      const JsonValue* task = d.find("task");
      const JsonValue* at = d.find("at");
      const JsonValue* procs = d.find("procs");
      if (task == nullptr || at == nullptr || procs == nullptr) {
        throw SessionFailed("malformed decision");
      }
      out.push_back(Decision{static_cast<TaskId>(task->num_v), at->num_v,
                             static_cast<int>(procs->num_v)});
    }
    const JsonValue* complete = reply.find("complete");
    if (traced) stats.decode_s += seconds_since(t0);
    return complete != nullptr && complete->is_bool() && complete->bool_v;
  }

  template <typename Build>
  std::string encode(Build&& build) {
    if (!traced) return build();
    const auto t0 = Clock::now();
    std::string line = build();
    stats.encode_s += seconds_since(t0);
    return line;
  }

  /// One session: open, submit, complete every task in (finish,
  /// dispatch order) order, close. Returns the decision stream.
  std::vector<Decision> run(const std::string& name, const PoolGraph& pg,
                            Time* makespan) {
    const TaskGraph& graph = pg.graph;
    std::vector<Decision> ds;
    (void)exchange(encode([&] { return open_line(name); }), "opened");
    bool complete = decisions(
        exchange(encode([&] { return submit_line(name, graph); }),
                 "decisions"),
        ds);
    std::vector<std::size_t> running;
    std::size_t absorbed = 0;
    for (std::size_t done = 0; done < graph.size(); ++done) {
      for (; absorbed < ds.size(); ++absorbed) running.push_back(absorbed);
      if (running.empty()) throw SessionFailed("session stalled");
      std::size_t best = 0;
      Time best_finish = 0.0;
      for (std::size_t i = 0; i < running.size(); ++i) {
        const Decision& d = ds[running[i]];
        const Time finish = d.at + graph.task(d.id).work;
        if (i == 0 || finish < best_finish) {
          best = i;
          best_finish = finish;
        }
      }
      const TaskId id = ds[running[best]].id;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(best));
      complete = decisions(
          exchange(encode([&] { return complete_line(name, id, best_finish); }),
                   "decisions"),
          ds);
    }
    const JsonValue closed =
        exchange(encode([&] { return simple_line("close", name); }), "closed");
    const JsonValue* ms = closed.find("makespan");
    const JsonValue* tasks = closed.find("tasks");
    if (!complete || ms == nullptr || tasks == nullptr ||
        tasks->num_v != static_cast<double>(graph.size())) {
      throw SessionFailed("session " + name + " did not close complete");
    }
    *makespan = ms->num_v;
    return ds;
  }
};

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first `count` CPUs it may run on.
void keep_to_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t kept;
  CPU_ZERO(&kept);
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &kept);
      --count;
    }
  }
  (void)sched_setaffinity(0, sizeof kept, &kept);
}

}  // namespace

Outcome run_service_unix(const Args& args) {
  const std::size_t pool_size = args.tiny() ? 8 : 1024;
  const std::size_t tasks = args.tiny() ? 16 : 64;
  const int daemon_jobs = std::max(1, args.threads / 2);
  const int clients = std::max(1, args.threads - daemon_jobs);
  // Every request is a chain of cross-thread wake-ups. Spread over the
  // vCPUs of a virtual machine, each wake-up of an idle vCPU goes through
  // the hypervisor, and throughput fell up to 4x whenever the host was busy
  // (steal share 0.1-0.2), on two vCPUs as on four. On one CPU the wake-ups
  // are plain context switches, and calm-host throughput is the same.
  keep_to_cpus(1);
  const std::string socket_path =
      args.socket_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  Outcome out;

  // Set-up: the session pool with its simulate() references, then daemon
  // bind and one handshaken connection per client thread.
  std::vector<PoolGraph> pool;
  std::unique_ptr<ServiceHub> hub;
  std::thread daemon;
  std::exception_ptr daemon_error;  // read only after daemon.join()
  std::atomic<bool> daemon_failed{false};
  std::vector<std::unique_ptr<SocketClient>> conns;
  const auto stop_daemon = [&] {
    if (!daemon.joinable()) return;
    try {
      if (conns.empty()) {
        conns.push_back(std::make_unique<SocketClient>(socket_path));
      }
      (void)conns.front()->request(simple_line("shutdown"));
    } catch (const std::exception&) {
      // The daemon is gone already; joining is all that is left.
    }
    daemon.join();
    conns.clear();
  };
  const auto connect = [&] {
    const auto t0 = Clock::now();
    for (;;) {
      try {
        return std::make_unique<SocketClient>(socket_path);
      } catch (const std::exception&) {
        if (seconds_since(t0) > 5.0 || daemon_failed) throw;
        std::this_thread::yield();
      }
    }
  };
  double setup_s = 0.0;
  try {
    setup_s = median_setup_seconds(5, [&](bool last) {
      pool = make_pool(args.seed, pool_size, tasks);
      hub = std::make_unique<ServiceHub>();
      daemon = std::thread([&] {
        try {
          serve_unix(*hub, DaemonOptions{socket_path, daemon_jobs});
        } catch (...) {
          daemon_error = std::current_exception();
          daemon_failed = true;
        }
      });
      for (int c = 0; c < clients; ++c) {
        conns.push_back(connect());
        const std::string reply = conns.back()->request(simple_line("hello"));
        if (reply.find("\"welcome\"") == std::string::npos) {
          throw std::runtime_error("handshake failed: " + reply);
        }
      }
      if (!last) stop_daemon();
    });
  } catch (const std::exception& e) {
    stop_daemon();
    out.attempted = 1;
    out.fail(std::string("daemon set-up failed: ") + e.what());
    return out;
  }

  // Whatever happens below, the daemon and every client thread are joined.
  std::vector<std::thread> threads;
  const JoinAtExit join_all{[&] {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    stop_daemon();
  }};

  // The closed loop.
  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  std::atomic<std::size_t> next_session{0};
  const auto window_start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& st = stats[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; seconds_since(window_start) < args.seconds;
           ++i) {
        const std::size_t s = next_session++;
        const PoolGraph& pg = pool[s % pool.size()];
        Client client{*conns[static_cast<std::size_t>(c)], st};
        client.traced = args.trace && i % 2 == 1;
        if (client.traced && st.recorded.size() < 2000) {
          st.recorded.emplace_back();
          client.record = &st.recorded.back();
        }
        const std::uint64_t req0 = st.requests;
        const auto t0 = Clock::now();
        try {
          Time makespan = 0.0;
          const std::vector<Decision> ds =
              client.run("s" + std::to_string(s), pg, &makespan);
          const double wall = seconds_since(t0);
          (client.traced ? st.wall_s : st.untraced_wall_s) += wall;
          if (!client.traced) st.untraced_requests += st.requests - req0;
          st.session_ends.emplace_back(seconds_since(window_start),
                                       static_cast<double>(tasks));
          // Checks: the makespan of every session, and the whole decision
          // stream of every 16th, against simulate() on the same graph.
          bool same = makespan == pg.makespan;
          if (same && s % 16 == 0) {
            same = ds.size() == pg.decisions.size();
            for (std::size_t k = 0; same && k < ds.size(); ++k) {
              same = ds[k].id == pg.decisions[k].id &&
                     ds[k].at == pg.decisions[k].at &&
                     ds[k].procs == pg.decisions[k].procs;
            }
          }
          if (!same) {
            ++st.failed;
            if (st.failures.size() < 4) {
              st.failures.push_back("session s" + std::to_string(s) +
                                    " differs from simulate()");
            }
          }
          st.makespans.emplace(s % pool.size(), makespan);
        } catch (const std::exception& e) {
          ++st.failed;
          if (st.failures.size() < 4) st.failures.push_back(e.what());
          if (dynamic_cast<const SessionFailed*>(&e) == nullptr) return;
          try {  // best effort: free the session's engine
            (void)conns[static_cast<std::size_t>(c)]->request(
                simple_line("close", "s" + std::to_string(s)));
          } catch (const std::exception&) {
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // In-process replay of the traced sessions' lines through one hub
  // connection: the hub's share of each request, without the transport.
  double hub_s = 0.0;
  std::uint64_t hub_lines = 0;
  if (args.trace) {
    ServiceHub replay_hub;
    const std::uint64_t conn = replay_hub.open_connection();
    std::vector<std::string> replies;
    replay_hub.handle_line(conn, simple_line("hello"), replies);
    for (const ClientStats& st : stats) {
      for (const std::vector<std::string>& session : st.recorded) {
        for (const std::string& line : session) {
          replies.clear();
          const auto t0 = Clock::now();
          replay_hub.handle_line(conn, line, replies);
          hub_s += seconds_since(t0);
          ++hub_lines;
        }
      }
    }
    replay_hub.close_connection(conn);
  }
  stop_daemon();
  if (daemon_error) {
    try {
      std::rethrow_exception(daemon_error);
    } catch (const std::exception& e) {
      out.fail(std::string("daemon failed: ") + e.what());
    }
  }

  ClientStats all;
  std::map<std::size_t, Time> makespans;
  for (ClientStats& st : stats) {
    all.rtt.merge(st.rtt);
    all.session_ends.insert(all.session_ends.end(), st.session_ends.begin(),
                            st.session_ends.end());
    all.encode_s += st.encode_s;
    all.decode_s += st.decode_s;
    all.rtt_s += st.rtt_s;
    all.wall_s += st.wall_s;
    all.traced_requests += st.traced_requests;
    all.untraced_wall_s += st.untraced_wall_s;
    all.untraced_requests += st.untraced_requests;
    all.requests += st.requests;
    all.bytes += st.bytes;
    all.error_replies += st.error_replies;
    makespans.insert(st.makespans.begin(), st.makespans.end());
    for (const std::string& f : st.failures) out.fail(f, 0);
    out.failed += st.failed;
  }
  out.attempted += std::max<std::uint64_t>(all.requests, 1);

  // Throughput over blocks of consecutive session completions, so one
  // stall moves the median little.
  std::vector<double> ends;
  for (const auto& se : all.session_ends) ends.push_back(se.first);
  std::sort(ends.begin(), ends.end());
  const std::size_t block = std::max<std::size_t>(1, ends.size() / 100);
  std::vector<double> block_rates;
  for (std::size_t i = 0; i + block < ends.size(); i += block) {
    const double span = ends[i + block] - ends[i];
    if (span > 0.0) {
      block_rates.push_back(static_cast<double>(block * tasks) / span);
    }
  }

  out.note("samples", static_cast<double>(all.rtt.total()), "count");
  out.note("sessions", static_cast<double>(all.session_ends.size()), "count");
  out.note("clients", clients, "count");
  out.note("daemon_jobs", daemon_jobs, "count");
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("tasks_per_s", median(block_rates), "1/s");
    out.note("tasks_per_s.q1", quantile(block_rates, 0.25), "1/s");
    out.note("tasks_per_s.q3", quantile(block_rates, 0.75), "1/s");
    double ratio = 0.0;
    for (const auto& [k, ms] : makespans) ratio += ms / pool[k].lb;
    out.set("makespan_over_lb",
            makespans.empty()
                ? 0.0
                : ratio / static_cast<double>(makespans.size()),
            "ratio");
    // Same blocks as tasks_per_s; every session sends the same number of
    // requests per task.
    const double tasks_done =
        static_cast<double>(all.session_ends.size() * tasks);
    out.note("requests_per_s",
             median(block_rates) * static_cast<double>(all.requests) /
                 std::max(tasks_done, 1.0),
             "1/s");
    out.note("request_p50_us", all.rtt.quantile(0.50), "us");
    out.note("request_p99_us", all.rtt.quantile(0.99), "us");
    return out;
  }
  const double traced_n = static_cast<double>(all.traced_requests);
  const double encode_us = all.encode_s / traced_n * 1e6;
  const double decode_us = all.decode_s / traced_n * 1e6;
  const double rtt_us = all.rtt_s / traced_n * 1e6;
  const double hub_us =
      hub_lines > 0 ? hub_s / static_cast<double>(hub_lines) * 1e6 : 0.0;
  const double per_request_traced = all.wall_s / traced_n * 1e6;
  const double per_request_untraced =
      all.untraced_wall_s / static_cast<double>(all.untraced_requests) * 1e6;
  out.set("service.request_encode_us", encode_us, "us");
  out.set("service.reply_decode_us", decode_us, "us");
  out.set("service.hub_us", hub_us, "us");
  out.set("service.transport_us", rtt_us - hub_us, "us");
  out.set("service.requests", static_cast<double>(all.requests), "count");
  out.set("service.error_replies", static_cast<double>(all.error_replies),
          "count");
  out.set("service.bytes_per_request",
          static_cast<double>(all.bytes) / static_cast<double>(all.requests),
          "B");
  out.set("layer_sum_ratio",
          (encode_us + decode_us + hub_us + (rtt_us - hub_us)) /
              per_request_traced,
          "ratio");
  out.set("trace_overhead_ratio", per_request_traced / per_request_untraced,
          "ratio");
  return out;
}

}  // namespace perfbench
