// Scheduler wrappers: the sched layer's span, taken from outside.
//
// TimedScheduler forwards every OnlineScheduler callback to the wrapped
// scheduler and accumulates the wall time spent inside it, per callback
// kind. The engine's own time is then whatever its entry point took minus
// the callbacks (sim.loop_self_s). OversubscribingScheduler is the
// deliberately broken scheduler of the smoke test: it starts one task the
// free processors cannot hold, so the run must be reported as failed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"

namespace perfbench {

struct SchedTimes {
  double select_s = 0.0;
  double ready_s = 0.0;
  double finished_s = 0.0;
  std::uint64_t select_calls = 0;
  std::uint64_t useful_calls = 0;  // select calls that started a task

  SchedTimes& operator+=(const SchedTimes& other);
  [[nodiscard]] double total_s() const {
    return select_s + ready_s + finished_s;
  }
};

/// Where TimedSchedulers built on worker threads (the sweep) deposit their
/// totals when they are destroyed.
class SchedTimesSink {
 public:
  void add(const std::string& algo, const SchedTimes& times);
  [[nodiscard]] std::map<std::string, SchedTimes> take();

 private:
  std::mutex mutex_;
  std::map<std::string, SchedTimes> totals_;
};

class TimedScheduler final : public catbatch::OnlineScheduler {
 public:
  /// `sink` (optional) receives this wrapper's totals under `algo` on
  /// destruction; it must outlive the wrapper.
  TimedScheduler(std::unique_ptr<catbatch::OnlineScheduler> inner,
                 std::string algo, SchedTimesSink* sink = nullptr);
  ~TimedScheduler() override;

  TimedScheduler(const TimedScheduler&) = delete;
  TimedScheduler& operator=(const TimedScheduler&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void instance_hint(std::size_t task_count) override {
    inner_->instance_hint(task_count);
  }
  void task_ready(const catbatch::ReadyTask& task,
                  catbatch::Time now) override;
  void task_finished(catbatch::TaskId id, catbatch::Time now) override;
  void task_killed(catbatch::TaskId id, catbatch::Time now) override {
    inner_->task_killed(id, now);
  }
  void select(catbatch::Time now, int available_procs,
              std::vector<catbatch::TaskId>& picks) override;

  [[nodiscard]] const SchedTimes& times() const { return times_; }

 private:
  std::unique_ptr<catbatch::OnlineScheduler> inner_;
  std::string algo_;
  SchedTimesSink* sink_;
  SchedTimes times_;
};

class OversubscribingScheduler final : public catbatch::OnlineScheduler {
 public:
  explicit OversubscribingScheduler(
      std::unique_ptr<catbatch::OnlineScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override;
  void instance_hint(std::size_t task_count) override {
    inner_->instance_hint(task_count);
  }
  void task_ready(const catbatch::ReadyTask& task,
                  catbatch::Time now) override;
  void task_finished(catbatch::TaskId id, catbatch::Time now) override {
    inner_->task_finished(id, now);
  }
  void task_killed(catbatch::TaskId id, catbatch::Time now) override {
    inner_->task_killed(id, now);
  }
  void select(catbatch::Time now, int available_procs,
              std::vector<catbatch::TaskId>& picks) override;

 private:
  std::unique_ptr<catbatch::OnlineScheduler> inner_;
  std::unordered_map<catbatch::TaskId, int> waiting_;  // revealed, unstarted
};

/// Builds registry scheduler `algo`, wrapped for --inject and, when
/// `timed`, for the per-layer run.
[[nodiscard]] std::unique_ptr<catbatch::OnlineScheduler> make_bench_scheduler(
    const std::string& algo, bool oversubscribe, bool timed,
    SchedTimesSink* sink = nullptr);

}  // namespace perfbench
