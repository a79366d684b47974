#include "timed_scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "sched/registry.hpp"

namespace perfbench {

using catbatch::ReadyTask;
using catbatch::TaskId;
using catbatch::Time;

SchedTimes& SchedTimes::operator+=(const SchedTimes& other) {
  select_s += other.select_s;
  ready_s += other.ready_s;
  finished_s += other.finished_s;
  select_calls += other.select_calls;
  useful_calls += other.useful_calls;
  return *this;
}

void SchedTimesSink::add(const std::string& algo, const SchedTimes& times) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_[algo] += times;
}

std::map<std::string, SchedTimes> SchedTimesSink::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(totals_, {});
}

TimedScheduler::TimedScheduler(
    std::unique_ptr<catbatch::OnlineScheduler> inner, std::string algo,
    SchedTimesSink* sink)
    : inner_(std::move(inner)), algo_(std::move(algo)), sink_(sink) {}

TimedScheduler::~TimedScheduler() {
  if (sink_ != nullptr) sink_->add(algo_, times_);
}

void TimedScheduler::task_ready(const ReadyTask& task, Time now) {
  const auto t0 = Clock::now();
  inner_->task_ready(task, now);
  times_.ready_s += seconds_since(t0);
}

void TimedScheduler::task_finished(TaskId id, Time now) {
  const auto t0 = Clock::now();
  inner_->task_finished(id, now);
  times_.finished_s += seconds_since(t0);
}

void TimedScheduler::select(Time now, int available_procs,
                            std::vector<TaskId>& picks) {
  const auto t0 = Clock::now();
  inner_->select(now, available_procs, picks);
  times_.select_s += seconds_since(t0);
  ++times_.select_calls;
  if (!picks.empty()) ++times_.useful_calls;
}

void OversubscribingScheduler::reset() {
  waiting_.clear();
  inner_->reset();
}

void OversubscribingScheduler::task_ready(const ReadyTask& task, Time now) {
  waiting_[task.id] = task.procs;
  inner_->task_ready(task, now);
}

void OversubscribingScheduler::select(Time now, int available_procs,
                                      std::vector<TaskId>& picks) {
  inner_->select(now, available_procs, picks);
  int left = available_procs;
  for (const TaskId id : picks) {
    if (const auto it = waiting_.find(id); it != waiting_.end()) {
      left -= it->second;
      waiting_.erase(it);
    }
  }
  // Start any waiting task that does not fit: the engine or the checks
  // must catch it.
  for (const auto& [id, procs] : waiting_) {
    if (procs > left) {
      picks.push_back(id);
      waiting_.erase(id);
      return;
    }
  }
}

std::unique_ptr<catbatch::OnlineScheduler> make_bench_scheduler(
    const std::string& algo, bool oversubscribe, bool timed,
    SchedTimesSink* sink) {
  std::unique_ptr<catbatch::OnlineScheduler> sched =
      catbatch::make_scheduler(algo);
  if (sched == nullptr) throw std::runtime_error("unknown scheduler " + algo);
  if (oversubscribe) {
    sched = std::make_unique<OversubscribingScheduler>(std::move(sched));
  }
  if (timed) {
    sched = std::make_unique<TimedScheduler>(std::move(sched), algo, sink);
  }
  return sched;
}

}  // namespace perfbench
