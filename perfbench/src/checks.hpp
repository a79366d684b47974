// Output checks shared by the workloads. Written from first principles
// (like sim/validate, but over flat columns so a 1M-task schedule is
// checked in O(n log n) without materializing a TaskGraph).
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/schedule.hpp"

namespace perfbench {

/// Relative slack for comparisons against bounds computed with a
/// different summation order (the area term of Lb).
inline constexpr double kBoundSlack = 1e-9;

/// Empty when `schedule` runs every task of [0, n) exactly once for exactly
/// work[id], never before release[id] (when `release` is non-empty) nor
/// before its predecessors finish, and never holds more than `procs`
/// processors at once. Otherwise the first violation found.
/// `preds(id)` returns the predecessor ids of task `id`.
template <typename Preds>
std::string check_schedule(const catbatch::Schedule& schedule, std::size_t n,
                           std::span<const catbatch::Time> work,
                           std::span<const catbatch::Time> release,
                           int procs, Preds&& preds) {
  using catbatch::Time;
  const std::span<const catbatch::ScheduledTask> entries = schedule.entries();
  if (entries.size() != n) {
    return "schedule has " + std::to_string(entries.size()) +
           " entries for " + std::to_string(n) + " tasks";
  }
  std::vector<Time> start(n, -1.0);
  std::vector<Time> finish(n, -1.0);
  std::vector<std::pair<Time, int>> steps;  // (time, +width | -width)
  steps.reserve(2 * n);
  for (const catbatch::ScheduledTask& e : entries) {
    if (e.id >= n) return "unknown task " + std::to_string(e.id);
    if (start[e.id] >= 0.0) {
      return "task " + std::to_string(e.id) + " ran twice";
    }
    if (e.start < 0.0 || e.finish != e.start + work[e.id]) {
      return "task " + std::to_string(e.id) + " ran for the wrong time";
    }
    if (!release.empty() && e.start < release[e.id]) {
      return "task " + std::to_string(e.id) + " started before its release";
    }
    const int width = e.procs();
    if (width < 1 || width > procs) {
      return "task " + std::to_string(e.id) + " has width " +
             std::to_string(width);
    }
    start[e.id] = e.start;
    finish[e.id] = e.finish;
    steps.emplace_back(e.start, width);
    steps.emplace_back(e.finish, -width);
  }
  for (std::size_t id = 0; id < n; ++id) {
    for (const catbatch::TaskId p : preds(id)) {
      if (start[id] < finish[p]) {
        return "task " + std::to_string(id) + " started before predecessor " +
               std::to_string(p) + " finished";
      }
    }
  }
  // Releases sort before acquisitions at equal times: a hand-off at the
  // same instant is feasible.
  std::sort(steps.begin(), steps.end());
  int busy = 0;
  for (const auto& [at, delta] : steps) {
    busy += delta;
    if (busy > procs) {
      return "capacity exceeded at t=" + std::to_string(at) + " (" +
             std::to_string(busy) + " > " + std::to_string(procs) + ")";
    }
  }
  return {};
}

}  // namespace perfbench
