// The four workloads (README.md, "Workloads").
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_dag_soa(const Args& args);
Outcome run_sweep_graph(const Args& args);
Outcome run_trace_swf(const Args& args);
Outcome run_service_unix(const Args& args);

}  // namespace perfbench
