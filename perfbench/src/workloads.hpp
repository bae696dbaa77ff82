#pragma once
/// \file workloads.hpp
/// The benchmark's workloads. Each runs either untraced (end-to-end metrics
/// from timed rounds) or traced (per-layer metrics from a replay of the same
/// operations through the modules' public functions), and always checks the
/// program's outputs.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-layer metric values of a traced run, by name. Layers a workload does
/// not exercise are reported as 0.
using LayerValues = std::map<std::string, double>;

/// (name, unit) of every end-to-end metric, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();

/// (name, unit) of every per-layer metric, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// warm-localize and cold-rebuild: debug-session batches through
/// run_campaign.
[[nodiscard]] RunResult run_engine_workload(const Options& options,
                                            LayerValues& layers);

/// fleet-resubmit: campaigns through a coordinator and two in-process
/// daemons, each submitted fresh and then again.
[[nodiscard]] RunResult run_fleet_workload(const Options& options,
                                           LayerValues& layers);

[[nodiscard]] bool is_engine_workload(const std::string& name);

}  // namespace perfbench
