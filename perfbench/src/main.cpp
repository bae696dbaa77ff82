/// The benchmark program.
///
///   perfbench --workload <warm-localize|cold-rebuild|fleet-resubmit>
///             --seed N --seconds S --trace 0|1 --work DIR
///
/// With --trace 0 the workload runs timed rounds for S seconds and reports
/// the end-to-end metrics; with --trace 1 it replays the same operations
/// through the modules' public functions with spans around each call and
/// reports the per-layer metrics. Either way the program's outputs are
/// checked, failed operations are counted with their reasons, and the last
/// line of stdout is one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// A wrong output (a check that fails) makes the run exit with code 1.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"sessions_per_s", "sessions/s"},
      {"session_p50_s", "s"},
      {"session_tail_s", "s"},
      {"debug_work_units", "units/session"},
      {"eco_speedup_quick", "x"},
      {"fresh_campaign_p50_s", "s"},
      {"fresh_campaign_tail_s", "s"},
      {"cached_campaign_p50_s", "s"},
      {"cached_campaign_tail_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"campaign.run_s", "s"},
      {"campaign.warm_builds", "count"},
      {"debug.inject_s", "s"},
      {"debug.build_s", "s"},
      {"debug.detect_s", "s"},
      {"debug.localize_s", "s"},
      {"debug.correct_s", "s"},
      {"debug.verify_s", "s"},
      {"debug.localize.rounds", "count"},
      {"debug.localize.suspects", "count"},
      {"debug.localize.recall_misses", "count"},
      {"debug.localize.probes_inserted", "count"},
      {"debug.localize.probes_retargeted", "count"},
      {"debug.localize.place_ms", "ms"},
      {"debug.localize.route_ms", "ms"},
      {"debug.localize.work_units", "units"},
      {"debug.correct.attempts", "count"},
      {"debug.correct.work_units", "units"},
      {"core.rebase_s", "s"},
      {"core.rebase.calls", "count"},
      {"core.build_s", "s"},
      {"core.build.calls", "count"},
      {"core.build.work_units", "units"},
      {"place.moves_per_s", "1/s"},
      {"place.moves", "count"},
      {"place_s", "s"},
      {"route.expansions_per_s", "1/s"},
      {"route.expansions", "count"},
      {"route_s", "s"},
      {"route.router_setup_s", "s"},
      {"sim.cycles_per_s", "1/s"},
      {"sim.cycles", "count"},
      {"eco.tiled.work_units", "units"},
      {"eco.quick.work_units", "units"},
      {"eco.full.work_units", "units"},
      {"eco.baseline_pair_s", "s"},
      {"service.submit_wait_s", "s"},
      {"service.request_s", "s"},
      {"service.cache.hits", "count"},
      {"service.cache.misses", "count"},
      {"service.cache.index_hits", "count"},
      {"orchestrator.run_s", "s"},
      {"orchestrator.overhead_s", "s"},
      {"orchestrator.shards", "count"},
      {"orchestrator.steals", "count"},
      {"orchestrator.redispatches", "count"},
      {"orchestrator.affinity_dispatches", "count"},
  };
  return list;
}

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <warm-localize|cold-rebuild|"
               "fleet-resubmit> --seed N --seconds S --trace 0|1 --work DIR\n";
  return 2;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value);
    else if (flag == "--trace") options.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--work") options.work = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.work.empty() ||
      (!is_engine_workload(options.workload) &&
       options.workload != "fleet-resubmit"))
    return usage();
  emutile::set_log_threshold(emutile::LogLevel::kError);

  RunResult result;
  LayerValues layers;
  try {
    fresh_dir(options.work);
    result = is_engine_workload(options.workload)
                 ? run_engine_workload(options, layers)
                 : run_fleet_workload(options, layers);
    // Keep only the traced run's Perfetto file.
    for (const auto& entry : std::filesystem::directory_iterator(options.work))
      if (entry.path().extension() != ".json")
        std::filesystem::remove_all(entry.path());
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 2;
  }

  const FailureCounts& f = result.failures;
  std::cout << "operations: attempted " << result.attempted << ", failed "
            << result.failed << " (threw " << f.threw
            << "; detected but not fixed " << f.unfixed
            << ", of which recall misses " << f.recall_misses
            << "; coordinator errors " << f.coordinator << ")\n";
  for (const std::string& p : result.problems)
    std::cout << "WRONG OUTPUT: " << p << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metrics())
      emit(name, layers.count(name) ? layers.at(name) : 0.0, unit);
  } else {
    for (const auto& [name, unit] : end_to_end_metrics()) {
      const auto it = std::find_if(
          result.metrics.begin(), result.metrics.end(),
          [&](const auto& m) { return m.first == name; });
      if (it == result.metrics.end() || it->second.second != unit) {
        std::cerr << "internal error: metric " << name << " not reported\n";
        return 2;
      }
      emit(name, it->second.first, unit);
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct() ? 0 : 1;
}
