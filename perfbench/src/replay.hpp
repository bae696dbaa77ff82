#pragma once
/// \file replay.hpp
/// Replays of the engine's work through the modules' public functions:
/// one debug session phase by phase (inject_error, TilingEngine::build or
/// rebase, detect_errors, localize, correct_design, detect_errors again),
/// and one Figure 5 baseline pair strategy by strategy. The replays must
/// reproduce run_campaign's outcomes byte for byte; what they add is access
/// to the intermediate designs, so the reference evaluator can check them,
/// and span boundaries for the traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_report.hpp"
#include "campaign/result_cache.hpp"
#include "core/tiled_design.hpp"
#include "spans.hpp"

namespace perfbench {

struct SessionReplay {
  emutile::SessionOutcome outcome;
  bool recall_miss = false;           ///< detected, injected cell not suspected
  std::vector<std::string> problems;  ///< wrong outputs found by the checks
};

/// Replay `job` of `spec` against `golden`. `baseline` is the pair's shared
/// pre-injection implementation (null: build cold, as run_campaign does for
/// connectivity errors). Checks, with the reference evaluator: the detection
/// verdict on the session's patterns; for a clean session, that the injected
/// cell is among the final suspects and that the corrected design matches
/// golden on `held_out` patterns the session never saw.
[[nodiscard]] SessionReplay replay_session(
    const emutile::CampaignSpec& spec, const emutile::CampaignJob& job,
    const emutile::Netlist& golden, const emutile::TiledDesign* baseline,
    const std::vector<emutile::Pattern>& held_out, SpanRecorder* recorder,
    long long session_id);

struct BaselineReplay {
  emutile::ScenarioBaseline baseline;
  double tiled_work = 0.0;  ///< work units of each strategy on the change
  double quick_work = 0.0;
  double full_work = 0.0;
  double seconds = 0.0;
};

/// Replay measure_baseline_pair(spec, pair, golden) strategy by strategy.
[[nodiscard]] BaselineReplay replay_baseline(const emutile::CampaignSpec& spec,
                                             std::size_t pair,
                                             const emutile::Netlist& golden,
                                             SpanRecorder* recorder);

/// Every field of a cached session record, as text, for byte comparison.
[[nodiscard]] std::string render(const emutile::CachedSession& session);

/// The deterministic report bytes (JSON then CSV).
[[nodiscard]] std::string report_bytes(const emutile::CampaignReport& report);

/// `count` random input vectors of `width` bits from `seed` (splitmix64; a
/// stream of the benchmark's own, apart from the library's generators).
[[nodiscard]] std::vector<emutile::Pattern> held_out_patterns(
    std::size_t width, std::size_t count, std::uint64_t seed);

}  // namespace perfbench
