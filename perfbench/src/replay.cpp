#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "core/tiling_engine.hpp"
#include "debug/corrector.hpp"
#include "debug/detector.hpp"
#include "debug/error_injector.hpp"
#include "debug/localizer.hpp"
#include "eco/eco_strategies.hpp"
#include "hier/hierarchy.hpp"
#include "reference.hpp"
#include "sim/patterns.hpp"

namespace perfbench {

using namespace emutile;

SessionReplay replay_session(const CampaignSpec& spec, const CampaignJob& job,
                             const Netlist& golden,
                             const TiledDesign* baseline,
                             const std::vector<Pattern>& held_out,
                             SpanRecorder* recorder, long long session_id) {
  SessionReplay out;
  DebugSessionReport& r = out.outcome.report;
  const DebugSessionOptions& o = job.options;
  const std::string where = spec.designs[job.design_index].name + " job " +
                            std::to_string(job.index) + ": ";
  const Span session_span(recorder, "session", session_id);
  try {
    Netlist dut_netlist;
    {
      const Span span(recorder, "debug.inject");
      dut_netlist = golden;
      r.injected = inject_error(dut_netlist, o.error_kind, o.seed);
    }
    const Netlist shipped = dut_netlist;  // the design as the bug shipped it
    TiledDesign dut;
    {
      const Span span(recorder, "debug.build");
      if (baseline != nullptr &&
          TilingEngine::lut_reconfig_equivalent(baseline->netlist,
                                                dut_netlist)) {
        const Span core(recorder, "core.rebase");
        dut = TilingEngine::rebase(*baseline, std::move(dut_netlist));
        r.warm_started = true;
      } else {
        const Span core(recorder, "core.build");
        dut = TilingEngine::build(std::move(dut_netlist), o.tiling);
        if (recorder) recorder->add("core.build.work_units",
                                    work_units(dut.build_effort));
      }
      r.build_effort = dut.build_effort;
      r.design_clbs = dut.packed.num_clbs();
    }
    std::vector<Pattern> patterns;
    {
      const Span span(recorder, "debug.detect");
      patterns = random_patterns(golden.primary_inputs().size(),
                                 o.num_patterns, o.seed ^ 0xA5A5ULL);
      r.detection = detect_errors(dut.netlist, golden, patterns);
    }
    const ReferenceVerdict ref = reference_compare(shipped, golden, patterns);
    if (ref.detected != r.detection.error_detected ||
        (ref.detected &&
         (ref.first_fail_cycle != r.detection.first_fail_cycle ||
          ref.failing_output != r.detection.failing_output))) {
      std::ostringstream os;
      os << where << "detect_errors says detected=" << r.detection.error_detected
         << " cycle=" << r.detection.first_fail_cycle
         << " output=" << r.detection.failing_output
         << ", the reference evaluator says detected=" << ref.detected
         << " cycle=" << ref.first_fail_cycle
         << " output=" << ref.failing_output;
      out.problems.push_back(os.str());
    }
    if (!r.detection.error_detected) return out;  // never excited: done

    {
      const Span span(recorder, "debug.localize");
      LocalizerOptions lo = o.localizer;
      lo.eco = o.eco;
      r.localization = localize(dut, golden, r.detection.failing_output,
                                patterns, lo);
      r.debug_effort += r.localization.total_effort;
    }
    {
      const Span span(recorder, "debug.correct");
      r.correction = correct_design(dut, golden, r.localization.suspects,
                                    patterns, o.eco);
      r.debug_effort += r.correction.total_effort;
    }
    if (r.correction.corrected) {
      const Span span(recorder, "debug.verify");
      r.final_clean = !detect_errors(dut.netlist, golden, patterns).error_detected;
      dut.validate();
    }
    const std::vector<CellId>& suspects = r.localization.suspects;
    out.recall_miss = std::find(suspects.begin(), suspects.end(),
                                r.injected.cell) == suspects.end();
    if (r.final_clean) {
      if (out.recall_miss)
        out.problems.push_back(where +
                               "reported clean, but the injected cell is not "
                               "among the final suspects");
      const ReferenceVerdict check =
          reference_compare(dut.netlist, golden, held_out);
      if (check.detected)
        out.problems.push_back(
            where + "reported clean, but the corrected design differs from "
                    "golden on held-out pattern " +
            std::to_string(check.first_fail_cycle));
    }
  } catch (const std::exception& e) {
    out.outcome.error = e.what();
  }
  return out;
}

BaselineReplay replay_baseline(const CampaignSpec& spec, std::size_t pair,
                               const Netlist& golden, SpanRecorder* recorder) {
  // Same steps, seeds and order as measure_baseline_pair.
  BaselineReplay out;
  const Clock::time_point t0 = Clock::now();
  const Span pair_span(recorder, "eco.baseline_pair");
  const std::size_t design_index = pair / spec.tilings.size();
  TilingParams tiling = spec.tilings[pair % spec.tilings.size()];
  const std::uint64_t seed = spec.baseline_seed(pair);
  try {
    tiling.seed = seed;
    TiledDesign tiled;
    {
      const Span span(recorder, "core.build");
      tiled = TilingEngine::build(Netlist(golden), tiling);
      if (recorder) recorder->add("core.build.work_units",
                                  work_units(tiled.build_effort));
    }
    TiledDesign for_quick = tiled.clone();
    TiledDesign for_incremental = tiled.clone();
    TiledDesign for_full = tiled.clone();
    EcoStrategyResult rt, rq, ri, rf;
    {
      const Span span(recorder, "eco.tiled");
      rt = tiled_eco(tiled, scripted_standard_change(tiled), spec.eco);
    }
    {
      const Span span(recorder, "eco.quick");
      DesignHierarchy hier(spec.designs[design_index].name);
      hier.bind_remaining(for_quick.netlist,
                          hier.add_block("functional_block"));
      rq = quick_eco(for_quick, hier, scripted_standard_change(for_quick),
                     seed);
    }
    {
      const Span span(recorder, "eco.incremental");
      IncrementalOptions incremental_options;
      incremental_options.seed = seed;
      ri = incremental_eco(for_incremental,
                           scripted_standard_change(for_incremental),
                           incremental_options);
    }
    {
      const Span span(recorder, "eco.full");
      rf = full_eco(for_full, scripted_standard_change(for_full), seed);
    }
    out.tiled_work = work_units(rt.effort);
    out.quick_work = work_units(rq.effort);
    out.full_work = work_units(rf.effort);
    const double incremental_work = work_units(ri.effort);
    if (rt.success && out.tiled_work > 0.0 && out.quick_work > 0.0 &&
        incremental_work > 0.0 && out.full_work > 0.0) {
      out.baseline.measured = true;
      out.baseline.speedup_quick = out.quick_work / out.tiled_work;
      out.baseline.speedup_incremental = incremental_work / out.tiled_work;
      out.baseline.speedup_full = out.full_work / out.tiled_work;
    }
  } catch (const std::exception&) {
    // Unmeasured, as in measure_baseline_pair.
  }
  out.seconds = seconds_since(t0);
  return out;
}

std::string render(const CachedSession& s) {
  std::ostringstream os;
  os << "error=" << s.error << " detected=" << s.detected
     << " narrowed=" << s.narrowed << " corrected=" << s.corrected
     << " clean=" << s.clean << " suspects=" << s.suspects
     << " iterations=" << s.iterations << " build=" << s.build_placed << ","
     << s.build_routed << "," << s.build_expanded << " debug="
     << s.debug_placed << "," << s.debug_routed << "," << s.debug_expanded
     << " clbs=" << s.design_clbs;
  return os.str();
}

std::string report_bytes(const CampaignReport& report) {
  return report.to_json() + report.to_csv();
}

std::vector<Pattern> held_out_patterns(std::size_t width, std::size_t count,
                                       std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x6A09E667F3BCC909ull;
  std::vector<Pattern> patterns(count, Pattern(width, 0));
  for (Pattern& p : patterns) {
    for (std::size_t bit = 0; bit < width; bit += 64) {
      std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      for (std::size_t b = bit; b < std::min(width, bit + 64); ++b)
        p[b] = static_cast<std::uint8_t>((z >> (b - bit)) & 1u);
    }
  }
  return patterns;
}

}  // namespace perfbench
