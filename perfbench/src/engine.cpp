/// warm-localize and cold-rebuild: batches of debug sessions through
/// run_campaign, one campaign per design, on one worker thread.
///
/// The bug batch of each workload is pinned (fixed master seed): the two
/// named faults (the non-primitive signature compactor and the localizer's
/// whole-cone exoneration) make whether a session fails depend on which bug
/// it got, so a seed-drawn batch would fail a different share of sessions
/// from seed to seed. The seed orders the campaigns of every round and
/// draws the held-out patterns the reference evaluator verifies clean
/// sessions on.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <iostream>
#include <memory>
#include <optional>

#include "arch/device.hpp"
#include "arch/rr_graph.hpp"
#include "campaign/campaign_engine.hpp"
#include "campaign/result_cache.hpp"
#include "core/tiling_engine.hpp"
#include "place/placer.hpp"
#include "replay.hpp"
#include "route/router.hpp"
#include "sim/patterns.hpp"
#include "sim/simulator.hpp"
#include "synth/packer.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emutile;

namespace {

struct EngineShape {
  std::vector<std::string> designs;
  std::vector<ErrorKind> kinds;
  std::vector<int> tiles;
  int replicas = 1;
  bool baselines = false;
};

const EngineShape& shape_of(const std::string& workload) {
  static const EngineShape warm{{"9sym", "styr", "sand", "c880"},
                                {ErrorKind::kLutFunction,
                                 ErrorKind::kWrongPolarity},
                                {6, 12},
                                3,
                                false};
  static const EngineShape cold{{"c499", "planet1", "c880"},
                                {ErrorKind::kWrongConnection},
                                {12},
                                3,
                                true};
  return workload == "warm-localize" ? warm : cold;
}

constexpr std::uint64_t kMasterSeed = 1;
constexpr std::size_t kPatterns = 192;  // the repo's usual count
constexpr std::size_t kHeldOutPatterns = 512;
constexpr int kCachedRepeats = 5;       // per campaign after each fresh one
constexpr int kCachedRepeatsWithPairs = 1;  // these re-measure Figure 5 pairs
constexpr int kSetupBlock = 3;         // timed set-ups per block

struct Campaign {
  CampaignSpec spec;
  std::vector<CampaignJob> jobs;
  Netlist golden;                   ///< the benchmark's copy, for the checks
  std::vector<Pattern> held_out;
  std::string bytes;                ///< report bytes of the first timed run
  CampaignReport report;
  std::vector<std::vector<double>> latency;  ///< [job][round] seconds
  std::vector<double> wall;                  ///< per round
  std::size_t first_session = 0;             ///< benchmark-wide session id
};

/// Set-up: specs and goldens. Everything a campaign builds for itself
/// (run_campaign builds its own goldens) stays in the timed part.
std::vector<Campaign> set_up(const EngineShape& shape) {
  std::vector<Campaign> campaigns;
  std::size_t sessions = 0;
  for (const std::string& design : shape.designs) {
    Campaign c;
    c.spec.add_catalog_design(design);
    c.spec.error_kinds = shape.kinds;
    c.spec.tilings.clear();
    for (const int tiles : shape.tiles) {
      TilingParams tiling;
      tiling.num_tiles = tiles;
      c.spec.tilings.push_back(tiling);
    }
    c.spec.sessions_per_scenario = shape.replicas;
    c.spec.num_patterns = kPatterns;
    c.spec.master_seed = kMasterSeed;
    c.spec.measure_baselines = shape.baselines;
    c.jobs = c.spec.expand();
    c.golden = build_campaign_golden(c.spec, 0);
    c.latency.assign(c.jobs.size(), {});
    c.first_session = sessions;
    sessions += c.jobs.size();
    campaigns.push_back(std::move(c));
  }
  return campaigns;
}

/// Time one block of set-ups: one untimed, so every timed one starts from
/// caches a set-up has just warmed, then kSetupBlock timed. Blocks run
/// before the rounds and after every campaign of every round. On a shared
/// host a set-up reads anywhere from 3.5 to 6.5 ms depending on the moment,
/// steady within a block but not between blocks, so the median needs many
/// blocks spread over the run to follow the host over the run.
std::vector<Campaign> set_up_block(const EngineShape& shape,
                                   std::vector<double>& times) {
  std::vector<Campaign> campaigns = set_up(shape);
  for (int i = 0; i < kSetupBlock; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::vector<Campaign> next = set_up(shape);
    times.push_back(seconds_since(t0));
    campaigns = std::move(next);
  }
  return campaigns;
}

/// Held-out patterns for the reference evaluator's checks, drawn from the
/// seed; not part of the timed set-up, since only the checks use them.
void draw_held_out(std::vector<Campaign>& campaigns, std::uint64_t seed) {
  for (std::size_t d = 0; d < campaigns.size(); ++d)
    campaigns[d].held_out =
        held_out_patterns(campaigns[d].golden.primary_inputs().size(),
                          kHeldOutPatterns, seed * 1000003 + d);
}

/// eco_speedup_quick: the Figure 5 geomean of Quick_ECO over tiled-ECO work
/// over the campaigns' (design, tiling) pairs. Where the spec measures
/// baselines it is read from run_campaign's report (every error kind of a
/// pair carries the pair's measurement, so the geomean over scenarios is the
/// geomean over pairs); elsewhere measure_baseline_pair runs on every pair.
double speedup_quick(const std::vector<Campaign>& campaigns) {
  std::vector<ScenarioBaseline> baselines;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const Campaign& cam = campaigns[c];
    if (cam.spec.measure_baselines) {
      for (const ScenarioStats& sc : cam.report.scenarios)
        baselines.push_back(sc.baseline);
    } else {
      for (std::size_t p = 0; p < cam.spec.tilings.size(); ++p)
        pairs.push_back({c, p});
    }
  }
  std::vector<ScenarioBaseline> measured(pairs.size());
  ThreadPool pool(verify_threads());
  pool.parallel_for(pairs.size(), [&](std::size_t t) {
    const Campaign& cam = campaigns[pairs[t].first];
    measured[t] = measure_baseline_pair(cam.spec, pairs[t].second, cam.golden);
  });
  baselines.insert(baselines.end(), measured.begin(), measured.end());
  std::vector<double> speedups;
  for (const ScenarioBaseline& b : baselines)
    if (b.measured) speedups.push_back(b.speedup_quick);
  return geomean(speedups);
}

/// One timed run_campaign on one worker; per-session latency is the time
/// between consecutive progress callbacks (the first includes the golden
/// build, which every campaign pays).
void timed_campaign(Campaign& c, RunResult& result) {
  std::vector<double> latency;
  Clock::time_point last = Clock::now();
  const Clock::time_point start = last;
  CampaignOptions options;
  options.on_progress = [&](const std::string&, std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    latency.push_back(std::chrono::duration<double>(now - last).count());
    last = now;
  };
  CampaignReport report = run_campaign(c.spec, options);
  c.wall.push_back(seconds_since(start));
  if (latency.size() != c.jobs.size()) {
    result.wrong("progress callbacks do not match the session count");
    return;
  }
  for (std::size_t j = 0; j < latency.size(); ++j)
    c.latency[j].push_back(latency[j]);
  std::string bytes = report_bytes(report);
  if (c.bytes.empty()) {
    c.bytes = std::move(bytes);
    c.report = report;
  } else if (bytes != c.bytes) {
    result.wrong(c.spec.designs[0].name +
                 ": report changed between rounds of the same campaign");
  }
}

/// Run `spec` on `threads` workers with a fresh result cache in `dir` and
/// return the report bytes. Runs in a child process, so the peak RSS this
/// process reports stays that of the timed one-worker work.
std::string prime_cache(const CampaignSpec& spec, std::size_t threads,
                        const std::filesystem::path& dir) {
  fresh_dir(dir);
  const std::filesystem::path out = dir.string() + ".report";
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      ResultCache cache(dir);
      CampaignOptions options;
      options.num_threads = threads;
      options.cache = &cache;
      std::ofstream(out, std::ios::binary)
          << report_bytes(run_campaign(spec, options));
    } catch (...) {
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("cache-priming run failed");
  std::ifstream in(out, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Pair baselines (shared pre-injection implementations), built the way
/// run_campaign's warm start builds them. Null where no job of the pair can
/// warm-start.
std::vector<std::shared_ptr<const TiledDesign>> pair_baselines(
    const Campaign& c, SpanRecorder* recorder) {
  std::vector<std::shared_ptr<const TiledDesign>> out(c.spec.tilings.size());
  for (const CampaignJob& job : c.jobs) {
    const std::size_t pair = job.scenario % c.spec.tilings.size();
    if (out[pair] || job.options.error_kind == ErrorKind::kWrongConnection)
      continue;
    const Span span(recorder, "core.build");
    auto built = std::make_shared<const TiledDesign>(
        TilingEngine::build(Netlist(c.golden), job.options.tiling));
    if (recorder) recorder->add("core.build.work_units",
                                work_units(built->build_effort));
    out[pair] = std::move(built);
  }
  return out;
}

struct Replay {
  std::vector<std::vector<SessionReplay>> sessions;  ///< [campaign][job]
  std::vector<std::vector<BaselineReplay>> pairs;    ///< [campaign][pair]
  double seconds = 0.0;
};

/// Replay every session (and, where the spec measures them, every baseline
/// pair) through the public functions: on `threads` workers untraced, or
/// sequentially into `recorder`.
Replay replay_all(const std::vector<Campaign>& campaigns, bool with_pairs,
                  std::size_t threads, SpanRecorder* recorder) {
  Replay replay;
  const Clock::time_point t0 = Clock::now();
  replay.sessions.resize(campaigns.size());
  replay.pairs.resize(campaigns.size());
  std::vector<std::vector<std::shared_ptr<const TiledDesign>>> bases(
      campaigns.size());
  std::vector<std::pair<std::size_t, std::size_t>> session_tasks, pair_tasks;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    replay.sessions[c].resize(campaigns[c].jobs.size());
    for (std::size_t j = 0; j < campaigns[c].jobs.size(); ++j)
      session_tasks.push_back({c, j});
    if (with_pairs) {
      replay.pairs[c].resize(campaigns[c].spec.designs.size() *
                             campaigns[c].spec.tilings.size());
      for (std::size_t p = 0; p < replay.pairs[c].size(); ++p)
        pair_tasks.push_back({c, p});
    }
  }
  const auto run_session = [&](std::size_t t) {
    const auto [c, j] = session_tasks[t];
    const Campaign& cam = campaigns[c];
    const std::size_t pair = cam.jobs[j].scenario % cam.spec.tilings.size();
    replay.sessions[c][j] = replay_session(
        cam.spec, cam.jobs[j], cam.golden, bases[c][pair].get(), cam.held_out,
        recorder, static_cast<long long>(cam.first_session + j));
  };
  const auto run_pair = [&](std::size_t t) {
    const auto [c, p] = pair_tasks[t];
    replay.pairs[c][p] = replay_baseline(campaigns[c].spec, p,
                                         campaigns[c].golden, recorder);
  };
  if (recorder != nullptr || threads <= 1) {
    for (std::size_t c = 0; c < campaigns.size(); ++c)
      bases[c] = pair_baselines(campaigns[c], recorder);
    for (std::size_t t = 0; t < session_tasks.size(); ++t) run_session(t);
    for (std::size_t t = 0; t < pair_tasks.size(); ++t) run_pair(t);
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(campaigns.size(), [&](std::size_t c) {
      bases[c] = pair_baselines(campaigns[c], nullptr);
    });
    pool.parallel_for(session_tasks.size() + pair_tasks.size(),
                      [&](std::size_t t) {
                        // Pairs first: they are the longest tasks.
                        if (t < pair_tasks.size())
                          run_pair(t);
                        else
                          run_session(t - pair_tasks.size());
                      });
  }
  replay.seconds = seconds_since(t0);
  return replay;
}

/// The replayed report must be byte-identical to run_campaign's.
void check_replay(const std::vector<Campaign>& campaigns, const Replay& replay,
                  RunResult& result) {
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const Campaign& cam = campaigns[c];
    std::vector<SessionOutcome> outcomes;
    for (const SessionReplay& s : replay.sessions[c]) {
      outcomes.push_back(s.outcome);
      for (const std::string& p : s.problems) result.wrong(p);
    }
    std::vector<ScenarioBaseline> baselines;
    if (cam.spec.measure_baselines) {
      std::vector<ScenarioBaseline> per_pair;
      for (const BaselineReplay& b : replay.pairs[c])
        per_pair.push_back(b.baseline);
      baselines = fan_out_baselines(cam.spec, per_pair);
    }
    if (report_bytes(build_report(cam.spec, cam.jobs, outcomes, baselines)) !=
        cam.bytes)
      result.wrong(cam.spec.designs[0].name +
                   ": report rebuilt from the replayed sessions differs from "
                   "run_campaign's");
  }
}

/// Each replayed session's cacheable outcome must equal the one
/// run_campaign stored for the same job.
void check_sessions(const Campaign& cam,
                    const std::vector<SessionReplay>& sessions,
                    ResultCache& cache, RunResult& result) {
  for (std::size_t j = 0; j < cam.jobs.size(); ++j) {
    const std::optional<CachedSession> stored =
        cache.load(session_cache_key(cam.spec, cam.jobs[j]));
    const SessionOutcome& replayed = sessions[j].outcome;
    const bool match =
        replayed.error.empty()
            ? stored && render(*stored) == render(to_cached(replayed))
            : !stored;
    if (!match)
      result.wrong(cam.spec.designs[0].name + " job " + std::to_string(j) +
                   ": replayed session outcome differs from run_campaign's");
  }
}

/// Count failed sessions per round from the replay (which the checks tie
/// to run_campaign's outcomes).
void count_failures(const Replay& replay, std::size_t rounds,
                    RunResult& result) {
  for (const auto& campaign : replay.sessions) {
    for (const SessionReplay& s : campaign) {
      result.attempted += rounds;
      const DebugSessionReport& r = s.outcome.report;
      if (!s.outcome.error.empty()) {
        result.failed += rounds;
        result.failures.threw += rounds;
      } else if (r.detection.error_detected && !r.final_clean) {
        result.failed += rounds;
        result.failures.unfixed += rounds;
        if (s.recall_miss) result.failures.recall_misses += rounds;
      }
    }
  }
}

/// Placer, router and simulator kernels on the workload's pinned designs,
/// called directly: place.*, route.* and sim.* come from here.
void kernel_pass(const std::vector<Campaign>& campaigns,
                 SpanRecorder& recorder, LayerValues& layers) {
  double place_s = 0.0, route_s = 0.0, setup_s = 0.0, sim_s = 0.0;
  double moves = 0.0, expansions = 0.0, cycles = 0.0, setups = 0.0;
  for (const Campaign& c : campaigns) {
    const Span design_span(&recorder, "kernels." + c.spec.designs[0].name);
    const Netlist& nl = c.golden;
    const PackedDesign packed = pack(nl);
    const DeviceParams dp = Device::size_for(
        static_cast<int>(std::ceil(packed.num_clbs() * 1.2)),
        static_cast<int>(std::ceil(packed.num_iobs() * 1.25)), 12);
    const Device device(dp);
    const RrGraph rr(device);
    Placement placement(device, packed);
    const std::vector<PhysNet> nets = packed.physical_nets(nl);
    Clock::time_point t = Clock::now();
    {
      const Span span(&recorder, "place.place");
      Placer placer(device, packed, nets);
      PlacerParams params;
      params.seed = kMasterSeed;
      moves += static_cast<double>(placer.place(placement, params).moves_attempted);
    }
    place_s += seconds_since(t);
    for (int i = 0; i < 10; ++i) {
      t = Clock::now();
      const Span span(&recorder, "route.router_setup");
      const Router router(rr);
      setup_s += seconds_since(t);
      setups += 1.0;
    }
    Router router(rr);
    Routing routing(rr);
    t = Clock::now();
    {
      const Span span(&recorder, "route.route");
      std::vector<NetTask> tasks = make_route_tasks(rr, packed, placement, nets);
      expansions += static_cast<double>(
          router.route(std::move(tasks), routing, RouterParams{}).nodes_expanded);
    }
    route_s += seconds_since(t);
    const std::vector<Pattern> patterns =
        random_patterns(nl.primary_inputs().size(), kPatterns * 8, kMasterSeed);
    Simulator sim(nl);
    sim.reset();
    t = Clock::now();
    {
      const Span span(&recorder, "sim.step");
      for (const Pattern& p : patterns) static_cast<void>(sim.step(p));
    }
    sim_s += seconds_since(t);
    cycles += static_cast<double>(patterns.size());
  }
  layers["place.moves"] = moves;
  layers["place_s"] = place_s;
  layers["place.moves_per_s"] = place_s > 0.0 ? moves / place_s : 0.0;
  layers["route.expansions"] = expansions;
  layers["route_s"] = route_s;
  layers["route.expansions_per_s"] = route_s > 0.0 ? expansions / route_s : 0.0;
  layers["route.router_setup_s"] = setups > 0.0 ? setup_s / setups : 0.0;
  layers["sim.cycles"] = cycles;
  layers["sim.cycles_per_s"] = sim_s > 0.0 ? cycles / sim_s : 0.0;
}

/// Per-layer metrics from the traced replay's spans and outcomes.
void layer_metrics(const SpanRecorder& recorder, const Replay& replay,
                   LayerValues& layers) {
  const auto totals = recorder.totals();
  const auto get = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanRecorder::Totals{} : it->second;
  };
  double sessions = 0.0, localized = 0.0;
  double rounds = 0.0, suspects = 0.0, misses = 0.0, inserted = 0.0,
         retargeted = 0.0, place_ms = 0.0, route_ms = 0.0, loc_work = 0.0,
         attempts = 0.0, corr_work = 0.0;
  for (const auto& campaign : replay.sessions) {
    for (const SessionReplay& s : campaign) {
      sessions += 1.0;
      const DebugSessionReport& r = s.outcome.report;
      if (!s.outcome.error.empty() || !r.detection.error_detected) continue;
      localized += 1.0;
      const LocalizeResult& loc = r.localization;
      rounds += static_cast<double>(loc.iterations.size());
      suspects += static_cast<double>(loc.suspects.size());
      if (s.recall_miss) misses += 1.0;
      for (const LocalizeIteration& it : loc.iterations) {
        inserted += static_cast<double>(it.probes_inserted);
        retargeted += static_cast<double>(it.probes_retargeted);
      }
      place_ms += loc.total_effort.place_ms;
      route_ms += loc.total_effort.route_ms;
      loc_work += work_units(loc.total_effort);
      attempts += r.correction.attempts;
      corr_work += work_units(r.correction.total_effort);
    }
  }
  const auto per = [](double total, double n) { return n > 0.0 ? total / n : 0.0; };
  for (const char* phase :
       {"inject", "build", "detect", "localize", "correct", "verify"})
    layers[std::string("debug.") + phase + "_s"] =
        per(get(std::string("debug.") + phase).self_s, sessions);
  layers["debug.localize.rounds"] = per(rounds, localized);
  layers["debug.localize.suspects"] = per(suspects, localized);
  layers["debug.localize.recall_misses"] = misses;
  layers["debug.localize.probes_inserted"] = inserted;
  layers["debug.localize.probes_retargeted"] = retargeted;
  layers["debug.localize.place_ms"] = per(place_ms, localized);
  layers["debug.localize.route_ms"] = per(route_ms, localized);
  layers["debug.localize.work_units"] = per(loc_work, localized);
  layers["debug.correct.attempts"] = per(attempts, localized);
  layers["debug.correct.work_units"] = per(corr_work, localized);

  const SpanRecorder::Totals rebase = get("core.rebase"), build = get("core.build");
  layers["core.rebase.calls"] = static_cast<double>(rebase.count);
  layers["core.rebase_s"] = per(rebase.total_s, static_cast<double>(rebase.count));
  layers["core.build.calls"] = static_cast<double>(build.count);
  layers["core.build_s"] = per(build.total_s, static_cast<double>(build.count));
  double tiled = 0.0, quick = 0.0, full = 0.0, pair_s = 0.0, pairs = 0.0;
  for (const auto& campaign : replay.pairs) {
    for (const BaselineReplay& b : campaign) {
      tiled += b.tiled_work;
      quick += b.quick_work;
      full += b.full_work;
      pair_s += b.seconds;
      pairs += 1.0;
    }
  }
  layers["eco.tiled.work_units"] = per(tiled, pairs);
  layers["eco.quick.work_units"] = per(quick, pairs);
  layers["eco.full.work_units"] = per(full, pairs);
  layers["eco.baseline_pair_s"] = per(pair_s, pairs);
  layers["core.build.work_units"] =
      per(recorder.counter("core.build.work_units"),
          static_cast<double>(build.count));
}

}  // namespace

bool is_engine_workload(const std::string& name) {
  return name == "warm-localize" || name == "cold-rebuild";
}

RunResult run_engine_workload(const Options& options, LayerValues& layers) {
  RunResult result;
  const EngineShape& shape = shape_of(options.workload);

  // ---- set-up; the last repetition is kept ----
  std::vector<double> setup_times;
  std::vector<Campaign> campaigns = set_up_block(shape, setup_times);
  draw_held_out(campaigns, options.seed);
  std::size_t total_sessions = 0;
  for (const Campaign& c : campaigns) total_sessions += c.jobs.size();
  std::uint64_t order_state = options.seed;

  if (options.trace) {
    // ---- traced run: reference outcomes, untraced and traced replays ----
    SpanRecorder recorder;
    fresh_dir(options.work / "cache");
    ResultCache cache(options.work / "cache");
    std::size_t warm_builds = 0;
    double campaign_s = 0.0;
    for (const std::size_t c : shuffled(campaigns.size(), order_state)) {
      CampaignOptions copts;
      copts.cache = &cache;
      const Clock::time_point t0 = Clock::now();
      CampaignReport report;
      {
        const Span span(&recorder, "campaign.run");
        report = run_campaign(campaigns[c].spec, copts);
      }
      campaign_s += seconds_since(t0);
      warm_builds += report.warm_builds;
      campaigns[c].bytes = report_bytes(report);
    }
    const Replay untraced = replay_all(campaigns, shape.baselines, 1, nullptr);
    const Replay traced = replay_all(campaigns, shape.baselines, 1, &recorder);
    check_replay(campaigns, traced, result);
    for (std::size_t c = 0; c < campaigns.size(); ++c)
      check_sessions(campaigns[c], traced.sessions[c], cache, result);
    for (std::size_t c = 0; c < campaigns.size(); ++c)
      for (std::size_t j = 0; j < campaigns[c].jobs.size(); ++j)
        if (render(to_cached(traced.sessions[c][j].outcome)) !=
            render(to_cached(untraced.sessions[c][j].outcome)))
          result.wrong("traced and untraced replays disagree");
    count_failures(traced, 1, result);
    kernel_pass(campaigns, recorder, layers);
    layer_metrics(recorder, traced, layers);
    layers["campaign.run_s"] = campaign_s / static_cast<double>(campaigns.size());
    layers["campaign.warm_builds"] = static_cast<double>(warm_builds);
    const std::filesystem::path trace_file =
        options.work / (options.workload + ".trace.json");
    recorder.write_perfetto(trace_file);
    std::cout << "traced replay " << traced.seconds << " s, untraced replay "
              << untraced.seconds << " s: tracing overhead "
              << traced.seconds - untraced.seconds << " s\n"
              << "spans: " << recorder.spans().size() << " written to "
              << trace_file.string() << "\n";
    return result;
  }

  // ---- worker-count check, which also fills each campaign's cache ----
  std::vector<std::unique_ptr<ResultCache>> caches;
  std::vector<std::string> multi_worker_bytes;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const std::filesystem::path dir =
        options.work / ("cache-" + std::to_string(c));
    multi_worker_bytes.push_back(
        prime_cache(campaigns[c].spec, verify_threads(), dir));
    caches.push_back(std::make_unique<ResultCache>(dir));
  }

  // ---- timed rounds: in seeded order, every campaign fresh (one worker,
  // no cache). After each, every campaign is resubmitted and served from
  // the cache its worker-count run filled, whose report it must reproduce.
  // Spreading a campaign's cached samples over the round, not taking them
  // back to back, keeps one slow moment of the host from moving its median:
  // a cached resubmission takes a few milliseconds on warm-localize.
  const int cached_repeats = shape.baselines ? kCachedRepeatsWithPairs
                                             : kCachedRepeats;
  std::vector<std::vector<double>> cached(campaigns.size());
  const Clock::time_point t0 = Clock::now();
  std::size_t rounds = 0;
  double rss = 0.0;  // peak RSS over set-up and the first round
  do {
    for (const std::size_t c : shuffled(campaigns.size(), order_state)) {
      timed_campaign(campaigns[c], result);
      for (std::size_t r = 0; r < campaigns.size(); ++r) {
        CampaignOptions copts;
        copts.cache = caches[r].get();
        for (int i = 0; i < cached_repeats; ++i) {
          const Clock::time_point t = Clock::now();
          const CampaignReport report = run_campaign(campaigns[r].spec, copts);
          cached[r].push_back(seconds_since(t));
          if (report_bytes(report) != multi_worker_bytes[r])
            result.wrong(campaigns[r].spec.designs[0].name +
                         ": cached resubmission report differs from the "
                         "fresh one");
        }
      }
      static_cast<void>(set_up_block(shape, setup_times));
    }
    if (rounds++ == 0) rss = peak_rss_mb();
  } while (seconds_since(t0) < options.seconds);

  // ---- verification (untimed) ----
  const Replay replay =
      replay_all(campaigns, shape.baselines, verify_threads(), nullptr);
  check_replay(campaigns, replay, result);
  count_failures(replay, rounds, result);
  std::vector<double> cached_walls;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    if (multi_worker_bytes[c] != campaigns[c].bytes)
      result.wrong(campaigns[c].spec.designs[0].name + ": report with " +
                   std::to_string(verify_threads()) +
                   " workers differs from the one-worker report");
    check_sessions(campaigns[c], replay.sessions[c], *caches[c], result);
    cached_walls.push_back(median(cached[c]));

  }

  // ---- end-to-end metrics ----
  std::vector<double> session_latency, campaign_walls;
  double wall_sum = 0.0, work_sum = 0.0, work_count = 0.0;
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const Campaign& cam = campaigns[c];
    for (const std::vector<double>& l : cam.latency)
      session_latency.push_back(median(l));
    for (const double w : cam.wall) wall_sum += w;
    campaign_walls.push_back(median(cam.wall));
    work_sum += cam.report.debug_work.sum();
    work_count += static_cast<double>(cam.report.debug_work.count());
  }
  result.metric("sessions_per_s",
                static_cast<double>(rounds * total_sessions) / wall_sum,
                "sessions/s");
  result.metric("session_p50_s", median(session_latency), "s");
  result.metric("session_tail_s", tail(session_latency), "s");
  result.metric("debug_work_units", work_count > 0 ? work_sum / work_count : 0.0,
                "units/session");
  result.metric("eco_speedup_quick", speedup_quick(campaigns), "x");
  result.metric("fresh_campaign_p50_s", median(campaign_walls), "s");
  result.metric("fresh_campaign_tail_s", tail(campaign_walls), "s");
  result.metric("cached_campaign_p50_s", median(cached_walls), "s");
  result.metric("cached_campaign_tail_s", tail(cached_walls), "s");
  result.metric("setup_s", median(setup_times), "s");
  result.metric("peak_rss_mb", rss, "MB");
  std::cout << "rounds " << rounds << " x " << total_sessions
            << " sessions in " << campaigns.size() << " campaigns; replay "
            << replay.seconds << " s on " << verify_threads() << " threads\n";
  return result;
}

}  // namespace perfbench
