/// fleet-resubmit: a closed loop in which one CampaignCoordinator (default
/// options: 200 ms STATUS polling, metrics and trace collection on) submits
/// small catalog campaigns, one at a time, to two in-process daemons — each
/// a SessionService with one worker and default config (result cache,
/// journal and event log on) behind a ServiceEndpoint on a unix socket.
/// Every spec is submitted fresh and then again: the repeat is served from
/// the daemons' result caches, so only the service, client and orchestrator
/// layers are left in its latency.
///
/// The specs are pinned: two wrong-connection sessions on s9234 each, so
/// each campaign splits into one single-session shard per daemon. A
/// one-session shard is never stolen, so every repeat finds all its sessions
/// in the cache of the daemon that serves it; with stealing, a repeat could
/// find half its sessions cached on the other daemon and rerun them. The
/// seed orders the specs within each round. Each round starts a fresh fleet
/// (empty caches), so the same specs are fresh again and every spec gets one
/// fresh and one cached sample per round.

#include <stdexcept>
#include <iostream>
#include <memory>

#include "campaign/campaign_engine.hpp"
#include "orchestrator/campaign_coordinator.hpp"
#include "replay.hpp"
#include "service/service_client.hpp"
#include "service/service_endpoint.hpp"
#include "service/session_service.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emutile;

namespace {

constexpr std::size_t kSpecs = 3;
constexpr std::size_t kDaemons = 2;
constexpr int kSetupBlock = 3;  // timed daemon start-ups per block
constexpr int kStatusRoundTrips = 20;

/// Pinned spec `index`: two wrong-connection sessions on s9234 at 12 tiles.
CampaignSpec fleet_spec(std::size_t index) {
  CampaignSpec spec;
  spec.add_catalog_design("s9234");
  spec.error_kinds = {ErrorKind::kWrongConnection};
  spec.tilings.clear();
  TilingParams tiling;
  tiling.num_tiles = 12;
  spec.tilings.push_back(tiling);
  spec.sessions_per_scenario = static_cast<int>(kDaemons);
  spec.num_patterns = 192;
  spec.master_seed = 300 + index;
  return spec;
}

/// Two daemons on unix sockets under `root`, which must be empty.
struct Fleet {
  std::vector<std::unique_ptr<SessionService>> services;
  std::vector<std::unique_ptr<ServiceEndpoint>> endpoints;
  FleetConfig config;

  explicit Fleet(const std::filesystem::path& root) {
    for (std::size_t i = 0; i < kDaemons; ++i) {
      ServiceConfig sc;
      sc.root = root / ("d" + std::to_string(i));
      sc.num_threads = 1;
      services.push_back(std::make_unique<SessionService>(sc));
      // Relative socket path: the checkout may sit deeper than a unix
      // socket path can reach.
      endpoints.push_back(
          std::make_unique<ServiceEndpoint>(*services.back(), sc.root / "s"));
      config.instances.push_back(
          {"d" + std::to_string(i),
           ServiceAddress::unix_socket(endpoints.back()->socket_path())});
      if (!ServiceClient(config.instances.back().address).ping())
        throw std::runtime_error("daemon did not answer PING");
    }
  }
  ~Fleet() {
    endpoints.clear();  // stop serving before the services go away
    services.clear();
  }
};

/// Time one block of daemon start-ups under `root`, as the engine workloads
/// time their set-ups: one untimed start, then kSetupBlock timed. Blocks run
/// before the loop and after every spec of every round, in a directory of
/// their own, while the round's fleet sits idle. Clearing the previous
/// fleet's directory is the benchmark's own work and stays outside the timer.
void set_up_block(const std::filesystem::path& root,
                  std::vector<double>& times) {
  for (int i = 0; i <= kSetupBlock; ++i) {
    fresh_dir(root);
    const Clock::time_point t0 = Clock::now();
    const Fleet fleet(root);
    if (i > 0) times.push_back(seconds_since(t0));
  }
}

struct Submission {
  std::size_t spec = 0;
  double seconds = 0.0;
  bool ok = false;
  OrchestrationResult result;
};

Submission submit(CampaignCoordinator& coordinator, const CampaignSpec& spec,
                  std::size_t index, RunResult& run, SpanRecorder* recorder,
                  const char* span_name) {
  Submission s;
  s.spec = index;
  const Clock::time_point t0 = Clock::now();
  try {
    const Span span(recorder, span_name);
    s.result = coordinator.run(spec);
    s.ok = true;
  } catch (const std::exception& e) {
    std::cout << "coordinator error on spec " << index << ": " << e.what()
              << "\n";
    ++run.failed;
    ++run.failures.coordinator;
  }
  s.seconds = seconds_since(t0);
  ++run.attempted;
  return s;
}

/// Service-layer measurements of the traced run, on the round's fleet after
/// its loop: an in-process submit and wait of each repeated spec, STATUS
/// round trips, and the daemons' cache counters.
void traced_extras(Fleet& fleet, const std::vector<CampaignSpec>& specs,
                   const std::vector<Submission>& cached, SpanRecorder& rec,
                   LayerValues& layers) {
  double submit_wait = 0.0, orchestrated = 0.0, request = 0.0;
  std::size_t n = 0;
  for (const Submission& s : cached) {
    if (!s.ok) continue;
    // The first submission fills this daemon's cache with the session the
    // other daemon served; the second is served entirely from it.
    SessionService& service = *fleet.services[0];
    service.wait(service.submit(specs[s.spec]));
    const Clock::time_point t = Clock::now();
    {
      const Span span(&rec, "service.submit_wait");
      service.wait(service.submit(specs[s.spec]));
    }
    submit_wait += seconds_since(t);
    orchestrated += s.seconds;
    ++n;
  }
  const ServiceClient client(fleet.config.instances[0].address);
  const std::string id = fleet.services[0]->list().back().id;
  for (int i = 0; i < kStatusRoundTrips; ++i) {
    const Clock::time_point t = Clock::now();
    const Span span(&rec, "service.request");
    static_cast<void>(client.status(id));
    request += seconds_since(t);
  }
  const double runs = n > 0 ? static_cast<double>(n) : 1.0;
  layers["service.submit_wait_s"] = submit_wait / runs;
  layers["orchestrator.run_s"] = orchestrated / runs;
  layers["orchestrator.overhead_s"] = (orchestrated - submit_wait) / runs;
  layers["service.request_s"] = request / kStatusRoundTrips;
  double hits = 0.0, misses = 0.0, index_hits = 0.0;
  for (const auto& service : fleet.services) {
    hits += static_cast<double>(service->cache()->hits());
    misses += static_cast<double>(service->cache()->misses());
    index_hits += static_cast<double>(service->cache()->index_hits());
  }
  layers["service.cache.hits"] = hits;
  layers["service.cache.misses"] = misses;
  layers["service.cache.index_hits"] = index_hits;
}

}  // namespace

RunResult run_fleet_workload(const Options& options, LayerValues& layers) {
  RunResult result;
  const std::filesystem::path root =
      std::filesystem::relative(options.work / "fleet");
  const std::filesystem::path setup_root =
      std::filesystem::relative(options.work / "setup");
  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < kSpecs; ++i) specs.push_back(fleet_spec(i));

  // ---- set-up: daemon start-ups ----
  std::vector<double> setup_times;
  set_up_block(setup_root, setup_times);

  // ---- closed loop: per round a fresh fleet (empty caches), then every
  // spec in seeded order, fresh and then again ----
  SpanRecorder recorder;
  SpanRecorder* rec = options.trace ? &recorder : nullptr;
  std::vector<Submission> fresh, cached;
  std::uint64_t order_state = options.seed;
  std::size_t rounds = 0;
  double rss = 0.0;  // peak RSS over set-up and the first round
  const Clock::time_point t0 = Clock::now();
  do {
    fresh_dir(root);
    Fleet fleet(root);
    CampaignCoordinator coordinator(fleet.config, CoordinatorOptions{});
    for (const std::size_t k : shuffled(kSpecs, order_state)) {
      fresh.push_back(submit(coordinator, specs[k], k, result, rec,
                             "orchestrator.run.fresh"));
      cached.push_back(submit(coordinator, specs[k], k, result, rec,
                              "orchestrator.run.cached"));
      set_up_block(setup_root, setup_times);
    }
    if (options.trace) traced_extras(fleet, specs, cached, *rec, layers);
    if (rounds++ == 0) rss = peak_rss_mb();
  } while (!options.trace && seconds_since(t0) < options.seconds);

  if (options.trace) {
    double shards = 0.0, steals = 0.0, redispatches = 0.0, affinity = 0.0;
    for (const std::vector<Submission>* list : {&fresh, &cached}) {
      for (const Submission& s : *list) {
        shards += static_cast<double>(s.result.num_shards);
        steals += static_cast<double>(s.result.steals);
        redispatches += static_cast<double>(s.result.redispatches);
        affinity += static_cast<double>(s.result.affinity_dispatches);
      }
    }
    layers["orchestrator.shards"] = shards;
    layers["orchestrator.steals"] = steals;
    layers["orchestrator.redispatches"] = redispatches;
    layers["orchestrator.affinity_dispatches"] = affinity;
    const std::filesystem::path trace_file =
        options.work / (options.workload + ".trace.json");
    recorder.write_perfetto(trace_file);
    std::cout << "spans: " << recorder.spans().size() << " written to "
              << trace_file.string() << "\n";
  }

  // ---- verification (untimed): direct runs; untraced, also the Figure 5
  // pair of every spec ----
  std::vector<std::string> direct(kSpecs);
  std::vector<ScenarioBaseline> pairs(kSpecs);
  {
    ThreadPool pool(verify_threads());
    pool.parallel_for(options.trace ? kSpecs : 2 * kSpecs, [&](std::size_t t) {
      const CampaignSpec& spec = specs[t % kSpecs];
      if (t < kSpecs)
        direct[t] = report_bytes(run_campaign(spec));
      else
        pairs[t - kSpecs] =
            measure_baseline_pair(spec, 0, build_campaign_golden(spec, 0));
    });
  }
  std::vector<std::vector<double>> fresh_by_spec(kSpecs), cached_by_spec(kSpecs);
  double sessions = 0.0, submit_s = 0.0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Submission& f = fresh[i];
    const Submission& c = cached[i];
    if (f.ok && report_bytes(f.result.report) != direct[f.spec])
      result.wrong("spec " + std::to_string(f.spec) +
                   ": fleet-merged report differs from a direct run_campaign");
    if (f.ok && c.ok &&
        report_bytes(c.result.report) != report_bytes(f.result.report))
      result.wrong("spec " + std::to_string(f.spec) +
                   ": cached resubmission report differs from the fresh one");
    if (f.ok) {
      fresh_by_spec[f.spec].push_back(f.seconds);
      sessions += static_cast<double>(f.result.report.sessions);
    }
    if (c.ok) {
      cached_by_spec[c.spec].push_back(c.seconds);
      sessions += static_cast<double>(c.result.report.sessions);
    }
    submit_s += f.seconds + c.seconds;
  }
  std::cout << "rounds " << rounds << " x " << kSpecs
            << " specs, each submitted fresh and cached\n";
  if (options.trace) return result;

  // Per spec: median over rounds; then p50 and tail over the specs.
  std::vector<double> fresh_s, cached_s, per_session_s, speedups;
  double work_sum = 0.0, work_count = 0.0;
  for (std::size_t k = 0; k < kSpecs; ++k) {
    fresh_s.push_back(median(fresh_by_spec[k]));
    cached_s.push_back(median(cached_by_spec[k]));
    per_session_s.push_back(fresh_s.back() /
                            static_cast<double>(specs[k].num_sessions()));
    if (pairs[k].measured) speedups.push_back(pairs[k].speedup_quick);
  }
  for (const Submission& f : fresh) {
    if (!f.ok) continue;
    work_sum += f.result.report.debug_work.sum();
    work_count += static_cast<double>(f.result.report.debug_work.count());
  }
  result.metric("sessions_per_s", sessions / submit_s, "sessions/s");
  result.metric("session_p50_s", median(per_session_s), "s");
  result.metric("session_tail_s", tail(per_session_s), "s");
  result.metric("debug_work_units", work_count > 0 ? work_sum / work_count : 0.0,
                "units/session");
  result.metric("eco_speedup_quick", geomean(speedups), "x");
  result.metric("fresh_campaign_p50_s", median(fresh_s), "s");
  result.metric("fresh_campaign_tail_s", tail(fresh_s), "s");
  result.metric("cached_campaign_p50_s", median(cached_s), "s");
  result.metric("cached_campaign_tail_s", tail(cached_s), "s");
  result.metric("setup_s", median(setup_times), "s");
  result.metric("peak_rss_mb", rss, "MB");
  return result;
}

}  // namespace perfbench
