#pragma once
/// \file common.hpp
/// Shared plumbing of the benchmark program: command-line options, the run
/// result every workload fills in, and the order statistics the end-to-end
/// metrics are reported with.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work;  ///< scratch directory inside the checkout
};

/// Why operations failed; printed with every run.
struct FailureCounts {
  std::size_t threw = 0;           ///< session or campaign threw
  std::size_t unfixed = 0;         ///< detected, but no verified-clean design
  std::size_t recall_misses = 0;   ///< of `unfixed`: injected cell not suspected
  std::size_t coordinator = 0;     ///< fleet campaigns whose coordinator threw
};

/// What one run reports. `problems` lists wrong outputs: a run with any
/// problem prints `"correct": false` and exits nonzero.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  FailureCounts failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void wrong(const std::string& what) { problems.push_back(what); }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Median (mean of the middle pair for an even count); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// Tail latency: the highest sample with at least k = min(10, n/4) samples
/// above it, i.e. the highest percentile that still has ten samples beyond
/// it once n >= 40; the maximum when n < 4.
[[nodiscard]] double tail(std::vector<double> values);

[[nodiscard]] double geomean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Deterministic permutation of 0..n-1 drawn from `state` (splitmix64).
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n,
                                                std::uint64_t& state);

/// Worker threads for untimed verification passes: the machine's cores,
/// at most four.
[[nodiscard]] std::size_t verify_threads();

/// Make an empty directory (removing whatever was there).
void fresh_dir(const std::filesystem::path& dir);

}  // namespace perfbench
