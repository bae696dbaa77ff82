#pragma once
/// \file spans.hpp
/// In-memory span recorder for the traced run. Spans wrap calls into the
/// public functions of each src/ module from the outside; they carry a name,
/// start and end, the enclosing span, and the debug session they belong to.
/// Nothing is written until the run ends, when the whole set goes out as a
/// Perfetto-loadable (Chrome trace-event) JSON file. Single-threaded by
/// design: the traced run replays sessions one after another so that span
/// durations are not inflated by sibling threads.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;        ///< index into SpanRecorder::spans(), -1 for roots
  long long session = -1; ///< benchmark-wide session id, -1 outside sessions
  [[nodiscard]] double seconds() const { return (end_us - start_us) * 1e-6; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  [[nodiscard]] int open(const std::string& name, long long session);
  void close(int index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per name: number of spans, their total duration, and their total self
  /// time (duration minus the duration of direct children), in seconds.
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Named counters recorded next to the spans (e.g. work units of the
  /// calls a span wraps).
  void add(const std::string& counter, double value) { counters_[counter] += value; }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Write the spans as Chrome trace-event JSON (loads in ui.perfetto.dev).
  void write_perfetto(const std::filesystem::path& path) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null recorder makes it a no-op, so the untraced and traced
/// replays share one code path.
class Span {
 public:
  Span(SpanRecorder* recorder, const std::string& name, long long session = -1)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, session) : -1) {}
  ~Span() {
    if (recorder_) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench
