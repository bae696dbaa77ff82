#include "spans.hpp"

#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {
double micros_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

int SpanRecorder::open(const std::string& name, long long session) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  // A span inherits its parent's session unless it names its own.
  span.session =
      session >= 0 || span.parent < 0 ? session : spans_[span.parent].session;
  span.start_us = micros_since(origin_);
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = micros_since(origin_);
  // Spans are strictly nested (RAII), so the closing span is on top.
  stack_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].seconds();
    t.self_s += spans_[i].seconds() - child_s[i];
  }
  return out;
}

void SpanRecorder::write_perfetto(const std::filesystem::path& path) const {
  std::ofstream os(path);
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"span\":" << i
       << ",\"parent\":" << s.parent << ",\"session\":" << s.session << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
