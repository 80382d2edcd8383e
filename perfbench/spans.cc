#include "perfbench/spans.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <variant>

namespace perfbench {

namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::int64_t IntArg(const proteus::obs::TraceArgs& args, const std::string& key) {
  for (const auto& [name, value] : args) {
    if (name == key) {
      return std::get<std::int64_t>(value);
    }
  }
  return -1;
}

// Per-span self time, indexed like `spans`. Children on pool threads
// overlap each other: subtract the union of their intervals, clipped to
// the parent.
std::vector<double> SelfMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.recorded() && s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.recorded()) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start_s;
    for (const auto& [begin, end] : kids) {
      const double b = std::max(begin, cursor);
      const double e = std::min(end, s.end_s);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (s.end_s - s.start_s - covered) * 1e3;
  }
  return self;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Record(const char* name, int id, int parent, double start_s, double end_s) {
  tracer_.SpanAt(start_s, end_s - start_s, name, "thread " + std::to_string(ThreadIndex()),
                 {{"id", std::int64_t{id}}, {"parent", std::int64_t{parent}}});
}

std::vector<Span> SpanRecorder::Spans() const {
  std::vector<Span> spans(static_cast<std::size_t>(next_id_.load(std::memory_order_relaxed)));
  for (const proteus::obs::TraceEvent& event : tracer_.events()) {
    Span& span = spans.at(static_cast<std::size_t>(IntArg(event.args, "id")));
    span.name = event.name;
    span.start_s = event.ts;
    span.end_s = event.ts + event.dur;
    span.parent = static_cast<int>(IntArg(event.args, "parent"));
  }
  return spans;
}

std::map<std::string, SpanStats> SpanRecorder::ByName() const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfMs(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.recorded()) {
      continue;
    }
    SpanStats& stats = out[s.name];
    ++stats.count;
    stats.total_ms += s.ms();
    stats.self_ms += self[i];
  }
  return out;
}

}  // namespace perfbench
