// Wall-clock spans recorded by the benchmark around its calls into the
// runtime's public API, kept in an obs::Tracer on its wall clock.
//
// Every span is one complete Tracer event on the track of the thread that
// ran it, with integer args "id" and "parent" (-1 for a root). The
// benchmark loop opens one root span per clock; the calls it makes inside
// that clock (RunClock, Step, AddNodes, Recover, ...) are its children, and
// the app's ProcessRange calls, timed by a forwarding MLApp decorator on
// the pool threads, are children of the RunClock/Step span. Nothing here
// runs inside src/: the spans only see layer boundaries that a caller of
// the public API can see. tracer().WriteJson() writes them as a Chrome
// trace.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

// Nanoseconds on the steady clock.
std::int64_t NowNs();

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = -1.0;  // -1: the id was never recorded.
  int parent = -1;

  bool recorded() const { return end_s >= 0.0; }
  double ms() const { return (end_s - start_s) * 1e3; }
};

// Aggregate of all spans sharing one name.
struct SpanStats {
  std::int64_t count = 0;
  double total_ms = 0.0;
  // Duration minus the union of its children's intervals.
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  // Seconds on the tracer's wall clock.
  double Now() const { return tracer_.Now(); }
  // Reserves the id of a span that Record() will end. Children recorded
  // meanwhile name it as their parent.
  int NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records a finished span (safe from any thread).
  void Record(const char* name, int id, int parent, double start_s, double end_s);

  // Parent for spans recorded on pool threads (the RunClock/Step span
  // the benchmark loop is currently blocked in).
  void set_ambient_parent(int id) { ambient_parent_.store(id, std::memory_order_relaxed); }
  int ambient_parent() const { return ambient_parent_.load(std::memory_order_relaxed); }

  const proteus::obs::Tracer& tracer() const { return tracer_; }

  // Every span, indexed by id (call with no span being recorded).
  std::vector<Span> Spans() const;
  std::map<std::string, SpanStats> ByName() const;

 private:
  proteus::obs::Tracer tracer_;
  std::atomic<int> next_id_{0};
  std::atomic<int> ambient_parent_{-1};
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
