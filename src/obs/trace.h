// Sim-clock event tracing with Chrome trace_event JSON export.
//
// The Tracer records spans (named intervals) and instant events on named
// tracks ("agileml", "proteus", "bidbrain", "chaos", ...). Every event
// carries the timestamp its caller passes, in seconds: runtime
// components pass virtual time (through obs::Emitter), so a trace of a
// same-seed run is bit-identical across executions. Now() reads the wall
// clock since tracer construction, for callers that time real work.
//
// ToChromeJson() emits the Trace Event Format understood by Perfetto
// (ui.perfetto.dev) and chrome://tracing: spans as complete events
// (ph "X"), instants as ph "i", counter samples as ph "C" (rendered as
// time-series tracks), plus thread_name metadata naming each track.
// Event args are typed (string / int / double) and formatted
// deterministically through the shared src/obs/json.h helpers.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace proteus {
namespace obs {

using TraceValue = std::variant<std::string, std::int64_t, double>;
using TraceArgs = std::vector<std::pair<std::string, TraceValue>>;

struct TraceEvent {
  enum class Phase { kSpan, kInstant, kCounter };
  Phase phase = Phase::kInstant;
  std::string name;
  std::string track;
  double ts = 0.0;   // Seconds.
  double dur = 0.0;  // Seconds; spans only.
  TraceArgs args;
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Wall-clock seconds since construction (monotonic).
  double Now() const;

  void SpanAt(double ts, double dur, std::string name, std::string track,
              TraceArgs args = {});
  void InstantAt(double ts, std::string name, std::string track, TraceArgs args = {});

  // Counter sample (Chrome ph "C"): `name` becomes a time-series track
  // in Perfetto, stepping to `value` at ts. Gauges that matter over
  // time (backup lag, detector suspicions, cost total) go through this.
  void CounterAt(double ts, std::string name, std::string track, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void Clear();

  // Chrome trace_event JSON ("traceEvents" array form). Deterministic:
  // identical event sequences render byte-identically.
  std::string ToChromeJson() const;
  // Returns false (and logs) on I/O failure.
  bool WriteJson(const std::string& path) const;

  // Sum of span durations, filtered by name (and optionally one arg
  // key/value); the chaos soak uses this for per-fault-class recovery
  // breakdowns.
  double SpanTotal(const std::string& name, const std::string& arg_key = "",
                   const std::string& arg_value = "") const;

 private:
  void Record(TraceEvent event);

  mutable std::mutex mu_;
  const double wall_epoch_;
  std::vector<TraceEvent> events_;
  // Track name -> tid, in order of first use.
  std::map<std::string, int> track_ids_;
  std::vector<std::string> track_order_;
};

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_TRACE_H_
