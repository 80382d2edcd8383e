// Emitter: the one call site for every runtime observability event.
//
// A component holds one Emitter in place of raw sink pointers. The three
// sinks are optional and each call feeds whichever are attached:
//   - Event / EventWithParent record a leaf event in the EventLedger and
//     mirror it into the Tracer as an instant with the same name, time
//     and args (the component names the trace track);
//   - Open / Close bracket a causal region: the ledger parents everything
//     recorded meanwhile to it, and closing it mirrors the region into
//     the trace as a complete span carrying the open and the close args;
//   - Instant / Span / Sample are trace-only views with no ledger
//     counterpart (counter time series, per-class recovery spans, ...);
//   - GetCounter / GetGauge / GetHistogram never return null: with no
//     registry attached they register in MetricsRegistry::Default().
// With no sink attached every call is a no-op, so call sites never test
// for a sink. Copying an Emitter copies the three pointers; the sinks
// must outlive every copy.
#ifndef SRC_OBS_EMITTER_H_
#define SRC_OBS_EMITTER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace obs {

class Emitter {
 public:
  // An open causal region: what Close needs to finish both sinks. `id`
  // is the ledger id (kNoEvent without a ledger), usable as a causal
  // parent while or after the region is open.
  struct Region {
    EventId id = kNoEvent;
    std::string kind;
    std::string component;
    double ts = 0.0;
    TraceArgs args;
  };

  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  void SetLedger(EventLedger* ledger) { ledger_ = ledger; }
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* metrics() const { return metrics_; }

  // Leaf event parented to the ledger's innermost open region.
  EventId Event(std::string kind, std::string component, double ts,
                TraceArgs args = {}) const;
  // Leaf event with an explicit causal parent.
  EventId EventWithParent(std::string kind, std::string component, double ts,
                          EventId parent, TraceArgs args = {}) const;

  // Regions must close innermost-first (EventLedger::Close checks).
  Region Open(std::string kind, std::string component, double ts,
              TraceArgs args = {}) const;
  void Close(const Region& region, double dur, TraceArgs args = {}) const;

  // Trace-only views.
  void Instant(double ts, std::string name, std::string track, TraceArgs args = {}) const;
  void Span(double ts, double dur, std::string name, std::string track,
            TraceArgs args = {}) const;
  void Sample(double ts, std::string name, std::string track, double value) const;

  // Handles from the attached registry, or MetricsRegistry::Default().
  Counter* GetCounter(const std::string& name, const Labels& labels = {}) const {
    return registry().GetCounter(name, labels);
  }
  Gauge* GetGauge(const std::string& name, const Labels& labels = {}) const {
    return registry().GetGauge(name, labels);
  }
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const Labels& labels = {}) const {
    return registry().GetHistogram(name, std::move(bounds), labels);
  }

 private:
  MetricsRegistry& registry() const {
    return metrics_ != nullptr ? *metrics_ : MetricsRegistry::Default();
  }

  Tracer* tracer_ = nullptr;
  EventLedger* ledger_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_EMITTER_H_
