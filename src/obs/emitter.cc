#include "src/obs/emitter.h"

#include <utility>

namespace proteus {
namespace obs {

EventId Emitter::Event(std::string kind, std::string component, double ts,
                       TraceArgs args) const {
  if (tracer_ != nullptr) {
    tracer_->InstantAt(ts, kind, component, args);
  }
  if (ledger_ == nullptr) {
    return kNoEvent;
  }
  return ledger_->Record(std::move(kind), std::move(component), ts, std::move(args));
}

EventId Emitter::EventWithParent(std::string kind, std::string component, double ts,
                                 EventId parent, TraceArgs args) const {
  if (tracer_ != nullptr) {
    tracer_->InstantAt(ts, kind, component, args);
  }
  if (ledger_ == nullptr) {
    return kNoEvent;
  }
  return ledger_->RecordWithParent(std::move(kind), std::move(component), ts, parent,
                                   std::move(args));
}

Emitter::Region Emitter::Open(std::string kind, std::string component, double ts,
                              TraceArgs args) const {
  Region region;
  region.ts = ts;
  if (tracer_ != nullptr) {
    region.kind = kind;
    region.component = component;
    region.args = args;
  }
  if (ledger_ != nullptr) {
    region.id = ledger_->Open(std::move(kind), std::move(component), ts, std::move(args));
  }
  return region;
}

void Emitter::Close(const Region& region, double dur, TraceArgs args) const {
  if (tracer_ != nullptr && !region.kind.empty()) {
    TraceArgs span_args = region.args;
    span_args.insert(span_args.end(), args.begin(), args.end());
    tracer_->SpanAt(region.ts, dur, region.kind, region.component, std::move(span_args));
  }
  if (ledger_ != nullptr) {
    ledger_->Close(region.id, dur, std::move(args));
  }
}

void Emitter::Instant(double ts, std::string name, std::string track, TraceArgs args) const {
  if (tracer_ != nullptr) {
    tracer_->InstantAt(ts, std::move(name), std::move(track), std::move(args));
  }
}

void Emitter::Span(double ts, double dur, std::string name, std::string track,
                   TraceArgs args) const {
  if (tracer_ != nullptr) {
    tracer_->SpanAt(ts, dur, std::move(name), std::move(track), std::move(args));
  }
}

void Emitter::Sample(double ts, std::string name, std::string track, double value) const {
  if (tracer_ != nullptr) {
    tracer_->CounterAt(ts, std::move(name), std::move(track), value);
  }
}

}  // namespace obs
}  // namespace proteus
