#include "src/obs/flight_recorder.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/json.h"

namespace proteus {
namespace obs {

namespace {

// The fatal hook is a bare function pointer, so the recorder registers
// itself through this trampoline.
void FatalHookTrampoline(const char* message, void* arg) {
  auto* recorder = static_cast<FlightRecorder*>(arg);
  recorder->Dump(message != nullptr ? message : "fatal");
}

}  // namespace

FlightRecorder::FlightRecorder(EventLedger* ledger, std::size_t ring_capacity)
    : ledger_(ledger), capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  ledger_->SetObserver([this](const LedgerEvent& event) { OnEvent(event); });
}

FlightRecorder::~FlightRecorder() {
  ledger_->SetObserver(nullptr);
  SetFatalHook(nullptr, nullptr);
}

void FlightRecorder::SetDumpPath(std::string path) { dump_path_ = std::move(path); }

void FlightRecorder::InstallFatalHook() { SetFatalHook(&FatalHookTrampoline, this); }

void FlightRecorder::OnEvent(const LedgerEvent& event) {
  last_event_.store(event.id, std::memory_order_relaxed);
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    auto it = rings_.find(event.component);
    if (it == rings_.end()) {
      it = rings_.emplace(event.component, std::make_unique<Ring>(capacity_)).first;
    }
    ring = it->second.get();
  }
  const std::uint64_t slot = ring->next.fetch_add(1, std::memory_order_relaxed);
  ring->slots[slot % capacity_].store(event.id, std::memory_order_release);
}

std::vector<EventId> FlightRecorder::RingContents(const Ring& ring) const {
  const std::uint64_t written = ring.next.load(std::memory_order_acquire);
  const std::uint64_t count = written < capacity_ ? written : capacity_;
  std::vector<EventId> ids;
  ids.reserve(count);
  for (std::uint64_t i = written - count; i < written; ++i) {
    const EventId id = ring.slots[i % capacity_].load(std::memory_order_acquire);
    if (id != kNoEvent) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::string FlightRecorder::DumpToString(const std::string& reason,
                                         EventId anchor) const {
  if (anchor == kNoEvent) {
    anchor = last_event_.load(std::memory_order_relaxed);
  }
  std::string out;
  out += "{\"reason\":";
  AppendJsonString(out, reason);
  out += ",\"anchor\":";
  out += std::to_string(anchor);
  out += ",\n\"chain\":[";
  const std::vector<LedgerEvent> chain = ledger_->Chain(anchor);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendLedgerEventJson(out, chain[i]);
  }
  out += "\n],\n\"components\":{";
  // Snapshot the rings first and read the ledger after releasing
  // rings_mu_: OnEvent takes rings_mu_ under the ledger's lock, so
  // holding it across ledger reads would invert that order.
  std::vector<std::pair<std::string, std::vector<EventId>>> windows;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& [component, ring] : rings_) {
      windows.emplace_back(component, RingContents(*ring));
    }
  }
  bool first_component = true;
  for (const auto& [component, ids] : windows) {
    if (!first_component) {
      out += ',';
    }
    first_component = false;
    out += '\n';
    AppendJsonString(out, component);
    out += ":[";
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      AppendLedgerEventJson(out, ledger_->Get(ids[i]));
    }
    out += "\n]";
  }
  out += "\n}}\n";
  return out;
}

bool FlightRecorder::DumpToFile(const std::string& path, const std::string& reason,
                                EventId anchor) const {
  return WriteStringToFile(path, DumpToString(reason, anchor));
}

bool FlightRecorder::Dump(const std::string& reason, EventId anchor) const {
  const bool ok = DumpToFile(dump_path_, reason, anchor);
  if (ok) {
    PROTEUS_LOG(Warning) << "flight recorder dumped to " << dump_path_ << " (" << reason
                         << ")";
  }
  return ok;
}

}  // namespace obs
}  // namespace proteus
