#include "src/ps/checkpoint_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/rpc/serializer.h"

namespace proteus {
namespace {

constexpr std::uint32_t kChunkMagic = 0x314B4350u;     // 'PCK1' little-endian.
constexpr std::uint32_t kManifestMagic = 0x31464D50u;  // 'PMF1'.
constexpr std::uint8_t kFormatVersion = 2;

std::string ChunkName(std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ck/obj/e%010llu", static_cast<unsigned long long>(epoch));
  return buf;
}

std::string EpochDir(std::uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ck/ep/%010llu", static_cast<unsigned long long>(epoch));
  return buf;
}

std::string ManifestName(std::uint64_t epoch) { return EpochDir(epoch) + "/MANIFEST"; }
std::string TempManifestName(std::uint64_t epoch) { return EpochDir(epoch) + "/MANIFEST.tmp"; }

// "ck/ep/<digits>/MANIFEST[.tmp]" -> epoch; nullopt for other names.
std::optional<std::uint64_t> EpochOfName(const std::string& name, bool* is_tmp) {
  constexpr char kPrefix[] = "ck/ep/";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::size_t slash = name.find('/', sizeof(kPrefix) - 1);
  if (slash == std::string::npos) return std::nullopt;
  const std::string digits = name.substr(sizeof(kPrefix) - 1, slash - (sizeof(kPrefix) - 1));
  if (digits.empty()) return std::nullopt;
  std::uint64_t epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  const std::string rest = name.substr(slash + 1);
  if (rest == "MANIFEST") {
    if (is_tmp != nullptr) *is_tmp = false;
    return epoch;
  }
  if (rest == "MANIFEST.tmp") {
    if (is_tmp != nullptr) *is_tmp = true;
    return epoch;
  }
  return std::nullopt;
}

// Trailing-CRC check shared by both frame kinds: the last 4 bytes must
// be the CRC-32 of everything before them.
bool TrailerValid(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return false;
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - sizeof(std::uint32_t));
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body.size(), sizeof(stored));
  return Crc32(body) == stored;
}

struct ParsedManifest {
  std::uint64_t epoch = 0;
  Clock clock = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint32_t chunk_crc = 0;
};

std::optional<ParsedManifest> ParseManifestFrame(std::span<const std::uint8_t> bytes) {
  if (!TrailerValid(bytes)) return std::nullopt;
  WireReader reader(bytes.first(bytes.size() - sizeof(std::uint32_t)));
  const auto magic = reader.U32();
  const auto version = reader.U8();
  if (!magic || *magic != kManifestMagic) return std::nullopt;
  if (!version || *version != kFormatVersion) return std::nullopt;
  const auto epoch = reader.VarU64();
  const auto clock = reader.VarU64();
  const auto chunk_bytes = reader.VarU64();
  const auto chunk_crc = reader.U32();
  if (!epoch || !clock || !chunk_bytes || !chunk_crc) return std::nullopt;
  if (!reader.AtEnd()) return std::nullopt;
  return ParsedManifest{*epoch, static_cast<Clock>(*clock), *chunk_bytes, *chunk_crc};
}

std::vector<std::uint8_t> EncodeChunkFrame(Clock clock, std::span<const std::uint8_t> payload) {
  WireWriter writer;
  writer.Reserve(payload.size() + 32);
  writer.U32(kChunkMagic);
  writer.U8(kFormatVersion);
  writer.VarU64(static_cast<std::uint64_t>(clock));
  writer.Blob(payload);
  writer.U32(Crc32(writer.bytes()));
  return writer.Take();
}

std::vector<std::uint8_t> EncodeManifestFrame(const ParsedManifest& manifest) {
  WireWriter writer;
  writer.U32(kManifestMagic);
  writer.U8(kFormatVersion);
  writer.VarU64(manifest.epoch);
  writer.VarU64(static_cast<std::uint64_t>(manifest.clock));
  writer.VarU64(manifest.chunk_bytes);
  writer.U32(manifest.chunk_crc);
  writer.U32(Crc32(writer.bytes()));
  return writer.Take();
}

// What a manifest checks of its chunk object: size, object CRC and, if
// the frame parsed, the chunk's clock.
struct ChunkFacts {
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  std::optional<Clock> clock;
};

ChunkFacts FactsOf(std::span<const std::uint8_t> object, const std::optional<ParsedChunk>& chunk) {
  return {object.size(), Crc32(object),
          chunk ? std::optional<Clock>(chunk->clock) : std::nullopt};
}

// A committed epoch is valid iff its chunk exists, has the manifest's
// size and object CRC, parses, and was written at the manifest's clock.
bool ChunkMatches(const ParsedManifest& manifest, const ChunkFacts& facts) {
  return facts.bytes == manifest.chunk_bytes && facts.crc == manifest.chunk_crc &&
         facts.clock == manifest.clock;
}

// Full validation of one committed epoch against its chunk on `device`;
// on success fills `out` with the payload.
bool ValidateEpoch(const DurableDevice& device, const ParsedManifest& manifest,
                   LoadedCheckpoint* out) {
  const auto object = device.Read(ChunkName(manifest.epoch));
  if (!object) return false;
  auto chunk = ParseChunkFrame(*object);
  if (!ChunkMatches(manifest, FactsOf(*object, chunk))) return false;
  out->epoch = manifest.epoch;
  out->clock = manifest.clock;
  out->payload = std::move(chunk->payload);
  out->bytes_read = object->size();
  return true;
}

}  // namespace

std::optional<ParsedChunk> ParseChunkFrame(std::span<const std::uint8_t> bytes) {
  if (!TrailerValid(bytes)) return std::nullopt;
  WireReader reader(bytes.first(bytes.size() - sizeof(std::uint32_t)));
  const auto magic = reader.U32();
  const auto version = reader.U8();
  if (!magic || *magic != kChunkMagic) return std::nullopt;
  if (!version || *version != kFormatVersion) return std::nullopt;
  const auto clock = reader.VarU64();
  auto payload = reader.Blob();
  if (!clock || !payload) return std::nullopt;
  if (!reader.AtEnd()) return std::nullopt;
  return ParsedChunk{static_cast<Clock>(*clock), std::move(*payload)};
}

// --- MemDurableDevice ---

bool MemDurableDevice::Write(const std::string& name, std::span<const std::uint8_t> bytes) {
  if (torn_write_armed_) {
    torn_write_armed_ = false;
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * torn_keep_fraction_);
    objects_[name].assign(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    bytes_written_total_ += keep;
    return false;
  }
  objects_[name].assign(bytes.begin(), bytes.end());
  bytes_written_total_ += bytes.size();
  return true;
}

std::optional<std::vector<std::uint8_t>> MemDurableDevice::Read(const std::string& name) const {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

bool MemDurableDevice::Delete(const std::string& name) { return objects_.erase(name) > 0; }

bool MemDurableDevice::Rename(const std::string& from, const std::string& to) {
  if (drop_rename_armed_) {
    drop_rename_armed_ = false;
    return false;
  }
  const auto it = objects_.find(from);
  if (it == objects_.end()) return false;
  objects_[to] = std::move(it->second);
  objects_.erase(from);
  return true;
}

std::vector<std::string> MemDurableDevice::List() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, bytes] : objects_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

void MemDurableDevice::ArmTornWrite(double keep_fraction) {
  torn_write_armed_ = true;
  torn_keep_fraction_ = std::clamp(keep_fraction, 0.0, 1.0);
}

void MemDurableDevice::ArmDropRename() { drop_rename_armed_ = true; }

bool MemDurableDevice::FlipBit(const std::string& name, std::size_t byte_index, int bit) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || byte_index >= it->second.size()) return false;
  it->second[byte_index] ^= static_cast<std::uint8_t>(1u << (bit & 7));
  return true;
}

bool MemDurableDevice::Truncate(const std::string& name, std::size_t new_size) {
  const auto it = objects_.find(name);
  if (it == objects_.end() || new_size >= it->second.size()) return false;
  it->second.resize(new_size);
  return true;
}

std::uint64_t MemDurableDevice::bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : objects_) total += bytes.size();
  return total;
}

// --- FileDurableDevice ---

FileDurableDevice::FileDurableDevice(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
}

std::string FileDurableDevice::Path(const std::string& name) const { return root_ + "/" + name; }

bool FileDurableDevice::Write(const std::string& name, std::span<const std::uint8_t> bytes) {
  const std::filesystem::path path = Path(name);
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  const std::filesystem::path tmp = path.string() + ".wr";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<std::vector<std::uint8_t>> FileDurableDevice::Read(const std::string& name) const {
  std::ifstream in(Path(name), std::ios::binary);
  if (!in) return std::nullopt;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

bool FileDurableDevice::Delete(const std::string& name) {
  std::error_code ec;
  return std::filesystem::remove(Path(name), ec) && !ec;
}

bool FileDurableDevice::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(Path(from), Path(to), ec);
  return !ec;
}

std::vector<std::string> FileDurableDevice::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  const std::filesystem::path root(root_);
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string rel = std::filesystem::relative(it->path(), root, ec).generic_string();
    if (!ec && !rel.empty()) names.push_back(rel);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// --- CheckpointStore ---

CheckpointStore::CheckpointStore(DurableDevice* device, CheckpointStoreConfig config)
    : device_(device), config_(config) {
  PROTEUS_CHECK(device_ != nullptr);
  PROTEUS_CHECK(config_.retain_epochs >= 1);
  // Recover the epoch cursor from whatever is already on the device, so
  // a store reopened after a crash keeps appending instead of colliding
  // with (or hiding behind) existing epochs.
  for (const std::string& name : device_->List()) {
    bool is_tmp = false;
    const auto epoch = EpochOfName(name, &is_tmp);
    if (!epoch) continue;
    next_epoch_ = std::max(next_epoch_, *epoch + 1);
    if (!is_tmp) last_committed_epoch_ = std::max(last_committed_epoch_, *epoch);
  }
  BindMetrics();
}

void CheckpointStore::SetObservability(obs::MetricsRegistry* metrics) {
  obs_.SetMetrics(metrics);
  BindMetrics();
}

void CheckpointStore::BindMetrics() {
  bytes_written_counter_ = obs_.GetCounter("checkpoint.bytes_written");
  bytes_restored_counter_ = obs_.GetCounter("checkpoint.bytes_restored");
  epochs_committed_counter_ = obs_.GetCounter("checkpoint.epochs_committed");
  commit_aborts_counter_ = obs_.GetCounter("checkpoint.commit_aborts");
  corrupt_epochs_counter_ = obs_.GetCounter("checkpoint.corrupt_epochs_skipped");
  scrub_corrupt_counter_ = obs_.GetCounter("checkpoint.scrub_corruptions_found");
}

CheckpointWriteResult CheckpointStore::Write(std::span<const std::uint8_t> blob, Clock clock) {
  CheckpointWriteResult result;
  result.epoch = next_epoch_++;
  result.clock = clock;

  const std::string chunk_name = ChunkName(result.epoch);
  const std::vector<std::uint8_t> chunk = EncodeChunkFrame(clock, blob);
  if (!device_->Write(chunk_name, chunk)) {
    // The store survived the device fault, so it rolls the aborted
    // epoch back: a torn chunk left behind would read as corruption.
    device_->Delete(chunk_name);
  } else {
    result.bytes_written += chunk.size();
    const std::vector<std::uint8_t> manifest =
        EncodeManifestFrame({result.epoch, clock, chunk.size(), Crc32(chunk)});
    // A failed rename is a crash between phase 1 and the commit point.
    if (device_->Write(TempManifestName(result.epoch), manifest) &&
        device_->Rename(TempManifestName(result.epoch), ManifestName(result.epoch))) {
      result.bytes_written += manifest.size();
      result.committed = true;
    }
  }

  if (result.committed) {
    last_committed_epoch_ = result.epoch;
    ++epochs_committed_;
    CollectGarbage();
    bytes_written_counter_->Add(result.bytes_written);
    epochs_committed_counter_->Increment();
  } else {
    ++commit_aborts_;
    commit_aborts_counter_->Increment();
  }
  return result;
}

std::optional<LoadedCheckpoint> CheckpointStore::ReadNewestValid() const {
  // Collect epochs newest-first; a tmp-only epoch is torn, a committed
  // manifest that fails validation is corrupt — both skipped.
  std::map<std::uint64_t, bool> has_manifest;  // epoch -> committed manifest present.
  for (const std::string& name : device_->List()) {
    bool is_tmp = false;
    const auto epoch = EpochOfName(name, &is_tmp);
    if (!epoch) continue;
    auto [it, inserted] = has_manifest.emplace(*epoch, !is_tmp);
    if (!inserted && !is_tmp) it->second = true;
  }
  int corrupt_skipped = 0;
  int torn_skipped = 0;
  for (auto it = has_manifest.rbegin(); it != has_manifest.rend(); ++it) {
    if (!it->second) {
      ++torn_skipped;
      continue;
    }
    const auto bytes = device_->Read(ManifestName(it->first));
    if (bytes) {
      const auto manifest = ParseManifestFrame(*bytes);
      if (manifest && manifest->epoch == it->first) {
        LoadedCheckpoint loaded;
        if (ValidateEpoch(*device_, *manifest, &loaded)) {
          loaded.bytes_read += bytes->size();
          loaded.corrupt_epochs_skipped = corrupt_skipped;
          loaded.torn_epochs_skipped = torn_skipped;
          bytes_restored_counter_->Add(loaded.bytes_read);
          corrupt_epochs_counter_->Add(static_cast<std::uint64_t>(corrupt_skipped));
          return loaded;
        }
      }
    }
    ++corrupt_skipped;
  }
  corrupt_epochs_counter_->Add(static_cast<std::uint64_t>(corrupt_skipped));
  return std::nullopt;
}

ScrubReport CheckpointStore::Scrub() const {
  ScrubReport report;
  std::set<std::uint64_t> committed;
  std::set<std::uint64_t> tmp_only;
  std::vector<std::string> chunk_names;
  for (const std::string& name : device_->List()) {
    bool is_tmp = false;
    if (const auto epoch = EpochOfName(name, &is_tmp)) {
      if (is_tmp) {
        tmp_only.insert(*epoch);
      } else {
        committed.insert(*epoch);
      }
      continue;
    }
    if (name.rfind("ck/obj/", 0) == 0) chunk_names.push_back(name);
  }
  for (std::uint64_t epoch : tmp_only) {
    if (committed.count(epoch) == 0) ++report.torn_epochs;
  }
  report.epochs_committed = static_cast<int>(committed.size());
  // Every chunk must self-validate regardless of which manifests still
  // reference it. Each is read once; the manifest pass below checks
  // against the facts kept here.
  std::map<std::string, ChunkFacts> chunks;
  for (const std::string& name : chunk_names) {
    ++report.frames_checked;
    const auto bytes = device_->Read(name);
    if (!bytes) {
      report.corrupt_objects.push_back(name);
      continue;
    }
    const auto chunk = ParseChunkFrame(*bytes);
    if (!chunk) report.corrupt_objects.push_back(name);
    chunks.emplace(name, FactsOf(*bytes, chunk));
  }
  // Every committed manifest must parse and its epoch must fully
  // validate (existence, size, CRC and clock of its chunk).
  for (std::uint64_t epoch : committed) {
    ++report.frames_checked;
    const std::string name = ManifestName(epoch);
    const auto bytes = device_->Read(name);
    const auto manifest = bytes ? ParseManifestFrame(*bytes) : std::nullopt;
    const auto chunk = manifest ? chunks.find(ChunkName(manifest->epoch)) : chunks.end();
    if (!manifest || manifest->epoch != epoch || chunk == chunks.end() ||
        !ChunkMatches(*manifest, chunk->second)) {
      report.corrupt_objects.push_back(name);
    }
  }
  scrub_corrupt_counter_->Add(report.corrupt_objects.size());
  return report;
}

void CheckpointStore::CollectGarbage() {
  // Keep the newest retain_epochs committed manifests; delete older
  // manifests, any leftover tmp files below the retention floor, and
  // every chunk no retained (and readable) manifest references.
  std::vector<std::uint64_t> committed;
  std::vector<std::pair<std::uint64_t, std::string>> tmp_files;
  std::vector<std::string> chunk_names;
  for (const std::string& name : device_->List()) {
    bool is_tmp = false;
    if (const auto epoch = EpochOfName(name, &is_tmp)) {
      if (is_tmp) {
        tmp_files.emplace_back(*epoch, name);
      } else {
        committed.push_back(*epoch);
      }
      continue;
    }
    if (name.rfind("ck/obj/", 0) == 0) chunk_names.push_back(name);
  }
  std::sort(committed.begin(), committed.end());
  if (committed.size() <= static_cast<std::size_t>(config_.retain_epochs)) {
    // Still collect tmp leftovers from epochs older than the newest
    // committed one (dead torn commits).
    for (const auto& [epoch, name] : tmp_files) {
      if (epoch < last_committed_epoch_) device_->Delete(name);
    }
    return;
  }
  const std::uint64_t floor =
      committed[committed.size() - static_cast<std::size_t>(config_.retain_epochs)];
  std::set<std::string> referenced;
  for (std::uint64_t epoch : committed) {
    if (epoch < floor) {
      device_->Delete(ManifestName(epoch));
      continue;
    }
    const auto bytes = device_->Read(ManifestName(epoch));
    const auto manifest = bytes ? ParseManifestFrame(*bytes) : std::nullopt;
    if (manifest) referenced.insert(ChunkName(manifest->epoch));
  }
  for (const auto& [epoch, name] : tmp_files) {
    if (epoch < last_committed_epoch_) device_->Delete(name);
  }
  for (const std::string& name : chunk_names) {
    if (referenced.count(name) == 0) device_->Delete(name);
  }
}

}  // namespace proteus
