// Durable checkpoint tier (stage-1 insurance made real, §3.3).
//
// The in-memory checkpoints AgileML keeps on reliable nodes die with
// those nodes; when a correlated spot-market crash takes every transient
// node *and* the reliable tier, the only recovery source left is a
// snapshot on durable storage. CheckpointStore is that layer: numbered
// epochs, each one CRC32-framed chunk under an atomically-committed
// manifest, written to a pluggable DurableDevice that is allowed to be
// hostile (torn writes, bit rot, truncation, lost commits).
//
// Object layout on the device
//
//   ck/obj/e<epoch10>               one chunk: the epoch's framed model blob
//   ck/ep/<epoch10>/MANIFEST        committed epoch manifest
//   ck/ep/<epoch10>/MANIFEST.tmp    phase-1 of the manifest commit
//
// Chunk frame (all multi-byte scalars via the rpc wire format):
//
//   u32   magic 'PCK1'
//   u8    format version (2)
//   var   checkpoint clock
//   blob  payload (a canonical ModelStore::SerializeCheckpoint blob)
//   u32   CRC-32 of every preceding byte
//
// Manifest frame:
//
//   u32   magic 'PMF1'
//   u8    format version (2)
//   var   epoch
//   var   clock
//   var   chunk_bytes
//   u32   chunk_crc
//   u32   CRC-32 of every preceding byte
//
// chunk_crc is the CRC-32 of the *entire chunk object*, so a reader can
// reject a swapped or stale chunk without parsing it.
//
// Commit protocol (two-phase): write the epoch's chunk, write
// MANIFEST.tmp, then Rename() it to MANIFEST. The rename is the commit
// point — a crash before it leaves a torn epoch that readers skip
// because no committed manifest exists. Every epoch is self-contained:
// its one chunk is written at its own clock and no other epoch refers
// to it, so nothing but the epoch cursor carries over from one epoch,
// or one store instance over the same device, to the next.
//
// Validation is paranoid by design: ReadNewestValid() walks epochs
// newest-first and accepts the first one whose manifest parses, whose
// CRC matches, whose chunk exists with the manifest's size and CRC,
// and whose frames both self-validate. Anything less is skipped and
// counted, never loaded. Scrub() applies the same checks to every
// object on the device.
#ifndef SRC_PS_CHECKPOINT_STORE_H_
#define SRC_PS_CHECKPOINT_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/emitter.h"

namespace proteus {

// Minimal durable-storage contract. Names are flat strings ('/' is only
// a naming convention); Write replaces, Rename is atomic (the commit
// primitive), List returns all names sorted. Any call may fail — the
// store treats failure as "the process crashed here".
class DurableDevice {
 public:
  virtual ~DurableDevice() = default;

  virtual bool Write(const std::string& name, std::span<const std::uint8_t> bytes) = 0;
  virtual std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const = 0;
  virtual bool Delete(const std::string& name) = 0;
  virtual bool Rename(const std::string& from, const std::string& to) = 0;
  virtual std::vector<std::string> List() const = 0;

  bool Exists(const std::string& name) const { return Read(name).has_value(); }
};

// In-memory device for simulation and tests, with the fault hooks the
// chaos harness needs: armed one-shot crash faults (torn write, dropped
// rename) and direct corruption of stored objects.
class MemDurableDevice : public DurableDevice {
 public:
  bool Write(const std::string& name, std::span<const std::uint8_t> bytes) override;
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override;
  bool Delete(const std::string& name) override;
  bool Rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> List() const override;

  // The next Write persists only the first `keep_fraction` of its bytes
  // and reports failure — a crash mid-write leaving a torn frame.
  void ArmTornWrite(double keep_fraction = 0.5);
  // The next Rename does nothing and reports failure — a crash after
  // phase 1 but before the commit point, leaving MANIFEST.tmp behind.
  void ArmDropRename();

  // Bit rot / hostile-storage injection. All return false if `name` is
  // absent (or the offset is out of range).
  bool FlipBit(const std::string& name, std::size_t byte_index, int bit);
  bool Truncate(const std::string& name, std::size_t new_size);

  std::size_t object_count() const { return objects_.size(); }
  std::uint64_t bytes_stored() const;
  std::uint64_t bytes_written_total() const { return bytes_written_total_; }

 private:
  std::map<std::string, std::vector<std::uint8_t>> objects_;
  std::uint64_t bytes_written_total_ = 0;
  bool torn_write_armed_ = false;
  double torn_keep_fraction_ = 0.5;
  bool drop_rename_armed_ = false;
};

// File-backed device rooted at a directory; chunk/manifest names map to
// files ('/' to subdirectories). Writes go through a temp file + rename
// so the device itself never exposes a half-written object except when
// the process genuinely dies mid-write.
class FileDurableDevice : public DurableDevice {
 public:
  explicit FileDurableDevice(std::string root);

  bool Write(const std::string& name, std::span<const std::uint8_t> bytes) override;
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override;
  bool Delete(const std::string& name) override;
  bool Rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> List() const override;

  const std::string& root() const { return root_; }

 private:
  std::string Path(const std::string& name) const;
  std::string root_;
};

struct CheckpointStoreConfig {
  // Committed epochs kept before GC reclaims manifests and any chunks
  // no retained manifest references.
  int retain_epochs = 3;
};

struct CheckpointWriteResult {
  bool committed = false;  // False when a device fault aborted the 2PC.
  std::uint64_t epoch = 0;
  Clock clock = 0;
  std::uint64_t bytes_written = 0;  // Chunk + manifest bytes persisted.
};

struct LoadedCheckpoint {
  std::uint64_t epoch = 0;
  Clock clock = 0;
  std::vector<std::uint8_t> payload;  // The blob Write() was given.
  std::uint64_t bytes_read = 0;
  // Committed-looking epochs rejected before this one validated.
  int corrupt_epochs_skipped = 0;
  // Epochs with only a MANIFEST.tmp (crash before the commit point).
  int torn_epochs_skipped = 0;
};

struct ScrubReport {
  int epochs_committed = 0;  // Manifests present (valid or not).
  int torn_epochs = 0;       // MANIFEST.tmp with no committed manifest.
  int frames_checked = 0;    // Manifest + chunk frames fully validated.
  std::vector<std::string> corrupt_objects;  // Failed CRC or structure.

  bool clean() const { return corrupt_objects.empty(); }
};

class CheckpointStore {
 public:
  explicit CheckpointStore(DurableDevice* device, CheckpointStoreConfig config = {});

  // Registers checkpoint.* metrics in `metrics` (nullptr: the default
  // registry).
  void SetObservability(obs::MetricsRegistry* metrics);

  // Writes `blob` (normally the runtime's in-memory checkpoint) as the
  // next epoch's chunk plus a manifest, commits via rename, then GCs
  // epochs beyond the retention window.
  CheckpointWriteResult Write(std::span<const std::uint8_t> blob, Clock clock);

  // Newest epoch that passes full validation; corrupt or torn epochs
  // are skipped (and counted in the result), never loaded.
  std::optional<LoadedCheckpoint> ReadNewestValid() const;

  // Validates every object on the device (manifests, chunks, torn
  // epochs). A corruption injected anywhere surfaces here.
  ScrubReport Scrub() const;

  std::uint64_t epochs_committed() const { return epochs_committed_; }
  std::uint64_t last_committed_epoch() const { return last_committed_epoch_; }
  std::uint64_t commit_aborts() const { return commit_aborts_; }
  const CheckpointStoreConfig& config() const { return config_; }
  DurableDevice* device() { return device_; }

 private:
  void CollectGarbage();

  DurableDevice* device_;
  CheckpointStoreConfig config_;

  std::uint64_t next_epoch_ = 1;
  std::uint64_t last_committed_epoch_ = 0;
  std::uint64_t epochs_committed_ = 0;
  std::uint64_t commit_aborts_ = 0;

  // Re-resolves the cached metric handles against obs_'s registry.
  void BindMetrics();

  obs::Emitter obs_;
  obs::Counter* bytes_written_counter_ = nullptr;
  obs::Counter* bytes_restored_counter_ = nullptr;
  obs::Counter* epochs_committed_counter_ = nullptr;
  obs::Counter* commit_aborts_counter_ = nullptr;
  obs::Counter* corrupt_epochs_counter_ = nullptr;
  obs::Counter* scrub_corrupt_counter_ = nullptr;
};

// Exposed for tests: full validation of a single chunk object. Returns
// nullopt unless the frame parses and its CRC matches.
struct ParsedChunk {
  Clock clock = 0;
  std::vector<std::uint8_t> payload;
};
std::optional<ParsedChunk> ParseChunkFrame(std::span<const std::uint8_t> bytes);

}  // namespace proteus

#endif  // SRC_PS_CHECKPOINT_STORE_H_
