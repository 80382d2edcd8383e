// Unit tests for the durable CheckpointStore: the two-phase manifest
// commit, retention/GC, crash-reopen recovery of the epoch cursor,
// fault-hook behavior of MemDurableDevice, the file-backed device, and
// Scrub's one read per object.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/ps/checkpoint_store.h"
#include "src/ps/model.h"

namespace proteus {
namespace {

std::vector<std::uint8_t> MakeBlob(std::uint8_t salt) {
  std::vector<std::uint8_t> blob;
  for (int i = 0; i < 96; ++i) {
    blob.push_back(static_cast<std::uint8_t>(salt + i));
  }
  return blob;
}

int CountObjects(const DurableDevice& device, const std::string& fragment) {
  int count = 0;
  for (const std::string& name : device.List()) {
    count += name.find(fragment) != std::string::npos;
  }
  return count;
}

TEST(CheckpointStoreTest, WriteAndReadBackRoundTrip) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  const auto blob = MakeBlob(7);
  const CheckpointWriteResult write = store.Write(blob, 5);
  ASSERT_TRUE(write.committed);
  EXPECT_EQ(write.epoch, 1u);
  EXPECT_GT(write.bytes_written, blob.size());

  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->clock, 5);
  EXPECT_EQ(loaded->payload, blob);
  EXPECT_EQ(loaded->corrupt_epochs_skipped, 0);
  EXPECT_EQ(loaded->torn_epochs_skipped, 0);
  EXPECT_TRUE(store.Scrub().clean());
}

TEST(CheckpointStoreTest, DroppedRenameLeavesPriorEpochRestorable) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  const auto first = MakeBlob(1);
  ASSERT_TRUE(store.Write(first, 3).committed);

  device.ArmDropRename();  // The commit point never happens.
  const CheckpointWriteResult torn = store.Write(MakeBlob(50), 6);
  EXPECT_FALSE(torn.committed);
  EXPECT_EQ(store.commit_aborts(), 1u);
  EXPECT_EQ(store.last_committed_epoch(), 1u);

  // The torn epoch is skipped (counted, never loaded); epoch 1 serves.
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, first);
  EXPECT_EQ(loaded->torn_epochs_skipped, 1);
  EXPECT_EQ(store.Scrub().torn_epochs, 1);
  EXPECT_TRUE(store.Scrub().clean());
}

TEST(CheckpointStoreTest, TornChunkWriteAbortsCleanly) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  ASSERT_TRUE(store.Write(MakeBlob(1), 3).committed);

  device.ArmTornWrite(0.5);  // The next chunk write tears mid-frame.
  const CheckpointWriteResult torn = store.Write(MakeBlob(50), 6);
  EXPECT_FALSE(torn.committed);
  EXPECT_EQ(store.commit_aborts(), 1u);
  // The partial object was rolled back: the device self-scrubs clean.
  EXPECT_TRUE(store.Scrub().clean());
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
}

TEST(CheckpointStoreTest, RetentionGarbageCollectsOldEpochs) {
  MemDurableDevice device;
  CheckpointStore store(&device, CheckpointStoreConfig{2});
  for (int e = 0; e < 5; ++e) {
    ASSERT_TRUE(store.Write(MakeBlob(static_cast<std::uint8_t>(e)), static_cast<Clock>(e))
                    .committed);
  }
  // Only the 2 newest manifests survive, each with its one chunk.
  EXPECT_EQ(CountObjects(device, "/MANIFEST"), 2);
  EXPECT_EQ(CountObjects(device, "ck/obj/"), 2);
  EXPECT_TRUE(store.Scrub().clean());
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 5u);
}

TEST(CheckpointStoreTest, ReopenRecoversEpochCursorAndIncrementality) {
  MemDurableDevice device;
  const auto blob = MakeBlob(9);
  {
    CheckpointStore store(&device);
    ASSERT_TRUE(store.Write(blob, 10).committed);
    ASSERT_TRUE(store.Write(blob, 12).committed);
  }
  // A new store over the same device (process restart) must continue the
  // epoch sequence.
  CheckpointStore reopened(&device);
  EXPECT_EQ(reopened.last_committed_epoch(), 2u);
  const CheckpointWriteResult next = reopened.Write(blob, 14);
  ASSERT_TRUE(next.committed);
  EXPECT_EQ(next.epoch, 3u);
}

// A restart rebuilds both the model and the store over the same device
// (ChaosStack::Restart). Two models that have taken the same number of
// updates but hold different rows must never be confused: the reopened
// store serves exactly the blob it was last given, whether the new
// clock is ahead of or behind the earlier incarnation's.
TEST(CheckpointStoreTest, ReopenedStoreNeverServesAnOlderModel) {
  const std::vector<TableSpec> tables = {{0, 16, 4, 0.0F, 0.0F}};
  auto five_updates = [&tables](std::int64_t first_row, float value) {
    ModelStore model(tables, 4, 1);
    for (std::int64_t r = first_row; r < first_row + 5; ++r) {
      model.ApplyDelta(0, r, std::vector<float>(4, value));
    }
    return model.SerializeCheckpoint();
  };
  const std::vector<std::uint8_t> a = five_updates(0, 1.0F);
  const std::vector<std::uint8_t> b = five_updates(8, -2.0F);
  ASSERT_NE(a, b);
  for (const Clock b_clock : {Clock{12}, Clock{4}}) {
    MemDurableDevice device;
    {
      CheckpointStore store(&device);
      ASSERT_TRUE(store.Write(a, 10).committed);
    }
    CheckpointStore reopened(&device);
    ASSERT_TRUE(reopened.Write(b, b_clock).committed);
    const auto loaded = reopened.ReadNewestValid();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->epoch, 2u) << "clock " << b_clock;
    EXPECT_EQ(loaded->clock, b_clock);
    EXPECT_EQ(loaded->payload, b) << "clock " << b_clock;
  }
}

TEST(CheckpointStoreTest, FileDeviceEndToEndWithReopen) {
  const std::string root =
      (std::filesystem::path(::testing::TempDir()) / "proteus_ckpt_test").string();
  std::filesystem::remove_all(root);
  FileDurableDevice device(root);
  const auto blob = MakeBlob(21);
  {
    CheckpointStore store(&device);
    ASSERT_TRUE(store.Write(blob, 7).committed);
    EXPECT_TRUE(store.Scrub().clean());
  }
  FileDurableDevice reopened_device(root);
  CheckpointStore reopened(&reopened_device);
  EXPECT_EQ(reopened.last_committed_epoch(), 1u);
  const auto loaded = reopened.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->clock, 7);
  EXPECT_EQ(loaded->payload, blob);
  std::filesystem::remove_all(root);
}

TEST(CheckpointStoreTest, ModelWritesOneChunkAndMultiChunkPayloadRestoresExactly) {
  const std::vector<TableSpec> tables = {{0, 64, 4, 0.0F, 0.1F}, {1, 16, 3, 1.0F, 0.0F}};
  ModelStore model(tables, 8, 5);
  for (std::int64_t r = 0; r < 64; r += 3) {
    model.ApplyDelta(0, r, std::vector<float>(4, 0.5F));
  }
  for (std::int64_t r = 0; r < 16; r += 2) {
    model.ApplyDelta(1, r, std::vector<float>(3, -1.0F));
  }
  const std::vector<std::uint8_t> canonical = model.SerializeCheckpoint();

  // The whole model is one chunk, and its payload restores exactly.
  MemDurableDevice device;
  CheckpointStore store(&device);
  ASSERT_TRUE(store.Write(canonical, 3).committed);
  EXPECT_EQ(CountObjects(device, "ck/obj/"), 1);
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, canonical);
  ModelStore restored(tables, 8, 5);
  restored.RestoreCheckpoint(loaded->payload);
  EXPECT_EQ(restored.SerializeCheckpoint(), canonical);
}

// A MemDurableDevice that counts Read calls per object name.
class ReadCountingDevice : public MemDurableDevice {
 public:
  std::optional<std::vector<std::uint8_t>> Read(const std::string& name) const override {
    ++reads[name];
    return MemDurableDevice::Read(name);
  }
  mutable std::map<std::string, int> reads;
};

TEST(CheckpointStoreTest, ScrubReadsEachObjectOnce) {
  ReadCountingDevice device;
  CheckpointStore store(&device);
  for (int clock = 1; clock <= 4; ++clock) {
    ASSERT_TRUE(store.Write(MakeBlob(static_cast<std::uint8_t>(clock)), clock).committed);
  }
  // A flipped payload bit fails its chunk and the manifest that lists it.
  const std::vector<std::string> names = device.List();
  ASSERT_EQ(names.size(), 6u);  // Three retained epochs: chunk + manifest each.
  const std::string chunk = names.back();  // "ck/obj/" sorts after "ck/ep/".
  ASSERT_EQ(chunk.rfind("ck/obj/", 0), 0u);
  ASSERT_TRUE(device.FlipBit(chunk, 20, 3));

  device.reads.clear();
  const ScrubReport report = store.Scrub();
  EXPECT_EQ(report.frames_checked, 6);
  ASSERT_EQ(report.corrupt_objects.size(), 2u);
  EXPECT_EQ(report.corrupt_objects[0], chunk);
  EXPECT_EQ(report.corrupt_objects[1].rfind("ck/ep/", 0), 0u);
  for (const std::string& name : names) {
    EXPECT_EQ(device.reads[name], 1) << name;
  }
}

TEST(MemDurableDeviceTest, FaultHooksDisarmAfterOneShot) {
  MemDurableDevice device;
  const std::vector<std::uint8_t> payload(32, 0xAB);
  device.ArmTornWrite(0.5);
  EXPECT_FALSE(device.Write("a", payload));  // Torn: partial object stored.
  EXPECT_TRUE(device.Write("b", payload));   // Disarmed again.
  EXPECT_EQ(device.Read("b")->size(), payload.size());
  EXPECT_LT(device.Read("a")->size(), payload.size());

  device.ArmDropRename();
  EXPECT_FALSE(device.Rename("b", "c"));
  EXPECT_TRUE(device.Exists("b"));
  EXPECT_TRUE(device.Rename("b", "c"));
  EXPECT_TRUE(device.Exists("c"));
  EXPECT_FALSE(device.Exists("b"));
}

}  // namespace
}  // namespace proteus
