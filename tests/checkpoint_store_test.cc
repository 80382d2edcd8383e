// Unit tests for the durable CheckpointStore: the two-phase manifest
// commit, incremental shard reuse, retention/GC, crash-reopen recovery
// of the epoch cursor, fault-hook behavior of MemDurableDevice, and the
// file-backed device.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/ps/checkpoint_store.h"

namespace proteus {
namespace {

std::vector<std::vector<std::uint8_t>> MakeBlobs(int shards, std::uint8_t salt) {
  std::vector<std::vector<std::uint8_t>> blobs;
  for (int s = 0; s < shards; ++s) {
    std::vector<std::uint8_t> blob;
    for (int i = 0; i < 64 + 8 * s; ++i) {
      blob.push_back(static_cast<std::uint8_t>(salt + s * 31 + i));
    }
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

TEST(CheckpointStoreTest, WriteAndReadBackRoundTrip) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  const auto blobs = MakeBlobs(3, 7);
  const CheckpointWriteResult write = store.WriteBlobs(blobs, {1, 1, 1}, 5);
  ASSERT_TRUE(write.committed);
  EXPECT_EQ(write.epoch, 1u);
  EXPECT_EQ(write.chunks_written, 3);
  EXPECT_EQ(write.chunks_reused, 0);
  EXPECT_GT(write.bytes_written, 0u);

  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->clock, 5);
  EXPECT_EQ(loaded->shard_blobs, blobs);
  EXPECT_EQ(loaded->corrupt_epochs_skipped, 0);
  EXPECT_EQ(loaded->torn_epochs_skipped, 0);
  EXPECT_TRUE(store.Scrub().clean());
}

TEST(CheckpointStoreTest, IncrementalWriteReusesUnchangedShards) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  auto blobs = MakeBlobs(4, 3);
  ASSERT_TRUE(store.WriteBlobs(blobs, {1, 1, 1, 1}, 2).committed);

  blobs[2] = MakeBlobs(4, 99)[2];  // Only shard 2 changed.
  const CheckpointWriteResult second = store.WriteBlobs(blobs, {1, 1, 2, 1}, 4);
  ASSERT_TRUE(second.committed);
  EXPECT_EQ(second.chunks_written, 1);
  EXPECT_EQ(second.chunks_reused, 3);

  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->shard_blobs, blobs);
}

TEST(CheckpointStoreTest, DroppedRenameLeavesPriorEpochRestorable) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  const auto first = MakeBlobs(2, 1);
  ASSERT_TRUE(store.WriteBlobs(first, {1, 1}, 3).committed);

  device.ArmDropRename();  // The commit point never happens.
  const auto second = MakeBlobs(2, 50);
  const CheckpointWriteResult torn = store.WriteBlobs(second, {2, 2}, 6);
  EXPECT_FALSE(torn.committed);
  EXPECT_EQ(store.commit_aborts(), 1u);
  EXPECT_EQ(store.last_committed_epoch(), 1u);

  // The torn epoch is skipped (counted, never loaded); epoch 1 serves.
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->shard_blobs, first);
  EXPECT_EQ(loaded->torn_epochs_skipped, 1);
  EXPECT_EQ(store.Scrub().torn_epochs, 1);
  EXPECT_TRUE(store.Scrub().clean());
}

TEST(CheckpointStoreTest, TornChunkWriteAbortsCleanly) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  ASSERT_TRUE(store.WriteBlobs(MakeBlobs(2, 1), {1, 1}, 3).committed);

  device.ArmTornWrite(0.5);  // The next chunk write tears mid-frame.
  const CheckpointWriteResult torn = store.WriteBlobs(MakeBlobs(2, 50), {2, 2}, 6);
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
    const std::uint64_t v = static_cast<std::uint64_t>(e + 1);
    ASSERT_TRUE(store
                    .WriteBlobs(MakeBlobs(2, static_cast<std::uint8_t>(e)), {v, v},
                                static_cast<Clock>(e))
                    .committed);
  }
  // Only the 2 newest manifests survive, and no unreferenced chunks.
  int manifests = 0;
  for (const std::string& name : device.List()) {
    manifests += name.find("/MANIFEST") != std::string::npos;
  }
  EXPECT_EQ(manifests, 2);
  EXPECT_TRUE(store.Scrub().clean());
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 5u);
}

TEST(CheckpointStoreTest, ReopenRecoversEpochCursorAndIncrementality) {
  MemDurableDevice device;
  auto blobs = MakeBlobs(3, 9);
  {
    CheckpointStore store(&device);
    ASSERT_TRUE(store.WriteBlobs(blobs, {5, 6, 7}, 10).committed);
    ASSERT_TRUE(store.WriteBlobs(blobs, {5, 6, 7}, 12).committed);
  }
  // A new store over the same device (process restart) must continue the
  // epoch sequence and still recognize unchanged shards.
  CheckpointStore reopened(&device);
  EXPECT_EQ(reopened.last_committed_epoch(), 2u);
  const CheckpointWriteResult next = reopened.WriteBlobs(blobs, {5, 6, 7}, 14);
  ASSERT_TRUE(next.committed);
  EXPECT_EQ(next.epoch, 3u);
  EXPECT_EQ(next.chunks_reused, 3);
  EXPECT_EQ(next.chunks_written, 0);
}

TEST(CheckpointStoreTest, CorruptReusedChunkIsRewrittenNotPropagated) {
  MemDurableDevice device;
  CheckpointStore store(&device);
  const auto blobs = MakeBlobs(2, 4);
  ASSERT_TRUE(store.WriteBlobs(blobs, {1, 1}, 2).committed);

  // Rot a chunk that the next epoch would reuse.
  std::string chunk;
  for (const std::string& name : device.List()) {
    if (name.rfind("ck/obj/", 0) == 0) {
      chunk = name;
      break;
    }
  }
  ASSERT_FALSE(chunk.empty());
  ASSERT_TRUE(device.FlipBit(chunk, 10, 2));

  // Same versions: a naive store would reference the rotten chunk
  // forever. Ours re-validates on reuse and rewrites it.
  const CheckpointWriteResult heal = store.WriteBlobs(blobs, {1, 1}, 4);
  ASSERT_TRUE(heal.committed);
  EXPECT_GE(heal.chunks_written, 1);
  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->shard_blobs, blobs);
}

TEST(CheckpointStoreTest, FileDeviceEndToEndWithReopen) {
  const std::string root =
      (std::filesystem::path(::testing::TempDir()) / "proteus_ckpt_test").string();
  std::filesystem::remove_all(root);
  FileDurableDevice device(root);
  const auto blobs = MakeBlobs(3, 21);
  {
    CheckpointStore store(&device);
    ASSERT_TRUE(store.WriteBlobs(blobs, {1, 2, 3}, 7).committed);
    EXPECT_TRUE(store.Scrub().clean());
  }
  FileDurableDevice reopened_device(root);
  CheckpointStore reopened(&reopened_device);
  EXPECT_EQ(reopened.last_committed_epoch(), 1u);
  const auto loaded = reopened.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->clock, 7);
  EXPECT_EQ(loaded->shard_blobs, blobs);
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

  // WriteCheckpoint stores the whole model as one chunk.
  MemDurableDevice device;
  CheckpointStore store(&device);
  const CheckpointWriteResult write = store.WriteCheckpoint(model, 3);
  ASSERT_TRUE(write.committed);
  EXPECT_EQ(write.chunks_written, 1);
  auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->Payload(), canonical);

  // An epoch whose rows are split across chunks out of canonical order
  // (table 1's rows first) still restores exactly: rows are placed by
  // key.
  std::vector<std::vector<std::uint8_t>> chunks(2);
  for (std::size_t offset = 0; offset < canonical.size();) {
    RowKey key = 0;
    std::uint32_t cols = 0;
    std::memcpy(&key, canonical.data() + offset, sizeof(key));
    std::memcpy(&cols, canonical.data() + offset + sizeof(key), sizeof(cols));
    const std::size_t n = sizeof(key) + sizeof(cols) + cols * sizeof(float);
    auto& chunk = chunks[TableOfKey(key) == 1 ? 0 : 1];
    chunk.insert(chunk.end(), canonical.begin() + static_cast<std::ptrdiff_t>(offset),
                 canonical.begin() + static_cast<std::ptrdiff_t>(offset + n));
    offset += n;
  }
  ASSERT_TRUE(store.WriteBlobs(chunks, {0, 0}, 4).committed);
  loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->shard_blobs.size(), 2u);
  ModelStore restored(tables, 8, 5);
  restored.RestoreCheckpoint(loaded->Payload());
  EXPECT_EQ(restored.SerializeCheckpoint(), canonical);
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
