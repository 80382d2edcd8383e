// Checkpoint-integrity property tests (PR 6 satellite): no corrupted
// frame is ever accepted, and a scrub finds 100% of injected damage.
//
//   * Every truncated prefix of a chunk frame is rejected cleanly.
//   * Every single-bit flip anywhere in a chunk frame is rejected (the
//     CRC32 catches all single-bit errors by construction).
//   * Randomized corruption campaigns against a populated store: each
//     injected fault is either found by Scrub() by name or the object it
//     hit was a manifest whose epoch ReadNewestValid() now skips — and
//     the bytes returned by ReadNewestValid() always equal bytes that
//     were legitimately committed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ps/checkpoint_store.h"

namespace proteus {
namespace {

std::vector<std::uint8_t> MakeBlob(std::uint8_t salt) {
  std::vector<std::uint8_t> blob;
  for (int i = 0; i < 80; ++i) {
    blob.push_back(static_cast<std::uint8_t>(salt * 13 + i));
  }
  return blob;
}

// One committed chunk object, fetched back off the device.
std::vector<std::uint8_t> OneChunkFrame() {
  MemDurableDevice device;
  CheckpointStore store(&device);
  EXPECT_TRUE(store.Write(MakeBlob(5), 3).committed);
  for (const std::string& name : device.List()) {
    if (name.rfind("ck/obj/", 0) == 0) {
      return *device.Read(name);
    }
  }
  ADD_FAILURE() << "no chunk object written";
  return {};
}

TEST(CheckpointIntegrityProperty, EveryTruncatedPrefixRejected) {
  const std::vector<std::uint8_t> frame = OneChunkFrame();
  ASSERT_FALSE(frame.empty());
  ASSERT_TRUE(ParseChunkFrame(frame).has_value());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        ParseChunkFrame(std::span<const std::uint8_t>(frame.data(), len)).has_value())
        << "prefix of " << len << " bytes parsed as a full frame";
  }
}

TEST(CheckpointIntegrityProperty, EverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> frame = OneChunkFrame();
  ASSERT_FALSE(frame.empty());
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = frame;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1u << bit));
      EXPECT_FALSE(ParseChunkFrame(flipped).has_value())
          << "bit " << bit << " of byte " << byte << " accepted";
    }
  }
}

TEST(CheckpointIntegrityProperty, TrailingGarbageRejected) {
  std::vector<std::uint8_t> frame = OneChunkFrame();
  ASSERT_FALSE(frame.empty());
  frame.push_back(0x00);
  EXPECT_FALSE(ParseChunkFrame(frame).has_value());
}

TEST(CheckpointIntegrityProperty, ScrubFindsEveryInjectedCorruption) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MemDurableDevice device;
    CheckpointStore store(&device, CheckpointStoreConfig{6});
    // Remember every committed state so loads can be checked byte-wise.
    std::map<std::uint64_t, std::vector<std::uint8_t>> committed;
    for (int e = 0; e < 5; ++e) {
      const auto blob = MakeBlob(static_cast<std::uint8_t>(seed * 16 + e));
      const CheckpointWriteResult w = store.Write(blob, static_cast<Clock>(e * 2));
      ASSERT_TRUE(w.committed);
      committed[w.epoch] = blob;
    }

    // Corrupt a few random objects: truncations and bit flips.
    Rng rng(seed);
    const std::vector<std::string> names = device.List();
    std::set<std::string> damaged;
    const int injections = 1 + static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < injections; ++i) {
      const std::string& name = names[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(names.size()) - 1))];
      if (damaged.count(name) > 0) {
        continue;
      }
      const auto bytes = device.Read(name);
      ASSERT_TRUE(bytes.has_value());
      if (rng.Bernoulli(0.5) && bytes->size() > 2) {
        ASSERT_TRUE(device.Truncate(name, bytes->size() / 2));
      } else {
        ASSERT_TRUE(device.FlipBit(
            name,
            static_cast<std::size_t>(
                rng.UniformInt(0, static_cast<std::int64_t>(bytes->size()) - 1)),
            static_cast<int>(rng.UniformInt(0, 7))));
      }
      damaged.insert(name);
    }

    // Scrub finds 100% of the injected damage, by name.
    const ScrubReport report = store.Scrub();
    const std::set<std::string> found(report.corrupt_objects.begin(),
                                      report.corrupt_objects.end());
    for (const std::string& name : damaged) {
      EXPECT_TRUE(found.count(name) > 0)
          << "seed " << seed << ": scrub missed injected corruption in " << name;
    }

    // Whatever ReadNewestValid returns must be bytes that were really
    // committed, never a damaged frame.
    const auto loaded = store.ReadNewestValid();
    if (loaded.has_value()) {
      const auto it = committed.find(loaded->epoch);
      ASSERT_TRUE(it != committed.end()) << "seed " << seed;
      EXPECT_EQ(loaded->payload, it->second)
          << "seed " << seed << ": loaded bytes differ from committed bytes";
    }
  }
}

TEST(CheckpointIntegrityProperty, CorruptNewestEpochFallsBackToOlder) {
  MemDurableDevice device;
  CheckpointStore store(&device, CheckpointStoreConfig{4});
  const auto old_blob = MakeBlob(1);
  ASSERT_TRUE(store.Write(old_blob, 2).committed);
  ASSERT_TRUE(store.Write(MakeBlob(2), 4).committed);

  // Damage the newest epoch's manifest: validation must skip it.
  std::string newest_manifest;
  for (const std::string& name : device.List()) {
    if (name.find("/MANIFEST") != std::string::npos && name > newest_manifest) {
      newest_manifest = name;
    }
  }
  ASSERT_FALSE(newest_manifest.empty());
  ASSERT_TRUE(device.FlipBit(newest_manifest, 6, 1));

  const auto loaded = store.ReadNewestValid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->payload, old_blob);
  EXPECT_EQ(loaded->corrupt_epochs_skipped, 1);
}

}  // namespace
}  // namespace proteus
