// The repo's non-cryptographic hashes. FNV-1a (64-bit) is behind every
// replay digest: callers fold values into a running hash that starts at
// kFnvOffsetBasis. HashCombine and Mix64 derive seeds for pinned random
// streams, so their output must never change.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace proteus {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// Folds `len` bytes at `data` into `h`.
inline std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ bytes[i]) * kFnvPrime;
  }
  return h;
}

// Folds the 8 bytes of `v` into `h`, least significant first (the same
// bytes on every host, whatever its endianness).
inline std::uint64_t Fnv1aU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * kFnvPrime;
  }
  return h;
}

// Boost-style hash_combine widened to 64 bits: folds `b` into `a`.
inline std::uint64_t HashCombine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

// One SplitMix64 step (Steele, Lea & Flood): adds the golden-ratio
// increment to `x` and returns the mixed output.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace proteus

#endif  // SRC_COMMON_HASH_H_
