// FNV-1a (64-bit): the one non-cryptographic hash behind every replay
// digest and derived seed in the repo. Callers fold values into a
// running hash that starts at kFnvOffsetBasis.
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

}  // namespace proteus

#endif  // SRC_COMMON_HASH_H_
