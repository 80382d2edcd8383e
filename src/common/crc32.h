// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for framing
// durable checkpoint chunks and manifests. Table-driven (slicing-by-8), no
// dependencies; the incremental form lets callers checksum a frame
// while streaming it.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace proteus {

// One-shot CRC-32 of `data`. Matches zlib's crc32(): Crc32 of "123456789"
// is 0xCBF43926.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

// Incremental form: feed the previous return value back as `crc` (start
// from Crc32Init()) and finish with Crc32Final().
std::uint32_t Crc32Init();
std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data);
std::uint32_t Crc32Final(std::uint32_t crc);

}  // namespace proteus

#endif  // SRC_COMMON_CRC32_H_
