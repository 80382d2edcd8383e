#include "src/common/crc32.h"

#include <array>
#include <cstddef>

namespace proteus {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic byte table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once and give the byte-wise result.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

// Little-endian load assembled from bytes, so the result does not depend
// on the host byte order (compilers fold it into one load).
std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32Init() { return 0xFFFFFFFFu; }

std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
          kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t Crc32Final(std::uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace proteus
