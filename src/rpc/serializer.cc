#include "src/rpc/serializer.h"

namespace proteus {

void WireWriter::VarU64(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::Blob(std::span<const std::uint8_t> bytes) {
  U32(static_cast<std::uint32_t>(bytes.size()));
  AppendRaw(bytes.data(), bytes.size());
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  AppendRaw(s.data(), s.size());
}

void WireWriter::FloatArray(std::span<const float> values) {
  U32(static_cast<std::uint32_t>(values.size()));
  AppendRaw(values.data(), values.size() * sizeof(float));
}

void WireWriter::I32Array(std::span<const std::int32_t> values) {
  U32(static_cast<std::uint32_t>(values.size()));
  AppendRaw(values.data(), values.size() * sizeof(std::int32_t));
}

bool WireReader::Take(void* out, std::size_t n) {
  if (failed_ || data_.size() - offset_ < n) {
    failed_ = true;
    return false;
  }
  if (n > 0) {  // memcpy needs non-null pointers even for 0 bytes.
    std::memcpy(out, data_.data() + offset_, n);
    offset_ += n;
  }
  return true;
}

std::optional<std::uint8_t> WireReader::U8() {
  std::uint8_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint32_t> WireReader::U32() {
  std::uint32_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> WireReader::U64() {
  std::uint64_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int32_t> WireReader::I32() {
  std::int32_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int64_t> WireReader::I64() {
  std::int64_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> WireReader::F64() {
  double v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> WireReader::Str() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::string s(*len, '\0');
  if (!Take(s.data(), *len)) {
    return std::nullopt;
  }
  return s;
}

std::optional<std::vector<float>> WireReader::FloatArray() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<float> v(*len);
  if (!Take(v.data(), static_cast<std::size_t>(*len) * sizeof(float))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::vector<std::int32_t>> WireReader::I32Array() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<std::int32_t> v(*len);
  if (!Take(v.data(), static_cast<std::size_t>(*len) * sizeof(std::int32_t))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> WireReader::VarU64() {
  std::uint64_t result = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    if (!Take(&byte, 1)) {
      return std::nullopt;
    }
    const std::uint64_t bits = byte & 0x7F;
    if (shift == 63 && bits > 1) {
      failed_ = true;  // Tenth byte would overflow 64 bits.
      return std::nullopt;
    }
    result |= bits << shift;
    if ((byte & 0x80) == 0) {
      return result;
    }
  }
  failed_ = true;  // Continuation bit set past 10 bytes.
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> WireReader::Blob() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<std::uint8_t> v(*len);
  if (!Take(v.data(), *len)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace proteus
