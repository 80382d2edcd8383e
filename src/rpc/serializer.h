// Binary wire format for control-plane messages (§5: Proteus components
// exchange ZMQ messages — application characteristics, allocation
// requests/grants, eviction notices). Little-endian fixed-width scalars,
// length-prefixed strings and arrays; all reads bounds-checked so a
// truncated or corrupt frame fails cleanly instead of overrunning.
#ifndef SRC_RPC_SERIALIZER_H_
#define SRC_RPC_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace proteus {

class WireWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void I32(std::int32_t v) { AppendRaw(&v, sizeof(v)); }
  void I64(std::int64_t v) { AppendRaw(&v, sizeof(v)); }
  void F64(double v) { AppendRaw(&v, sizeof(v)); }
  // Unsigned LEB128: 7 value bits per byte, high bit = continuation.
  void VarU64(std::uint64_t v);
  void Str(const std::string& s);
  void FloatArray(std::span<const float> values);
  void I32Array(std::span<const std::int32_t> values);
  // Opaque length-prefixed byte blob (embeds pre-encoded payloads, e.g.
  // a reliable frame's inner message, without re-framing the contents).
  void Blob(std::span<const std::uint8_t> bytes);

  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  // resize + memcpy rather than vector::insert: GCC 12 misreads the
  // inlined insert growth path as an out-of-bounds copy (-Warray-bounds).
  void AppendRaw(const void* data, std::size_t n) {
    if (n == 0) {
      return;
    }
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }
  std::vector<std::uint8_t> buf_;
};

// Every accessor returns nullopt on underflow / malformed input; once a
// read fails the reader stays failed.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::optional<std::uint8_t> U8();
  std::optional<std::uint32_t> U32();
  std::optional<std::uint64_t> U64();
  std::optional<std::int32_t> I32();
  std::optional<std::int64_t> I64();
  std::optional<double> F64();
  // Unsigned LEB128; fails on truncation or a value overflowing 64 bits.
  std::optional<std::uint64_t> VarU64();
  std::optional<std::string> Str();
  std::optional<std::vector<float>> FloatArray();
  std::optional<std::vector<std::int32_t>> I32Array();
  std::optional<std::vector<std::uint8_t>> Blob();

  bool failed() const { return failed_; }
  bool AtEnd() const { return !failed_ && offset_ == data_.size(); }

  // Collections are length-prefixed; this cap rejects hostile lengths
  // before allocation.
  static constexpr std::uint32_t kMaxElements = 1u << 24;

 private:
  bool Take(void* out, std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace proteus

#endif  // SRC_RPC_SERIALIZER_H_
