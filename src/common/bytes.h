// Canonical binary serialization.
//
// Blocks, transactions, and signed payloads must hash identically across the
// whole system, so everything that is hashed or signed round-trips through
// this little-endian, length-prefixed format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mv {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view v);
  void bytes(std::span<const std::uint8_t> v);
  /// Raw append without a length prefix (for fixed-size digests).
  void raw(std::span<const std::uint8_t> v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  /// A length-prefixed field written in place: `fill(*this)` appends the
  /// field after a u32 prefix that is then set to its length. The same bytes
  /// as bytes(encoding), without building the encoding in a buffer first.
  template <typename Fill>
  void prefixed(Fill&& fill) {
    const std::size_t at = buf_.size();
    u32(0);
    fill(*this);
    const auto len = static_cast<std::uint32_t>(buf_.size() - at - 4);
    for (int i = 0; i < 4; ++i) buf_[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<std::string> str();
  /// Length-prefixed field, copied out.
  [[nodiscard]] Result<Bytes> bytes();
  /// Length-prefixed field as a view into the buffer (no copy): valid only
  /// while the buffer lives. Nested objects decode straight from it.
  [[nodiscard]] Result<std::span<const std::uint8_t>> view();
  /// Fixed-size field without a length prefix (digests): fills `out`
  /// exactly, with no heap allocation.
  [[nodiscard]] Status fixed(std::span<std::uint8_t> out);
  /// Read exactly n raw bytes (no length prefix).
  [[nodiscard]] Result<Bytes> raw(std::size_t n);

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool need(std::size_t n) const { return n <= data_.size() - pos_; }
  /// The next n bytes, consumed.
  [[nodiscard]] Result<std::span<const std::uint8_t>> take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex encoding for digests in logs and docs.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace mv
