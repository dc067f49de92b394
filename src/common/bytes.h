// Canonical binary serialization.
//
// Blocks, transactions, and signed payloads must hash identically across the
// whole system, so everything that is hashed or signed round-trips through
// this little-endian, length-prefixed format.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
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

/// Strict decoding lives here. The reader keeps one cursor and the first
/// failure: a truncation, or a semantic failure the decoder reports through
/// fail(). Field reads return plain values, zero or empty once anything has
/// failed, so a decoder reads its fields straight through and ends in one
/// finish(), which refuses trailing bytes and turns the latch into a Result.
/// Element counts come through count(), the one forged-count guard; a
/// nested decoder's Result folds in through take() or nested().
class ByteReader {
 public:
  /// `truncated_code` (a string literal) is what a read past the end
  /// reports: decoders whose callers expect one code for any malformed
  /// input pass that code here.
  explicit ByteReader(std::span<const std::uint8_t> data,
                      const char* truncated_code = "bytes.truncated")
      : data_(data), truncated_code_(truncated_code) {}

  [[nodiscard]] std::uint8_t read_u8() {
    const auto b = take_bytes(1);
    return b.empty() ? 0 : b[0];
  }
  [[nodiscard]] std::uint32_t read_u32() { return static_cast<std::uint32_t>(read_le(4)); }
  [[nodiscard]] std::uint64_t read_u64() { return read_le(8); }
  [[nodiscard]] std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_str();
  /// Length-prefixed field, copied out.
  [[nodiscard]] Bytes read_bytes();
  /// Length-prefixed field as a view into the buffer (no copy): valid only
  /// while the buffer lives. Nested objects decode straight from it.
  [[nodiscard]] std::span<const std::uint8_t> read_view() { return take_bytes(read_u32()); }
  /// Fixed-size field without a length prefix (digests): fills `out`
  /// exactly, with no heap allocation; zero-filled on failure.
  void read_fixed(std::span<std::uint8_t> out) {
    const auto v = take_bytes(out.size());
    if (v.size() == out.size()) {
      std::copy(v.begin(), v.end(), out.begin());
    } else {
      std::fill(out.begin(), out.end(), std::uint8_t{0});
    }
  }
  /// Exactly n raw bytes (no length prefix).
  [[nodiscard]] Bytes read_raw(std::size_t n);

  /// A u32 element count, refused as `code` when the remaining bytes cannot
  /// hold `min_entry_bytes` (> 0) per element: a forged length must not
  /// drive an allocation. 0 after any failure, so no loop runs and nothing
  /// is reserved.
  [[nodiscard]] std::uint32_t count(std::size_t min_entry_bytes, const char* code);
  /// count() for a u64 count field.
  [[nodiscard]] std::uint64_t count64(std::size_t min_entry_bytes, const char* code);

  /// Latch a semantic failure. The first failure wins; later ones are dropped.
  void fail(std::string code, std::string message);
  /// Fold a nested decoder's outcome into the latch: its value, or T{} with
  /// its error latched.
  template <typename T>
  [[nodiscard]] T take(Result<T> nested) {
    if (nested.ok()) return std::move(nested).value();
    fail(nested.error().code, nested.error().message);
    return T{};
  }
  /// A length-prefixed nested object, decoded by T::decode and folded in.
  /// Nothing is decoded once the reader has failed.
  template <typename T>
  [[nodiscard]] T nested() {
    const auto bytes = read_view();
    if (!ok()) return T{};
    return take(T::decode(bytes));
  }

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  /// The latched failure; only valid when !ok().
  [[nodiscard]] const Error& error() const { return *error_; }

  /// The decoder's outcome: the first failure, else `trailing_code` if bytes
  /// remain unread, else ok.
  [[nodiscard]] Status finish(const char* trailing_code);
  template <typename T>
  [[nodiscard]] Result<T> finish(T value, const char* trailing_code) {
    if (Status s = finish(trailing_code); !s.ok()) return s.error();
    return value;
  }

  // Result-returning accessors over the latched core, for callers that
  // check each field themselves. Once anything has failed they all fail
  // with the latched error.
  [[nodiscard]] Result<std::uint8_t> u8() { return wrap(read_u8()); }
  [[nodiscard]] Result<std::uint32_t> u32() { return wrap(read_u32()); }
  [[nodiscard]] Result<std::uint64_t> u64() { return wrap(read_u64()); }
  [[nodiscard]] Result<std::int64_t> i64() { return wrap(read_i64()); }
  [[nodiscard]] Result<double> f64() { return wrap(read_f64()); }
  [[nodiscard]] Result<std::string> str() { return wrap(read_str()); }
  [[nodiscard]] Result<Bytes> bytes() { return wrap(read_bytes()); }
  [[nodiscard]] Result<std::span<const std::uint8_t>> view() { return wrap(read_view()); }
  [[nodiscard]] Status fixed(std::span<std::uint8_t> out) {
    read_fixed(out);
    return ok() ? Status{} : Status(*error_);
  }
  [[nodiscard]] Result<Bytes> raw(std::size_t n) { return wrap(read_raw(n)); }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// The next n bytes, consumed; empty (and the truncation latched) when
  /// fewer remain. Inline with the fixed-width reads: every decoder's hot
  /// path is this one bounds check.
  [[nodiscard]] std::span<const std::uint8_t> take_bytes(std::size_t n) {
    if (n > data_.size() - pos_) [[unlikely]] {
      fail_truncated();
      return {};
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// An n-byte little-endian unsigned field (n <= 8); 0 on failure.
  [[nodiscard]] std::uint64_t read_le(std::size_t n) {
    const auto b = take_bytes(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < b.size(); ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }
  void fail_truncated();
  [[nodiscard]] std::uint64_t count_of(std::uint64_t n, std::size_t min_entry_bytes,
                                       const char* code);
  template <typename T>
  [[nodiscard]] Result<T> wrap(T value) const {
    if (!ok()) return *error_;
    return value;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  const char* truncated_code_;
  std::optional<Error> error_;
};

/// Hex encoding for digests in logs and docs.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace mv
