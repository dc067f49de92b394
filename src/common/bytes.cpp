#include "common/bytes.h"

#include <algorithm>

namespace mv {

namespace {
constexpr char kHex[] = "0123456789abcdef";

Error truncated() { return make_error("bytes.truncated", "buffer ended mid-field"); }
}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

Result<std::uint8_t> ByteReader::u8() {
  if (!need(1)) return truncated();
  return data_[pos_++];
}

Result<std::uint32_t> ByteReader::u32() {
  if (!need(4)) return truncated();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  if (!need(8)) return truncated();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::int64_t> ByteReader::i64() {
  auto v = u64();
  if (!v.ok()) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> ByteReader::f64() {
  auto bits = u64();
  if (!bits.ok()) return bits.error();
  double v = 0;
  const std::uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

Result<std::span<const std::uint8_t>> ByteReader::take(std::size_t n) {
  if (!need(n)) return truncated();
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::str() {
  auto v = view();
  if (!v.ok()) return v.error();
  return std::string(reinterpret_cast<const char*>(v.value().data()), v.value().size());
}

Result<Bytes> ByteReader::bytes() {
  auto v = view();
  if (!v.ok()) return v.error();
  return Bytes(v.value().begin(), v.value().end());
}

Result<std::span<const std::uint8_t>> ByteReader::view() {
  auto len = u32();
  if (!len.ok()) return len.error();
  return take(len.value());
}

Status ByteReader::fixed(std::span<std::uint8_t> out) {
  auto v = take(out.size());
  if (!v.ok()) return v.error();
  std::copy(v.value().begin(), v.value().end(), out.begin());
  return {};
}

Result<Bytes> ByteReader::raw(std::size_t n) {
  auto v = take(n);
  if (!v.ok()) return v.error();
  return Bytes(v.value().begin(), v.value().end());
}

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const auto b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace mv
