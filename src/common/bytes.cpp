#include "common/bytes.h"

#include <string>

namespace mv {

namespace {
constexpr char kHex[] = "0123456789abcdef";
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

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::read_str() {
  const auto v = read_view();
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

Bytes ByteReader::read_bytes() {
  const auto v = read_view();
  return Bytes(v.begin(), v.end());
}

Bytes ByteReader::read_raw(std::size_t n) {
  const auto v = take_bytes(n);
  return Bytes(v.begin(), v.end());
}

std::uint32_t ByteReader::count(std::size_t min_entry_bytes, const char* code) {
  return static_cast<std::uint32_t>(
      count_of(read_u32(), min_entry_bytes, code));
}

std::uint64_t ByteReader::count64(std::size_t min_entry_bytes, const char* code) {
  return count_of(read_u64(), min_entry_bytes, code);
}

std::uint64_t ByteReader::count_of(std::uint64_t n, std::size_t min_entry_bytes,
                                   const char* code) {
  if (n > remaining() / min_entry_bytes) {
    fail(code, "count " + std::to_string(n) + " exceeds the remaining " +
                   std::to_string(remaining()) + " bytes");
  }
  return ok() ? n : 0;
}

void ByteReader::fail_truncated() { fail(truncated_code_, "buffer ended mid-field"); }

void ByteReader::fail(std::string code, std::string message) {
  if (!ok()) return;
  error_ = Error{std::move(code), std::move(message)};
  pos_ = data_.size();  // every later read fails and returns zero
}

Status ByteReader::finish(const char* trailing_code) {
  if (!ok()) return *error_;
  if (!exhausted()) {
    return Status::fail(trailing_code,
                        std::to_string(remaining()) + " unparsed trailing bytes");
  }
  return {};
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
