// SHA-256 (FIPS 180-4). Full from-scratch implementation; used for block
// hashes, Merkle roots, transaction ids, addresses, and Schnorr challenges.
//
// The compression function is dispatched at runtime: on x86-64 CPUs with the
// SHA extensions the hardware path runs (~5-10x the scalar throughput), and
// everything else uses the portable scalar rounds. Both paths produce
// identical digests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace mv::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Finalize and return the digest.
  ///
  /// Contract: finalize() resets the object to a freshly-constructed state,
  /// so the same instance may be reused for a new, independent message.
  /// (Historically the padded tail was left in `state_`/`buffer_len_` and a
  /// subsequent update() silently hashed garbage.)
  [[nodiscard]] Digest finalize();

 private:
  void process_blocks(const std::uint8_t* data, std::size_t block_count);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
};

[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::string_view data);

/// Messages of at most this many bytes fit one padded compression block, so
/// they take the single-compression fast path in sha256() and are eligible
/// for sha256_short_batch().
inline constexpr std::size_t kSha256ShortMax = 55;

/// One independent message for sha256_short_batch(). `len <= kSha256ShortMax`.
struct ShortInput {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

/// Hash many independent short messages: out[i] = sha256({msgs[i].data,
/// msgs[i].len}). On CPUs with the SHA extensions, pairs of messages are
/// compressed in interleaved lanes to hide the per-block latency chain of
/// sha256rnds2 (the serial one-shot path is latency-bound, not
/// throughput-bound); elsewhere this degrades to a loop over sha256().
/// Bulk leaf hashing (account leaf digests, MerkleMap::update) is the
/// intended caller. `out` must hold msgs.size() digests.
void sha256_short_batch(std::span<const ShortInput> msgs, Digest* out);

/// sha256_short_batch over `n` preimages of one fixed width: `pack(i, p)`
/// writes preimage i into the `Width`-byte buffer `p`, and `emit(i, d)`
/// receives its digest. Leaf hashing (account leaves, MerkleMap leaves)
/// lays its fixed preimages out through this one buffer-and-batch routine.
/// The preimages go a chunk at a time through a stack buffer, so a bulk
/// build allocates nothing here.
template <std::size_t Width, typename Pack, typename Emit>
void sha256_fixed_batch(std::size_t n, Pack&& pack, Emit&& emit) {
  static_assert(Width <= kSha256ShortMax, "preimage must fit one block");
  constexpr std::size_t kChunk = 64;
  std::array<std::uint8_t, kChunk * Width> preimages;
  std::array<ShortInput, kChunk> inputs;
  std::array<Digest, kChunk> out;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    for (std::size_t i = 0; i < m; ++i) {
      std::uint8_t* p = preimages.data() + i * Width;
      pack(base + i, p);
      inputs[i] = {p, Width};
    }
    sha256_short_batch(std::span(inputs.data(), m), out.data());
    for (std::size_t i = 0; i < m; ++i) emit(base + i, out[i]);
  }
}
/// The same, collected: result[i] is the digest of preimage i.
template <std::size_t Width, typename Pack>
[[nodiscard]] std::vector<Digest> sha256_fixed_batch(std::size_t n, Pack&& pack) {
  std::vector<Digest> out(n);
  sha256_fixed_batch<Width>(n, std::forward<Pack>(pack),
                            [&](std::size_t i, const Digest& d) { out[i] = d; });
  return out;
}

/// Little-endian u64 store: the byte order HashWriter::u64 streams.
inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

/// Hash two independent messages of any length: out_a = sha256(a), out_b =
/// sha256(b). On CPUs with the SHA extensions the two compressions run in
/// interleaved lanes while both messages still have blocks left (maximally
/// effective on equal-length inputs, e.g. snapshot chunks); the remainder —
/// and every non-x86 path — falls back to the serial one-shot.
void sha256_pair(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
                 Digest& out_a, Digest& out_b);

/// Streams the ByteWriter wire format (common/bytes.h) straight into a
/// SHA-256 state. digest() equals sha256(w.data()) for a ByteWriter `w` fed
/// the same sequence of calls, without materializing the intermediate buffer
/// — canonical digests of large structures (ledger state roots) stay O(1)
/// in memory.
class HashWriter {
 public:
  void u8(std::uint8_t v) { append(&v, 1); }
  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append(b, 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    store_le64(b, v);
    append(b, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    append(v.data(), v.size());
  }
  /// Raw append without a length prefix (for fixed-size digests).
  void raw(std::span<const std::uint8_t> v) { append(v.data(), v.size()); }

  /// Finalize. Resets the underlying stream (same contract as Sha256).
  [[nodiscard]] Digest digest() {
    if (!flushed_ && stage_len_ <= kSha256ShortMax) {
      // Whole message still staged and short: one-shot fast path (sha256()
      // compresses a single padded block), skipping the streaming machinery.
      const Digest d =
          sha256(std::span<const std::uint8_t>(stage_.data(), stage_len_));
      stage_len_ = 0;
      return d;
    }
    flush();
    flushed_ = false;
    return hash_.finalize();
  }

 private:
  // Small fields are staged and fed to the compressor in multi-block spans;
  // per-field update() calls would otherwise dominate large serializations.
  static constexpr std::size_t kStageSize = 1024;  // multiple of the 64B block

  void append(const std::uint8_t* p, std::size_t n) {
    if (n == 0) return;  // empty spans may carry a null pointer (UB in memcpy)
    if (n > kStageSize - stage_len_) {
      flush();
      if (n >= kStageSize) {
        hash_.update(std::span<const std::uint8_t>(p, n));
        flushed_ = true;
        return;
      }
    }
    std::memcpy(stage_.data() + stage_len_, p, n);
    stage_len_ += n;
  }
  void flush() {
    if (stage_len_ > 0) {
      hash_.update(std::span<const std::uint8_t>(stage_.data(), stage_len_));
      stage_len_ = 0;
      flushed_ = true;
    }
  }

  Sha256 hash_;
  bool flushed_ = false;  ///< hash_ has consumed bytes of the current message
  std::size_t stage_len_ = 0;
  std::array<std::uint8_t, kStageSize> stage_;
};

/// First 8 bytes of a digest as u64 (little-endian) — compact ids.
[[nodiscard]] std::uint64_t digest_prefix64(const Digest& d);

[[nodiscard]] std::string to_hex(const Digest& d);

}  // namespace mv::crypto
