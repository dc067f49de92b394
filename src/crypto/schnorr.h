// Toy Schnorr signatures over Z_p^* with p = 2^61 - 1.
//
// SUBSTITUTION NOTE (DESIGN.md §4): the paper assumes a production blockchain
// with real public-key cryptography. The governance and audit experiments
// depend on signatures being *bindable and checkable*, not on cryptographic
// hardness, so we implement the genuine Schnorr signature equations over a
// deliberately small prime field (61-bit Mersenne prime, generator 3).
// This is mathematically a Schnorr scheme — key generation, signing, and
// verification follow the real algebra — but the field is far too small to be
// secure. DO NOT use outside simulation.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/sha256.h"

namespace mv::crypto {

/// Field modulus p = 2^61 - 1 (Mersenne prime) and group order q = p - 1.
inline constexpr std::uint64_t kFieldP = (1ULL << 61) - 1;
inline constexpr std::uint64_t kGroupQ = kFieldP - 1;
inline constexpr std::uint64_t kGenerator = 3;

[[nodiscard]] std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b,
                                    std::uint64_t m);
[[nodiscard]] std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp,
                                    std::uint64_t m);

struct PublicKey {
  std::uint64_t y = 0;  ///< g^x mod p

  friend constexpr auto operator<=>(PublicKey, PublicKey) = default;
};

struct PrivateKey {
  std::uint64_t x = 0;  ///< in [1, q-1]
};

struct KeyPair {
  PrivateKey priv;
  PublicKey pub;
};

struct Signature {
  std::uint64_t e = 0;  ///< challenge = H(r || m) mod q
  std::uint64_t s = 0;  ///< response  = (k - x*e) mod q

  [[nodiscard]] bool operator==(const Signature&) const = default;
};

/// Wire layout of keys and signatures, the one codec every signed object
/// (transactions, block and beacon headers, consensus votes) uses: a key is
/// u64(y), a signature u64(e) || u64(s). The writers take any writer with
/// the ByteWriter field interface (ByteWriter, HashWriter).
template <typename Writer>
void write_key(Writer& w, PublicKey key) {
  w.u64(key.y);
}
template <typename Writer>
void write_signature(Writer& w, const Signature& sig) {
  w.u64(sig.e);
  w.u64(sig.s);
}
[[nodiscard]] PublicKey read_key(ByteReader& r);
[[nodiscard]] Signature read_signature(ByteReader& r);

/// Sample a fresh keypair.
[[nodiscard]] KeyPair generate_keypair(Rng& rng);

/// Schnorr sign: k <- rand, r = g^k, e = H(r||m) mod q, s = k - x*e mod q.
[[nodiscard]] Signature sign(const PrivateKey& priv,
                             std::span<const std::uint8_t> message, Rng& rng);

/// Verify: r' = g^s * y^e mod p, accept iff H(r'||m) mod q == e.
[[nodiscard]] bool verify(const PublicKey& pub,
                          std::span<const std::uint8_t> message,
                          const Signature& sig);

}  // namespace mv::crypto
