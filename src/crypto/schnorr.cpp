#include "crypto/schnorr.h"

#include <bit>

#include "common/bytes.h"

namespace mv::crypto {

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  // Fast path for the field modulus: p = 2^61 - 1 is Mersenne, so reduction
  // is two shift-and-add folds instead of a 128/64 division. This dominates
  // signature verification (pow_mod is ~128 of these per verify).
  if (m == kFieldP && a < m && b < m) {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    std::uint64_t r = (static_cast<std::uint64_t>(t) & kFieldP) +
                      static_cast<std::uint64_t>(t >> 61);
    r = (r & kFieldP) + (r >> 61);
    return r >= kFieldP ? r - kFieldP : r;
  }
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, base, m);
    exp >>= 1;
    if (exp > 0) base = mul_mod(base, base, m);
  }
  return result;
}

namespace {

/// Challenge hash: H(r || message) reduced mod q, never zero. Streamed into
/// the hash (HashWriter emits the same bytes a ByteWriter would).
std::uint64_t challenge(std::uint64_t r, std::span<const std::uint8_t> message) {
  HashWriter w;
  w.u64(r);
  w.bytes(message);
  const std::uint64_t e = digest_prefix64(w.digest()) % kGroupQ;
  return e == 0 ? 1 : e;
}

/// g^s * y^e mod p by interleaved (Shamir) double exponentiation: one shared
/// squaring chain instead of two independent pow_mod walks.
std::uint64_t double_pow_mod(std::uint64_t g, std::uint64_t s, std::uint64_t y,
                             std::uint64_t e) {
  const std::uint64_t gy = mul_mod(g, y, kFieldP);
  std::uint64_t acc = 1;
  const std::uint64_t both = s | e;
  if (both == 0) return acc;
  for (int i = 63 - std::countl_zero(both); i >= 0; --i) {
    acc = mul_mod(acc, acc, kFieldP);
    const bool bs = (s >> i) & 1;
    const bool be = (e >> i) & 1;
    if (bs && be) {
      acc = mul_mod(acc, gy, kFieldP);
    } else if (bs) {
      acc = mul_mod(acc, g, kFieldP);
    } else if (be) {
      acc = mul_mod(acc, y, kFieldP);
    }
  }
  return acc;
}

}  // namespace

KeyPair generate_keypair(Rng& rng) {
  KeyPair kp;
  kp.priv.x = 1 + rng.next_below(kGroupQ - 1);
  kp.pub.y = pow_mod(kGenerator, kp.priv.x, kFieldP);
  return kp;
}

Signature sign(const PrivateKey& priv, std::span<const std::uint8_t> message,
               Rng& rng) {
  const std::uint64_t k = 1 + rng.next_below(kGroupQ - 1);
  const std::uint64_t r = pow_mod(kGenerator, k, kFieldP);
  Signature sig;
  sig.e = challenge(r, message);
  // s = (k - x*e) mod q
  const std::uint64_t xe = mul_mod(priv.x % kGroupQ, sig.e, kGroupQ);
  sig.s = (k + kGroupQ - xe) % kGroupQ;
  return sig;
}

bool verify(const PublicKey& pub, std::span<const std::uint8_t> message,
            const Signature& sig) {
  if (pub.y == 0 || sig.e == 0 || sig.e >= kGroupQ || sig.s >= kGroupQ) {
    return false;
  }
  // r' = g^s * y^e mod p
  const std::uint64_t r =
      double_pow_mod(kGenerator, sig.s, pub.y % kFieldP, sig.e);
  return challenge(r, message) == sig.e;
}

PublicKey read_key(ByteReader& r) { return PublicKey{r.read_u64()}; }

Signature read_signature(ByteReader& r) {
  return Signature{r.read_u64(), r.read_u64()};  // braced: e, then s
}

}  // namespace mv::crypto
