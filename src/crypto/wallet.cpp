#include "crypto/wallet.h"

#include <array>
#include <sstream>

namespace mv::crypto {

std::string Address::to_string() const {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

Address address_of(const PublicKey& pub) {
  // write_key's 8 bytes, u64(y), laid out on the stack: this runs several
  // times per transaction, and a ByteWriter would allocate for them.
  std::array<std::uint8_t, 8> key{};
  store_le64(key.data(), pub.y);
  std::uint64_t v = digest_prefix64(sha256(key));
  if (v == 0) v = 1;  // reserve 0 as the null address
  return Address{v};
}

Wallet::Wallet(Rng& rng) : keys_(generate_keypair(rng)), address_(address_of(keys_.pub)) {}

Signature Wallet::sign(std::span<const std::uint8_t> message, Rng& rng) const {
  return crypto::sign(keys_.priv, message, rng);
}

}  // namespace mv::crypto
