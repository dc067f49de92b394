#include "crypto/wallet.h"

#include <sstream>

namespace mv::crypto {

std::string Address::to_string() const {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

Address address_of(const PublicKey& pub) {
  ByteWriter w;
  write_key(w, pub);
  const Digest d = sha256(w.data());
  std::uint64_t v = digest_prefix64(d);
  if (v == 0) v = 1;  // reserve 0 as the null address
  return Address{v};
}

Wallet::Wallet(Rng& rng) : keys_(generate_keypair(rng)), address_(address_of(keys_.pub)) {}

Signature Wallet::sign(std::span<const std::uint8_t> message, Rng& rng) const {
  return crypto::sign(keys_.priv, message, rng);
}

}  // namespace mv::crypto
