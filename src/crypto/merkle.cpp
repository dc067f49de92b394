#include "crypto/merkle.h"

namespace mv::crypto {

Digest merkle_root(std::vector<Digest> leaves) {
  if (leaves.empty()) return Digest{};
  constexpr std::uint8_t kInterior = 0x01;
  std::size_t n = leaves.size();
  while (n > 1) {
    for (std::size_t i = 0; i < n; i += 2) {
      const Digest& left = leaves[i];
      const Digest& right = i + 1 < n ? leaves[i + 1] : leaves[i];
      Sha256 h;
      h.update(std::span<const std::uint8_t>(&kInterior, 1));
      h.update(std::span<const std::uint8_t>(left.data(), left.size()));
      h.update(std::span<const std::uint8_t>(right.data(), right.size()));
      leaves[i / 2] = h.finalize();
    }
    n = (n + 1) / 2;
  }
  return leaves.front();
}

}  // namespace mv::crypto
