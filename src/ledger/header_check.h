// One header check. Block and beacon headers carry the same trust fields
// (height, prev_hash, proposer key, Schnorr signature over signing_bytes()),
// and every consumer — append/validate, the snapshot anchor, the light client
// and so every SubscriptionFeed, the beacon follower — decides here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace mv::ledger {

/// Round-robin proof of authority: the index of the validator scheduled to
/// propose `height` in a set of `n` (n > 0).
[[nodiscard]] constexpr std::size_t proposer_index(std::int64_t height, std::size_t n) {
  return static_cast<std::size_t>(height) % n;
}

/// Accept `header` as the link after a tip at `prev_hash`, at `height`.
/// Checks, in order: height, prev_hash, the proposer `validators` schedule
/// for that height, its signature. header.* codes on failure.
template <typename Header>
[[nodiscard]] Status check_signed_header(
    const Header& header, std::int64_t height, const crypto::Digest& prev_hash,
    std::span<const crypto::PublicKey> validators) {
  if (header.height != height) {
    return Status::fail(errc::kHeaderBadHeight,
                        "expected height " + std::to_string(height));
  }
  if (header.prev_hash != prev_hash) {
    return Status::fail(errc::kHeaderBadParent, "prev_hash does not link to the tip");
  }
  if (validators.empty()) {
    return Status::fail(errc::kHeaderNoValidators, "validator set is empty");
  }
  const std::size_t scheduled = proposer_index(header.height, validators.size());
  if (header.proposer_pub != validators[scheduled]) {
    return Status::fail(errc::kHeaderWrongProposer, "not the scheduled proposer");
  }
  if (!crypto::verify(header.proposer_pub, header.signing_bytes(),
                      header.proposer_sig)) {
    return Status::fail(errc::kHeaderBadSignature, "proposer signature invalid");
  }
  return {};
}

}  // namespace mv::ledger
