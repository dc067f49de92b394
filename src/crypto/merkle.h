// Merkle roots over SHA-256.
//
// A block header commits to its transaction set, and a snapshot manifest to
// its chunks, through the root of a binary Merkle tree over their digests.
#pragma once

#include <vector>

#include "crypto/sha256.h"

namespace mv::crypto {

/// Root of the binary tree over `leaves`, folded level by level in place.
/// An odd node at the end of a level pairs with itself (Bitcoin-style
/// duplication); interior nodes hash 0x01 || left || right, domain-separated
/// from the leaves. One leaf is its own root; no leaves give the all-zero
/// root.
[[nodiscard]] Digest merkle_root(std::vector<Digest> leaves);

}  // namespace mv::crypto
