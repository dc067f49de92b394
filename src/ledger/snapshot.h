// Verified state snapshots: O(state) replica catch-up.
//
// A lagging replica historically replayed every block; with per-section
// commitments (DESIGN.md §6) a snapshot of the LedgerState can be verified
// directly instead. This module is the codec layer:
//
//   payload  — "mv.snapshot.v1" section stream (accounts, audit log,
//              contract stores, burned fees) in canonical order. Strict
//              decode in the ProofFuzz style: every byte is load-bearing,
//              non-canonical orderings and trailing bytes are rejected, and
//              re-encoding a decoded payload reproduces it byte-identically.
//   chunks   — the payload split at a fixed chunk size; each chunk is
//              addressed by index and committed by a domain-separated digest.
//   manifest — height, the state's commitment sections, chunk geometry, and
//              the per-chunk digest list. The commitment root is recombined
//              on decode (never transported), so a manifest binds to a block
//              header's state_root; chunk_root() folds the digest list into
//              one binding digest (a binary Merkle root).
//
// Trust chain (DESIGN.md §9): LightClient-verified header → header.state_root
// == manifest commitment root → per-chunk digests → payload → decoded state,
// whose commitment() must reproduce the manifest commitment byte-identically
// (full_rehash_commitment() is the differential oracle).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "ledger/state.h"

namespace mv::ledger {

/// Default chunk size for snapshot transfer (bytes). Small enough that a
/// dropped or corrupted chunk is cheap to re-request, large enough that the
/// per-chunk digest list stays tiny next to the payload.
inline constexpr std::size_t kSnapshotChunkSize = 64 * 1024;

/// Chunk commitment: sha256("mv.snapshot.chunk" || index || data). The index
/// is hashed in so a valid chunk replayed at another position is rejected.
[[nodiscard]] crypto::Digest snapshot_chunk_digest(
    std::uint32_t index, std::span<const std::uint8_t> data);

/// Manifest a serving replica publishes for one snapshot.
struct SnapshotManifest {
  std::int64_t height = 0;     ///< block height whose post-state this is
  StateCommitment commitment;  ///< sections; root recombined on decode
  std::uint32_t chunk_size = 0;
  std::uint64_t total_bytes = 0;  ///< payload length
  std::vector<crypto::Digest> chunk_digests;

  [[nodiscard]] std::uint32_t chunk_count() const {
    return static_cast<std::uint32_t>(chunk_digests.size());
  }
  /// Binary Merkle root over the chunk digest list — one digest binding the
  /// whole chunk set (derived, never transported).
  [[nodiscard]] crypto::Digest chunk_root() const;

  [[nodiscard]] Bytes encode() const;
  /// Strict decode: version byte, chunk geometry consistency
  /// (chunk_count == ceil(total_bytes / chunk_size), both nonzero), and no
  /// trailing bytes. commitment.root is recombined from the sections.
  [[nodiscard]] static Result<SnapshotManifest> decode(std::span<const std::uint8_t> bytes);
};

/// Serialize `state` into the canonical "mv.snapshot.v1" payload.
[[nodiscard]] Bytes encode_snapshot_payload(const LedgerState& state);

/// Strict inverse of encode_snapshot_payload. Enforces canonical form: the
/// domain tag, strictly ascending account addresses / contract names / store
/// keys, account flags in {0,1}, no leafless account entries (flags == 0 and
/// nonce == 0), and full consumption of the buffer.
[[nodiscard]] Result<LedgerState> decode_snapshot_payload(
    std::span<const std::uint8_t> bytes);

/// A manifest plus its chunk payloads, ready to serve.
struct Snapshot {
  SnapshotManifest manifest;
  std::vector<Bytes> chunks;
};

/// Encode, chunk, and digest `state` as of block `height`.
[[nodiscard]] Snapshot build_snapshot(const LedgerState& state,
                                      std::int64_t height,
                                      std::size_t chunk_size = kSnapshotChunkSize);

/// Verify `chunks` against the manifest (count, exact sizes, per-chunk
/// digests), reassemble and decode the payload, and check that the decoded
/// state's commitment reproduces manifest.commitment byte-identically.
[[nodiscard]] Result<LedgerState> assemble_snapshot(
    const SnapshotManifest& manifest, const std::vector<Bytes>& chunks);

}  // namespace mv::ledger
