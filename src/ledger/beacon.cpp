#include "ledger/beacon.h"

#include <algorithm>
#include <mutex>
#include <string_view>
#include <utility>

namespace mv::ledger {

namespace {

/// Domain tag for anchor leaf digests; part of the beacon wire format.
constexpr std::string_view kAnchorDomain = "mv.shard.anchor.v1";
/// Sanity bound on the shard count a decoded beacon may claim — far above
/// any deployment, low enough that a forged count cannot drive allocation.
constexpr std::uint32_t kMaxShards = 1u << 16;

/// Everything the proposer signs, in wire order; encode() appends the key
/// and the signature. Works against any writer with the ByteWriter field
/// interface (ByteWriter, HashWriter).
template <typename Writer>
void write_signing_fields(Writer& w, const BeaconHeader& h) {
  w.i64(h.height);
  w.raw(h.prev_hash);
  w.i64(h.timestamp);
  w.u32(static_cast<std::uint32_t>(h.shards.size()));
  for (const ShardAnchor& a : h.shards) {
    w.raw(a.state_root);
    w.raw(a.receipts_root);
  }
  // The derived root is signed too: a proposer attests to the combination,
  // not just the inputs, so a verifier holding only (root, signature) is
  // covered without re-deriving.
  w.raw(combine_beacon_root(h.shards));
}

}  // namespace

crypto::Digest shard_anchor_digest(const ShardAnchor& anchor) {
  ByteWriter w;
  w.str(kAnchorDomain);
  w.raw(anchor.state_root);
  w.raw(anchor.receipts_root);
  return crypto::sha256(w.data());
}

crypto::Digest combine_beacon_root(const std::vector<ShardAnchor>& anchors) {
  crypto::MerkleMap map;
  for (std::uint32_t i = 0; i < anchors.size(); ++i) {
    map.put(i, shard_anchor_digest(anchors[i]));
  }
  return map.root();
}

crypto::MerkleMapProof prove_shard_anchor(
    const std::vector<ShardAnchor>& anchors, std::uint32_t index) {
  crypto::MerkleMap map;
  for (std::uint32_t i = 0; i < anchors.size(); ++i) {
    map.put(i, shard_anchor_digest(anchors[i]));
  }
  return map.prove(index);
}

bool verify_shard_anchor(const crypto::Digest& beacon_root, std::uint32_t index,
                         const ShardAnchor& anchor,
                         const crypto::MerkleMapProof& proof) {
  return crypto::MerkleMap::verify(beacon_root, index,
                                   shard_anchor_digest(anchor), proof);
}

Bytes BeaconHeader::signing_bytes() const {
  ByteWriter w;
  write_signing_fields(w, *this);
  return w.take();
}

Bytes BeaconHeader::encode() const {
  ByteWriter w;
  write_signing_fields(w, *this);
  crypto::write_key(w, proposer_pub);
  crypto::write_signature(w, proposer_sig);
  return w.take();
}

Result<BeaconHeader> BeaconHeader::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  BeaconHeader h;
  h.height = r.read_i64();
  r.read_fixed(h.prev_hash);
  h.timestamp = r.read_i64();
  // Each anchor is two digests.
  const std::uint32_t count = r.count(64, errc::kBeaconBadCount);
  if (count == 0 || count > kMaxShards) {
    r.fail(errc::kBeaconBadCount, "shard count out of range");
  }
  h.shards.resize(r.ok() ? count : 0);
  for (ShardAnchor& a : h.shards) {
    r.read_fixed(a.state_root);
    r.read_fixed(a.receipts_root);
  }
  crypto::Digest root{};
  r.read_fixed(root);
  // The root is derived state: recompute it and refuse a stream whose
  // claimed root disagrees — no semantically inert bytes.
  if (r.ok()) h.beacon_root = combine_beacon_root(h.shards);
  if (root != h.beacon_root) r.fail(errc::kBeaconBadRoot, "beacon root does not recombine");
  h.proposer_pub = crypto::read_key(r);
  h.proposer_sig = crypto::read_signature(r);
  return r.finish(std::move(h), errc::kBeaconTrailing);
}

crypto::Digest BeaconHeader::hash() const {
  // Streams the exact encode() byte sequence; no intermediate buffer.
  crypto::HashWriter w;
  write_signing_fields(w, *this);
  crypto::write_key(w, proposer_pub);
  crypto::write_signature(w, proposer_sig);
  return w.digest();
}

void BeaconArchive::push(BeaconHeader header) {
  std::unique_lock lock(mu_);
  headers_.push_back(std::move(header));
}

std::int64_t BeaconArchive::size() const {
  std::shared_lock lock(mu_);
  return static_cast<std::int64_t>(headers_.size());
}

const BeaconHeader* BeaconArchive::at(std::int64_t height) const {
  std::shared_lock lock(mu_);
  if (height < 0 || height >= static_cast<std::int64_t>(headers_.size())) {
    return nullptr;
  }
  return &headers_[static_cast<std::size_t>(height)];
}

std::optional<ShardAnchor> BeaconArchive::anchor(std::int64_t height,
                                                 std::uint32_t shard) const {
  const BeaconHeader* header = at(height);
  if (header == nullptr || shard >= header->shards.size()) return std::nullopt;
  return header->shards[shard];
}

}  // namespace mv::ledger
