#include "ledger/block.h"

namespace mv::ledger {

namespace {

/// Everything the proposer signs, in wire order; encode() appends the
/// signature. Works against any writer with the ByteWriter field interface
/// (ByteWriter, HashWriter).
template <typename Writer>
void write_signing_fields(Writer& w, const BlockHeader& h) {
  w.i64(h.height);
  w.raw(h.prev_hash);
  w.raw(h.tx_root);
  w.raw(h.state_root);
  w.i64(h.timestamp);
  crypto::write_key(w, h.proposer_pub);
}

}  // namespace

Bytes BlockHeader::signing_bytes() const {
  ByteWriter w;
  write_signing_fields(w, *this);
  return w.take();
}

Bytes BlockHeader::encode() const {
  ByteWriter w;
  write_signing_fields(w, *this);
  crypto::write_signature(w, proposer_sig);
  return w.take();
}

crypto::Digest BlockHeader::hash() const {
  // Streams the exact encode() byte sequence; no intermediate buffer.
  crypto::HashWriter w;
  write_signing_fields(w, *this);
  crypto::write_signature(w, proposer_sig);
  return w.digest();
}

Result<BlockHeader> BlockHeader::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  BlockHeader header;
  header.height = r.read_i64();
  r.read_fixed(header.prev_hash);
  r.read_fixed(header.tx_root);
  r.read_fixed(header.state_root);
  header.timestamp = r.read_i64();
  header.proposer_pub = crypto::read_key(r);
  header.proposer_sig = crypto::read_signature(r);
  return r.finish(std::move(header), "block.trailing_bytes");
}

Bytes Block::encode() const {
  ByteWriter w;
  w.bytes(header.encode());
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const auto& tx : txs) w.bytes(tx.encode());
  return w.take();
}

Result<Block> Block::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Block block;
  block.header = r.nested<BlockHeader>();
  // Every encoded tx costs at least its 4-byte length prefix.
  const std::uint32_t count = r.count(4, "block.bad_tx_count");
  block.txs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) block.txs.push_back(r.nested<Transaction>());
  return r.finish(std::move(block), "block.trailing_bytes");
}

std::vector<crypto::Digest> Block::tx_digests(const std::vector<Transaction>& txs) {
  std::vector<crypto::Digest> digests;
  digests.reserve(txs.size());
  for (const auto& tx : txs) digests.push_back(tx.digest());
  return digests;
}

crypto::Digest Block::compute_tx_root(std::vector<crypto::Digest> digests) {
  return crypto::merkle_root(std::move(digests));
}

}  // namespace mv::ledger
