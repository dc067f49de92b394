#include "ledger/block.h"

namespace mv::ledger {

Bytes BlockHeader::signing_bytes() const {
  ByteWriter w;
  w.i64(height);
  w.raw(prev_hash);
  w.raw(tx_root);
  w.raw(state_root);
  w.i64(timestamp);
  w.u64(proposer_pub.y);
  return w.take();
}

Bytes BlockHeader::encode() const {
  ByteWriter w;
  w.raw(signing_bytes());
  w.u64(proposer_sig.e);
  w.u64(proposer_sig.s);
  return w.take();
}

crypto::Digest BlockHeader::hash() const { return crypto::sha256(encode()); }

Result<BlockHeader> BlockHeader::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  BlockHeader header;
  auto height = r.i64();
  if (!height.ok()) return height.error();
  header.height = height.value();
  auto prev = r.raw(32);
  if (!prev.ok()) return prev.error();
  std::copy(prev.value().begin(), prev.value().end(), header.prev_hash.begin());
  auto tx_root = r.raw(32);
  if (!tx_root.ok()) return tx_root.error();
  std::copy(tx_root.value().begin(), tx_root.value().end(),
            header.tx_root.begin());
  auto state_root = r.raw(32);
  if (!state_root.ok()) return state_root.error();
  std::copy(state_root.value().begin(), state_root.value().end(),
            header.state_root.begin());
  auto ts = r.i64();
  if (!ts.ok()) return ts.error();
  header.timestamp = ts.value();
  auto pub = r.u64();
  if (!pub.ok()) return pub.error();
  header.proposer_pub.y = pub.value();
  auto e = r.u64();
  if (!e.ok()) return e.error();
  auto s = r.u64();
  if (!s.ok()) return s.error();
  header.proposer_sig = crypto::Signature{e.value(), s.value()};
  if (!r.exhausted()) {
    return make_error("block.trailing_bytes", "unparsed trailing header data");
  }
  return header;
}

Bytes Block::encode() const {
  ByteWriter w;
  w.bytes(header.encode());
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const auto& tx : txs) w.bytes(tx.encode());
  return w.take();
}

Result<Block> Block::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  auto header_bytes = r.bytes();
  if (!header_bytes.ok()) return header_bytes.error();

  Block block;
  auto header = BlockHeader::decode(header_bytes.value());
  if (!header.ok()) return header.error();
  block.header = std::move(header).value();

  auto count = r.u32();
  if (!count.ok()) return count.error();
  // Every encoded tx costs at least its 4-byte length prefix; a count beyond
  // that bound is forged (and must not drive a huge reserve()).
  if (count.value() > r.remaining() / 4) {
    return make_error("block.bad_tx_count", "tx count exceeds payload size");
  }
  block.txs.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto tx_bytes = r.bytes();
    if (!tx_bytes.ok()) return tx_bytes.error();
    auto tx = Transaction::decode(tx_bytes.value());
    if (!tx.ok()) return tx.error();
    block.txs.push_back(std::move(tx).value());
  }
  if (!r.exhausted()) {
    return make_error("block.trailing_bytes", "unparsed trailing data");
  }
  return block;
}

std::vector<crypto::Digest> Block::tx_digests(const std::vector<Transaction>& txs) {
  std::vector<crypto::Digest> digests;
  digests.reserve(txs.size());
  for (const auto& tx : txs) digests.push_back(tx.digest());
  return digests;
}

crypto::Digest Block::compute_tx_root(std::vector<crypto::Digest> digests) {
  return crypto::MerkleTree(std::move(digests)).root();
}

crypto::MerkleTree Block::tx_tree() const {
  return crypto::MerkleTree(tx_digests(txs));
}

}  // namespace mv::ledger
