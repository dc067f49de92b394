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
  auto height = r.i64();
  if (!height.ok()) return height.error();
  header.height = height.value();
  if (Status s = r.fixed(header.prev_hash); !s.ok()) return s.error();
  if (Status s = r.fixed(header.tx_root); !s.ok()) return s.error();
  if (Status s = r.fixed(header.state_root); !s.ok()) return s.error();
  auto ts = r.i64();
  if (!ts.ok()) return ts.error();
  header.timestamp = ts.value();
  if (Status s = crypto::read_key(r, header.proposer_pub); !s.ok()) return s.error();
  if (Status s = crypto::read_signature(r, header.proposer_sig); !s.ok()) {
    return s.error();
  }
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

Result<Block> Block::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto header_bytes = r.view();
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
    auto tx_bytes = r.view();
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
  return crypto::merkle_root(std::move(digests));
}

}  // namespace mv::ledger
