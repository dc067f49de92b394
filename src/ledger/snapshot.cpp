#include "ledger/snapshot.h"

#include <algorithm>

namespace mv::ledger {

namespace {

constexpr std::string_view kPayloadTag = "mv.snapshot.v1";
constexpr std::uint8_t kManifestVersion = 1;

// Per-entry minimum wire sizes, used to reject counts that could not
// possibly fit in the remaining buffer before allocating for them.
constexpr std::size_t kMinAccountEntry = 8 + 1 + 8;   // addr + flags + nonce
constexpr std::size_t kMinAuditEntry = 8 + 4 + 8;     // collector + body len + height
constexpr std::size_t kMinContractEntry = 4 + 8;      // name len + entry count
constexpr std::size_t kMinStoreEntry = 4 + 4;         // key len + value len

// Full-width on purpose: truncating this to uint32_t would let a huge
// total_bytes alias a small chunk count (2^34 + n truncates to n) and slip
// through the geometry check into an attacker-sized allocation.
std::uint64_t chunk_count_for(std::uint64_t total_bytes, std::uint32_t chunk_size) {
  return (total_bytes + chunk_size - 1) / chunk_size;
}

// The contiguous byte stream snapshot_chunk_digest's HashWriter hashes
// (tagged prefix, index, length-prefixed data), materialized so pairs of
// chunks can run through crypto::sha256_pair in interleaved SHA lanes.
// Equal-length messages (every chunk but the last) interleave end to end.
void chunk_digest_preimage(std::uint32_t index,
                           std::span<const std::uint8_t> data, Bytes& out) {
  constexpr std::string_view kTag = "mv.snapshot.chunk";
  out.clear();
  out.reserve(4 + kTag.size() + 8 + data.size());
  const auto u32le = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  u32le(static_cast<std::uint32_t>(kTag.size()));
  out.insert(out.end(), kTag.begin(), kTag.end());
  u32le(index);
  u32le(static_cast<std::uint32_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

// Digest every chunk, two at a time through crypto::sha256_pair. All chunks
// but the last are exactly chunk_size bytes, so the two lanes stay in
// lockstep for the whole message and the pairing is maximally effective.
// Digests are bit-identical to per-chunk snapshot_chunk_digest().
std::vector<crypto::Digest> digest_chunks(const std::vector<Bytes>& chunks) {
  std::vector<crypto::Digest> digests(chunks.size());
  Bytes pre_a;
  Bytes pre_b;
  std::size_t i = 0;
  for (; i + 1 < chunks.size(); i += 2) {
    chunk_digest_preimage(static_cast<std::uint32_t>(i), chunks[i], pre_a);
    chunk_digest_preimage(static_cast<std::uint32_t>(i + 1), chunks[i + 1],
                          pre_b);
    crypto::sha256_pair(pre_a, pre_b, digests[i], digests[i + 1]);
  }
  if (i < chunks.size()) {
    digests[i] = snapshot_chunk_digest(static_cast<std::uint32_t>(i), chunks[i]);
  }
  return digests;
}

}  // namespace

crypto::Digest snapshot_chunk_digest(std::uint32_t index,
                                     std::span<const std::uint8_t> data) {
  crypto::HashWriter w;
  w.str("mv.snapshot.chunk");
  w.u32(index);
  w.bytes(data);
  return w.digest();
}

crypto::Digest SnapshotManifest::chunk_root() const {
  return crypto::merkle_root(chunk_digests);
}

Bytes SnapshotManifest::encode() const {
  ByteWriter w;
  w.u8(kManifestVersion);
  w.i64(height);
  write_commitment_sections(w, commitment);
  w.u32(chunk_size);
  w.u64(total_bytes);
  w.u32(chunk_count());
  for (const auto& d : chunk_digests) w.raw(d);
  return w.take();
}

Result<SnapshotManifest> SnapshotManifest::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto version = r.u8();
  if (!version.ok()) return version.error();
  if (version.value() != kManifestVersion) {
    return make_error("snapshot.bad_version", "unknown manifest version");
  }
  SnapshotManifest m;
  const auto height = r.i64();
  if (!height.ok()) return height.error();
  m.height = height.value();
  if (m.height < 0) return make_error("snapshot.bad_height", "negative height");
  // The root is recombined, never transported: a manifest whose sections
  // disagree with its root cannot exist by construction.
  if (Status s = read_commitment_sections(r, m.commitment); !s.ok()) {
    return s.error();
  }

  const auto chunk_size = r.u32();
  if (!chunk_size.ok()) return chunk_size.error();
  m.chunk_size = chunk_size.value();
  const auto total = r.u64();
  if (!total.ok()) return total.error();
  m.total_bytes = total.value();
  const auto count = r.u32();
  if (!count.ok()) return count.error();
  if (m.chunk_size == 0 || m.total_bytes == 0 ||
      count.value() != chunk_count_for(m.total_bytes, m.chunk_size)) {
    return make_error("snapshot.bad_geometry",
                      "chunk count inconsistent with total_bytes/chunk_size");
  }
  if (count.value() > r.remaining() / crypto::Digest{}.size()) {
    return make_error("snapshot.bad_geometry", "chunk count exceeds payload");
  }
  m.chunk_digests.resize(count.value());
  for (crypto::Digest& d : m.chunk_digests) {
    if (Status s = r.fixed(d); !s.ok()) return s.error();
  }
  if (!r.exhausted()) {
    return make_error("snapshot.trailing_bytes", "manifest has trailing bytes");
  }
  return m;
}

Bytes encode_snapshot_payload(const LedgerState& state) {
  ByteWriter w;
  w.str(kPayloadTag);

  // Accounts, in strictly ascending address order. The state holds only
  // live accounts (a balance entry, or a nonzero nonce) — exactly the set
  // the accounts commitment covers — so the encoding is canonical.
  const std::vector<Account> accounts = state.sorted_accounts();
  w.u64(accounts.size());
  for (const Account& a : accounts) {
    w.u64(a.addr.value);
    w.u8(a.has_balance ? 1 : 0);
    if (a.has_balance) w.u64(a.balance);
    w.u64(a.nonce);
  }

  // Audit log, oldest first (the order the chain hash folds in).
  w.u64(state.audit_log().size());
  for (const auto& rec : state.audit_log()) {
    w.u64(rec.collector.value);
    w.bytes(rec.body.encode());
    w.i64(rec.height);
  }

  // Contract stores, ascending by name then key. Empty stores are emitted:
  // store_erase materializes them and the stores commitment covers the
  // contract count and names.
  w.u32(static_cast<std::uint32_t>(state.stores().size()));
  for (const auto& [name, store] : state.stores()) {
    w.str(name);
    w.u64(store.size());
    for (const auto& [key, value] : store) {
      w.str(key);
      w.bytes(value);
    }
  }

  w.u64(state.burned_fees());
  return w.take();
}

Result<LedgerState> decode_snapshot_payload(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto tag = r.str();
  if (!tag.ok()) return tag.error();
  if (tag.value() != kPayloadTag) {
    return make_error("snapshot.bad_tag", "unknown snapshot format");
  }
  LedgerState state;

  const auto account_count = r.u64();
  if (!account_count.ok()) return account_count.error();
  if (account_count.value() > r.remaining() / kMinAccountEntry) {
    return make_error("snapshot.bad_count", "account count exceeds payload");
  }
  std::uint64_t prev_addr = 0;
  // Entries are validated into a sorted seed list and loaded in one pass
  // (LedgerState::load_accounts): the table is sized once and the leaves go
  // into the accounts tree as one MerkleMap::update batch.
  std::vector<Account> seeds;
  seeds.reserve(std::min<std::uint64_t>(account_count.value(), 1u << 20));
  for (std::uint64_t i = 0; i < account_count.value(); ++i) {
    const auto addr = r.u64();
    if (!addr.ok()) return addr.error();
    if (i != 0 && addr.value() <= prev_addr) {
      return make_error("snapshot.bad_order", "account addresses not ascending");
    }
    prev_addr = addr.value();
    const auto flags = r.u8();
    if (!flags.ok()) return flags.error();
    if (flags.value() > 1) {
      return make_error("snapshot.bad_flags", "account flags not in {0,1}");
    }
    const bool has_balance = flags.value() == 1;
    std::uint64_t balance = 0;
    if (has_balance) {
      const auto bal = r.u64();
      if (!bal.ok()) return bal.error();
      balance = bal.value();
    }
    const auto nonce = r.u64();
    if (!nonce.ok()) return nonce.error();
    if (!has_balance && nonce.value() == 0) {
      // A leafless entry would be semantically inert — not canonical.
      return make_error("snapshot.bad_entry", "entry carries no account leaf");
    }
    seeds.push_back(Account{crypto::Address{addr.value()}, balance,
                            nonce.value(), has_balance});
  }
  state.load_accounts(seeds);

  const auto audit_count = r.u64();
  if (!audit_count.ok()) return audit_count.error();
  if (audit_count.value() > r.remaining() / kMinAuditEntry) {
    return make_error("snapshot.bad_count", "audit count exceeds payload");
  }
  for (std::uint64_t i = 0; i < audit_count.value(); ++i) {
    const auto collector = r.u64();
    if (!collector.ok()) return collector.error();
    const auto body_bytes = r.view();
    if (!body_bytes.ok()) return body_bytes.error();
    auto body = AuditRecordBody::decode(body_bytes.value());
    if (!body.ok()) return body.error();
    // AuditRecordBody::decode tolerates trailing bytes (it reads embedded
    // framings elsewhere); the snapshot's framing is strict, so require the
    // canonical re-encoding to reproduce the wire bytes exactly.
    if (!std::ranges::equal(body.value().encode(), body_bytes.value())) {
      return make_error("snapshot.bad_entry", "audit body not canonical");
    }
    const auto height = r.i64();
    if (!height.ok()) return height.error();
    state.append_audit(StoredAuditRecord{crypto::Address{collector.value()},
                                         std::move(body).value(),
                                         height.value()});
  }

  const auto contract_count = r.u32();
  if (!contract_count.ok()) return contract_count.error();
  if (contract_count.value() > r.remaining() / kMinContractEntry) {
    return make_error("snapshot.bad_count", "contract count exceeds payload");
  }
  std::string prev_name;
  for (std::uint32_t i = 0; i < contract_count.value(); ++i) {
    const auto name = r.str();
    if (!name.ok()) return name.error();
    if (i != 0 && name.value() <= prev_name) {
      return make_error("snapshot.bad_order", "contract names not ascending");
    }
    prev_name = name.value();
    state.materialize_store(name.value());
    const auto entry_count = r.u64();
    if (!entry_count.ok()) return entry_count.error();
    if (entry_count.value() > r.remaining() / kMinStoreEntry) {
      return make_error("snapshot.bad_count", "store entry count exceeds payload");
    }
    std::string prev_key;
    for (std::uint64_t k = 0; k < entry_count.value(); ++k) {
      const auto key = r.str();
      if (!key.ok()) return key.error();
      if (k != 0 && key.value() <= prev_key) {
        return make_error("snapshot.bad_order", "store keys not ascending");
      }
      prev_key = key.value();
      auto value = r.bytes();
      if (!value.ok()) return value.error();
      state.store_put(name.value(), key.value(), std::move(value).value());
    }
  }

  const auto burned = r.u64();
  if (!burned.ok()) return burned.error();
  state.add_burned_fees(burned.value());

  if (!r.exhausted()) {
    return make_error("snapshot.trailing_bytes", "payload has trailing bytes");
  }
  return state;
}

Snapshot build_snapshot(const LedgerState& state, std::int64_t height,
                        std::size_t chunk_size) {
  Snapshot snap;
  const Bytes payload = encode_snapshot_payload(state);
  snap.manifest.height = height;
  snap.manifest.commitment = state.commitment();
  snap.manifest.chunk_size = static_cast<std::uint32_t>(chunk_size);
  snap.manifest.total_bytes = payload.size();
  const auto count = static_cast<std::uint32_t>(
      chunk_count_for(payload.size(), snap.manifest.chunk_size));
  snap.chunks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t begin = static_cast<std::size_t>(i) * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, payload.size());
    snap.chunks.emplace_back(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                             payload.begin() + static_cast<std::ptrdiff_t>(end));
  }
  snap.manifest.chunk_digests = digest_chunks(snap.chunks);
  return snap;
}

Result<LedgerState> assemble_snapshot(const SnapshotManifest& manifest,
                                      const std::vector<Bytes>& chunks) {
  // Re-check the geometry even though a decoded manifest already passed it —
  // manifests can also be built programmatically.
  if (manifest.chunk_size == 0 || manifest.total_bytes == 0 ||
      manifest.chunk_count() !=
          chunk_count_for(manifest.total_bytes, manifest.chunk_size)) {
    return make_error("snapshot.bad_geometry",
                      "chunk count inconsistent with total_bytes/chunk_size");
  }
  if (chunks.size() != manifest.chunk_count()) {
    return make_error("snapshot.bad_chunk_count",
                      "expected " + std::to_string(manifest.chunk_count()) +
                          " chunks, got " + std::to_string(chunks.size()));
  }
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    const std::size_t expected =
        i + 1 < chunks.size()
            ? manifest.chunk_size
            : static_cast<std::size_t>(manifest.total_bytes -
                                       std::uint64_t(i) * manifest.chunk_size);
    if (chunks[i].size() != expected) {
      return make_error("snapshot.bad_chunk_size",
                        "chunk " + std::to_string(i) + " has wrong length");
    }
  }
  const std::vector<crypto::Digest> digests = digest_chunks(chunks);
  Bytes payload;
  payload.reserve(manifest.total_bytes);
  for (std::uint32_t i = 0; i < chunks.size(); ++i) {
    if (digests[i] != manifest.chunk_digests[i]) {
      return make_error("snapshot.bad_chunk",
                        "chunk " + std::to_string(i) + " digest mismatch");
    }
    payload.insert(payload.end(), chunks[i].begin(), chunks[i].end());
  }
  auto state = decode_snapshot_payload(payload);
  if (!state.ok()) return state.error();
  // The decoded state must reproduce the manifest's commitment sections
  // byte-identically — the manifest (and through it the block header's
  // state_root) is the trust anchor for everything decoded above.
  if (state.value().commitment() != manifest.commitment) {
    return make_error("snapshot.commitment_mismatch",
                      "decoded state does not reproduce the manifest commitment");
  }
  return state;
}

}  // namespace mv::ledger
