#include "ledger/light_client.h"

#include <algorithm>
#include <string>

namespace mv::ledger {

// ------------------------------------------------------------ AccountProof

Bytes AccountProof::encode() const {
  ByteWriter w;
  w.reserve(encoded_size());
  write(w);
  return w.take();
}

std::size_t AccountProof::encoded_size() const {
  // Address, height, the two flags, balance, nonce, the commitment sections
  // and the Merkle path's length prefix, then the path.
  return 8 + 8 + 1 + 1 + 8 + 8 + 3 * (sizeof(crypto::Digest) + 8) + 4 +
         proof.encoded_size();
}

void AccountProof::write(ByteWriter& w) const {
  w.u64(address.value);
  w.i64(height);
  w.u8(statement.exists ? 1 : 0);
  w.u8(statement.has_balance ? 1 : 0);
  w.u64(statement.balance);
  w.u64(statement.nonce);
  // Commitment sections only; the combined root is derived, not transported.
  write_commitment_sections(w, commitment);
  w.prefixed([this](ByteWriter& inner) { proof.write(inner); });
}

Result<AccountProof> AccountProof::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  AccountProof ap;
  ap.address = crypto::Address{r.read_u64()};
  ap.height = r.read_i64();
  const std::uint8_t exists = r.read_u8();
  const std::uint8_t has_balance = r.read_u8();
  if (exists > 1 || has_balance > 1) {
    r.fail("proof.bad_statement", "flag byte is not 0 or 1");
  }
  ap.statement.exists = exists == 1;
  ap.statement.has_balance = has_balance == 1;
  ap.statement.balance = r.read_u64();
  ap.statement.nonce = r.read_u64();
  ap.commitment = read_commitment_sections(r);
  ap.proof = r.nested<crypto::MerkleMapProof>();
  return r.finish(std::move(ap), "proof.trailing_bytes");
}

Status verify_account_proof(const AccountProof& ap,
                            const crypto::Digest& state_root) {
  // 1. The served section breakdown must recombine to the trusted root.
  if (combine_commitment_root(ap.commitment) != state_root) {
    return Status::fail("proof.bad_commitment",
                        "commitment sections do not match the header state root");
  }
  // 2. The statement must be internally consistent with leaf existence: a
  //    leaf is materialized iff a balance entry is present or the nonce is
  //    nonzero (LedgerState::refresh_account_leaf).
  const AccountStatement& st = ap.statement;
  if (!st.exists && (st.has_balance || st.balance != 0 || st.nonce != 0)) {
    return Status::fail("proof.bad_statement",
                        "absent account must have zero balance and nonce");
  }
  if (st.exists && !st.has_balance && st.nonce == 0) {
    return Status::fail("proof.bad_statement",
                        "present account must have a balance entry or a nonce");
  }
  if (!st.has_balance && st.balance != 0) {
    return Status::fail("proof.bad_statement", "balance value without entry");
  }
  // 3. The Merkle path must prove the claimed leaf (or its absence) under
  //    the accounts root.
  const std::optional<crypto::Digest> leaf =
      st.exists ? std::optional<crypto::Digest>(account_leaf_digest(
                      st.has_balance, st.balance, st.nonce))
                : std::nullopt;
  if (!crypto::MerkleMap::verify(ap.commitment.accounts_root, ap.address.value,
                                 leaf, ap.proof)) {
    return Status::fail("proof.bad_path",
                        "Merkle path does not verify against accounts root");
  }
  return {};
}

// ------------------------------------------------------------- LightClient

Result<AccountStatement> LightClient::verify_account(
    const AccountProof& ap) const {
  const BlockHeader* header = header_at(ap.height);
  if (header == nullptr) {
    return make_error(errc::kLightUnknownHeight,
                      "no accepted header at height " + std::to_string(ap.height));
  }
  if (Status s = verify_account_proof(ap, header->state_root); !s.ok()) {
    return s.error();
  }
  return ap.statement;
}

}  // namespace mv::ledger
