#include "ledger/transaction.h"

namespace mv::ledger {

Bytes TransferBody::encode() const {
  ByteWriter w;
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<TransferBody> TransferBody::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto to = r.u64();
  if (!to.ok()) return to.error();
  auto amount = r.u64();
  if (!amount.ok()) return amount.error();
  return TransferBody{crypto::Address{to.value()}, amount.value()};
}

Bytes AuditRecordBody::encode() const {
  ByteWriter w;
  w.str(data_category);
  w.str(purpose);
  w.u64(subject);
  w.str(pet_applied);
  return w.take();
}

Result<AuditRecordBody> AuditRecordBody::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto category = r.str();
  if (!category.ok()) return category.error();
  auto purpose = r.str();
  if (!purpose.ok()) return purpose.error();
  auto subject = r.u64();
  if (!subject.ok()) return subject.error();
  auto pet = r.str();
  if (!pet.ok()) return pet.error();
  return AuditRecordBody{category.value(), purpose.value(), subject.value(),
                         pet.value()};
}

namespace {

/// Everything covered by the signature, in wire order. Works against any
/// writer with the ByteWriter field interface (ByteWriter, HashWriter).
template <typename Writer>
void write_signing_fields(Writer& w, const Transaction& tx) {
  crypto::write_key(w, tx.sender_pub);
  w.u64(tx.nonce);
  w.u8(static_cast<std::uint8_t>(tx.kind));
  w.str(tx.contract);
  w.str(tx.method);
  w.bytes(tx.payload);
  w.u64(tx.fee);
}

std::size_t signing_fields_size(const Transaction& tx) {
  return 8 + 8 + 1 + (4 + tx.contract.size()) + (4 + tx.method.size()) +
         (4 + tx.payload.size()) + 8;
}

}  // namespace

Bytes Transaction::signing_bytes() const {
  ByteWriter w;
  w.reserve(signing_fields_size(*this));
  write_signing_fields(w, *this);
  return w.take();
}

Bytes Transaction::encode() const {
  ByteWriter w;
  w.reserve(signing_fields_size(*this) + 16);
  write_signing_fields(w, *this);
  crypto::write_signature(w, sig);
  return w.take();
}

Result<Transaction> Transaction::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Transaction tx;
  if (Status s = crypto::read_key(r, tx.sender_pub); !s.ok()) return s.error();
  auto nonce = r.u64();
  if (!nonce.ok()) return nonce.error();
  tx.nonce = nonce.value();
  auto kind = r.u8();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(TxKind::kContractCall)) {
    return make_error("tx.bad_kind", "unknown transaction kind");
  }
  tx.kind = static_cast<TxKind>(kind.value());
  auto contract = r.str();
  if (!contract.ok()) return contract.error();
  tx.contract = std::move(contract).value();
  auto method = r.str();
  if (!method.ok()) return method.error();
  tx.method = std::move(method).value();
  auto payload = r.bytes();
  if (!payload.ok()) return payload.error();
  tx.payload = std::move(payload).value();
  auto fee = r.u64();
  if (!fee.ok()) return fee.error();
  tx.fee = fee.value();
  if (Status s = crypto::read_signature(r, tx.sig); !s.ok()) return s.error();
  if (!r.exhausted()) {
    return make_error("tx.trailing_bytes", "unparsed trailing data");
  }
  return tx;
}

crypto::Digest Transaction::digest() const {
  // Streams the exact encode() byte sequence; no intermediate buffer.
  crypto::HashWriter w;
  write_signing_fields(w, *this);
  crypto::write_signature(w, sig);
  return w.digest();
}

bool Transaction::signature_valid() const {
  return crypto::verify(sender_pub, signing_bytes(), sig);
}

namespace {
Transaction sign_tx(Transaction tx, const crypto::Wallet& from, Rng& rng) {
  tx.sig = from.sign(tx.signing_bytes(), rng);
  return tx;
}
}  // namespace

Transaction make_transfer(const crypto::Wallet& from, std::uint64_t nonce,
                          crypto::Address to, std::uint64_t amount,
                          std::uint64_t fee, Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kTransfer;
  tx.payload = TransferBody{to, amount}.encode();
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

Transaction make_audit_record(const crypto::Wallet& from, std::uint64_t nonce,
                              AuditRecordBody body, std::uint64_t fee,
                              Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kAuditRecord;
  tx.payload = body.encode();
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

Transaction make_contract_call(const crypto::Wallet& from, std::uint64_t nonce,
                               std::string contract, std::string method,
                               Bytes args, std::uint64_t fee, Rng& rng) {
  Transaction tx;
  tx.sender_pub = from.public_key();
  tx.nonce = nonce;
  tx.kind = TxKind::kContractCall;
  tx.contract = std::move(contract);
  tx.method = std::move(method);
  tx.payload = std::move(args);
  tx.fee = fee;
  return sign_tx(std::move(tx), from, rng);
}

}  // namespace mv::ledger
