// Strict decoding of transaction and peer input: one byte after a
// well-formed transfer body, audit body, contract argument list or exported
// block stream is refused, never silently ignored. Each case first shows the
// well-formed input accepted, so the refusal is the trailing byte's alone.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dao/contract.h"
#include "ledger/chain.h"
#include "moderation/contract.h"
#include "nft/contract.h"
#include "reputation/contract.h"

namespace mv {
namespace {

Bytes with_trailing_byte(Bytes bytes) {
  bytes.push_back(0);
  return bytes;
}

struct Fixture {
  Rng rng{3301};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  std::shared_ptr<ledger::ContractRegistry> contracts =
      std::make_shared<ledger::ContractRegistry>();
  ledger::LedgerState state;

  Fixture() {
    contracts->install(std::make_shared<nft::NftContract>());
    contracts->install(std::make_shared<dao::DaoContract>(dao::DaoContractConfig{}));
    moderation::ModerationContractConfig mod;
    mod.moderator = bob.address();
    contracts->install(std::make_shared<moderation::ModerationContract>(mod));
    contracts->install(std::make_shared<reputation::ReputationContract>());
    state.credit(alice.address(), 1000);
    state.credit(bob.address(), 1000);
  }

  /// A transaction of `kind` from alice carrying `payload` verbatim.
  [[nodiscard]] ledger::Transaction signed_tx(ledger::TxKind kind, Bytes payload) {
    ledger::Transaction tx;
    tx.sender_pub = alice.public_key();
    tx.nonce = state.nonce(alice.address());
    tx.kind = kind;
    tx.payload = std::move(payload);
    tx.fee = 1;
    tx.sig = alice.sign(tx.signing_bytes(), rng);
    return tx;
  }

  Status apply(const ledger::Transaction& tx) { return state.apply(tx, *contracts, 0); }

  Status call(const std::string& contract, const std::string& method, Bytes args) {
    return apply(ledger::make_contract_call(alice, state.nonce(alice.address()),
                                            contract, method, std::move(args), 0, rng));
  }
};

TEST(StrictDecode, TransferBodyWithATrailingByteIsRejected) {
  Fixture f;
  const Bytes body = ledger::TransferBody{f.bob.address(), 10}.encode();
  const Status refused =
      f.apply(f.signed_tx(ledger::TxKind::kTransfer, with_trailing_byte(body)));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "tx.trailing_bytes");
  EXPECT_EQ(f.state.balance(f.bob.address()), 1000u);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 0u);

  ASSERT_TRUE(f.apply(f.signed_tx(ledger::TxKind::kTransfer, body)).ok());
  EXPECT_EQ(f.state.balance(f.bob.address()), 1010u);
}

TEST(StrictDecode, AuditBodyWithATrailingByteIsRejected) {
  Fixture f;
  const Bytes body =
      ledger::AuditRecordBody{"gaze", "avatar_animation", 7, "none"}.encode();
  const Status refused =
      f.apply(f.signed_tx(ledger::TxKind::kAuditRecord, with_trailing_byte(body)));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, "tx.trailing_bytes");
  EXPECT_TRUE(f.state.audit_log().empty());

  ASSERT_TRUE(f.apply(f.signed_tx(ledger::TxKind::kAuditRecord, body)).ok());
  EXPECT_EQ(f.state.audit_log().size(), 1u);
}

TEST(StrictDecode, NftArgumentsWithATrailingByteAreBadArgs) {
  Fixture f;
  const Bytes args = nft::NftContract::encode_mint("ipfs://hat", 100);
  EXPECT_EQ(f.call("nft", "mint", with_trailing_byte(args)).error().code,
            errc::kNftBadArgs);
  ASSERT_TRUE(f.call("nft", "mint", args).ok());
  const Bytes transfer = nft::NftContract::encode_transfer(0, f.bob.address());
  EXPECT_EQ(f.call("nft", "transfer", with_trailing_byte(transfer)).error().code,
            errc::kNftBadArgs);
  ASSERT_TRUE(f.call("nft", "transfer", transfer).ok());
}

TEST(StrictDecode, DaoArgumentsWithATrailingByteAreBadArgs) {
  Fixture f;
  ASSERT_TRUE(f.call("dao", "join", {}).ok());
  const Bytes propose = dao::DaoContract::encode_propose("fund the plaza");
  EXPECT_EQ(f.call("dao", "propose", with_trailing_byte(propose)).error().code,
            errc::kDaoBadArgs);
  ASSERT_TRUE(f.call("dao", "propose", propose).ok());
  const Bytes vote = dao::DaoContract::encode_vote(0, 0);
  EXPECT_EQ(f.call("dao", "vote", with_trailing_byte(vote)).error().code,
            errc::kDaoBadArgs);
  ASSERT_TRUE(f.call("dao", "vote", vote).ok());
}

TEST(StrictDecode, ModerationArgumentsWithATrailingByteAreBadArgs) {
  Fixture f;
  const Bytes report =
      moderation::ModerationContract::encode_report(f.bob.address(), 1, "spam");
  EXPECT_EQ(f.call("moderation", "report", with_trailing_byte(report)).error().code,
            errc::kModBadArgs);
  ASSERT_TRUE(f.call("moderation", "report", report).ok());
}

TEST(StrictDecode, ReputationArgumentsWithATrailingByteAreBadArgs) {
  Fixture f;
  const Bytes rate = reputation::ReputationContract::encode_rate(f.bob.address(), 1);
  EXPECT_EQ(f.call("reputation", "rate", with_trailing_byte(rate)).error().code,
            errc::kRepBadArgs);
  ASSERT_TRUE(f.call("reputation", "rate", rate).ok());
}

TEST(StrictDecode, ImportBlocksRefusesATrailingByte) {
  Fixture f;
  crypto::Wallet v0{f.rng};
  ledger::ChainConfig config;
  config.validators = {v0.public_key()};
  ledger::Blockchain source(config, f.contracts, f.state);
  for (std::int64_t h = 0; h < 2; ++h) {
    const auto tx = ledger::make_transfer(f.alice, static_cast<std::uint64_t>(h),
                                          f.bob.address(), 5, 1, f.rng);
    ASSERT_TRUE(source.append(source.assemble(v0, {tx}, h, f.rng)).ok());
  }
  const Bytes archive = source.export_blocks_from(0);

  ledger::Blockchain trailing(config, f.contracts, f.state);
  const auto refused = trailing.import_blocks(with_trailing_byte(archive));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, errc::kChainTrailing);

  ledger::Blockchain exact(config, f.contracts, f.state);
  const auto imported = exact.import_blocks(archive);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 2u);
  EXPECT_EQ(exact.tip_hash(), source.tip_hash());
}

}  // namespace
}  // namespace mv
