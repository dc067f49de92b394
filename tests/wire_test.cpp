// Wire identity: one value of every public wire type, built from a fixed
// seed, must encode to bytes whose SHA-256 is pinned here, and decoding those
// bytes then re-encoding must reproduce them exactly. Golden traces pin only
// transaction bytes and commitment roots; these cases pin the proof,
// manifest, header, receipt, push and subscription layouts as well, so a
// codec refactor that moves a single byte fails here.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "crypto/merkle_map.h"
#include "ledger/beacon.h"
#include "ledger/block.h"
#include "ledger/light_client.h"
#include "ledger/shard.h"
#include "ledger/snapshot.h"
#include "ledger/subscription.h"
#include "net/subscription.h"

namespace mv::ledger {
namespace {

/// One value of each wire type. Every field is derived from one Rng seed in
/// a fixed order, so the encodings are reproducible byte for byte.
struct WireSet {
  Transaction transfer;
  Transaction audit;
  Transaction call;
  BlockHeader header;
  Block block;
  crypto::MerkleMapProof membership;
  crypto::MerkleMapProof terminal;  ///< non-membership ending at another leaf
  AccountProof account;
  SnapshotManifest manifest;
  BeaconHeader beacon;
  CrossShardReceipt receipt;
  Bytes receipt_bytes;
  Bytes receipt_proof_bytes;
  XShardMintArgs mint;
  CommitPush push;
  net::SubscriptionRequest request;
  net::SubscriptionResponse response;
  Bytes payload;  ///< encode_snapshot_payload of the state behind `manifest`

  WireSet() {
    Rng rng(20220706);
    const crypto::Wallet wallet(rng);
    transfer = make_transfer(wallet, 1, crypto::Address{0x1234}, 500, 2, rng);
    audit = make_audit_record(
        wallet, 2, AuditRecordBody{"gaze", "avatar_animation", 77, "laplace(eps=1.0)"},
        1, rng);
    call = make_contract_call(wallet, 3, "dao", "vote", Bytes{1, 2, 3}, 4, rng);

    LedgerState state;
    for (std::uint64_t i = 0; i < 300; ++i) {
      state.credit(crypto::Address{0x10000 + i * 7919}, 1 + i);
    }
    state.set_nonce(crypto::Address{0x10000}, 9);
    state.append_audit(StoredAuditRecord{wallet.address(), AuditRecordBody{
        "spatial_map", "occlusion", 5, "none"}, 4});
    state.materialize_store("dao");
    state.store_put("dao", "proposal/1", Bytes{7, 7, 7});
    const StateCommitment commitment = state.commitment();

    header.height = 5;
    header.prev_hash = crypto::sha256(std::string_view("parent"));
    block.txs = {transfer, audit, call};
    header.tx_root = Block::compute_tx_root(Block::tx_digests(block.txs));
    header.state_root = commitment.root;
    header.timestamp = 99;
    header.proposer_pub = wallet.public_key();
    header.proposer_sig = wallet.sign(header.signing_bytes(), rng);
    block.header = header;

    crypto::MerkleMap map;
    for (std::uint64_t i = 0; i < 200; ++i) {
      map.put(i * 104729, crypto::sha256(std::to_string(i)));
    }
    membership = map.prove(104729 * 17);
    for (std::uint64_t key = 1; !terminal.has_terminal_leaf; key += 2) {
      terminal = map.prove(key);
    }

    const crypto::Address addr{0x10000 + 3 * 7919};
    account.address = addr;
    account.height = header.height;
    account.statement.exists = true;
    account.statement.has_balance = true;
    account.statement.balance = state.find_balance(addr).value_or(0);
    account.statement.nonce = state.nonce(addr);
    account.commitment = commitment;
    account.proof = state.prove_account(addr);

    manifest = build_snapshot(state, header.height, 256).manifest;
    payload = encode_snapshot_payload(state);

    beacon.height = 2;
    beacon.prev_hash = crypto::sha256(std::string_view("beacon parent"));
    beacon.timestamp = 100;
    beacon.shards = {ShardAnchor{commitment.root, map.root()},
                     ShardAnchor{header.tx_root, crypto::Digest{}}};
    beacon.beacon_root = combine_beacon_root(beacon.shards);
    beacon.proposer_pub = wallet.public_key();
    beacon.proposer_sig = wallet.sign(beacon.signing_bytes(), rng);

    receipt = CrossShardReceipt{7, 0, 1, wallet.address(), crypto::Address{0x77}, 250};
    receipt_bytes = receipt.encode();
    crypto::MerkleMap receipts;
    receipts.put(receipt.id, crypto::sha256(receipt_bytes));
    receipts.put(receipt.id + 1, crypto::sha256(std::string_view("next")));
    receipt_proof_bytes = receipts.prove(receipt.id).encode();
    mint.beacon_height = beacon.height;
    mint.source_shard = receipt.source_shard;
    mint.receipt = receipt_bytes;
    mint.proof = receipt_proof_bytes;

    push.header = header;
    push.proofs = {account};
    push.events = {StoreEvent{"dao", "proposal/1"}};

    request.from_height = 3;
    request.headers = true;
    request.accounts = {addr.value, 0x77};
    request.stores = {"dao"};
    response.earliest = 2;
    response.tip = 9;
  }
};

const WireSet& wire_set() {
  static const WireSet set;
  return set;
}

/// Pin `value`'s encoding to `want` (hex SHA-256) and require decode then
/// re-encode to reproduce it.
template <typename T>
void expect_wire(const T& value, const std::string& want) {
  const Bytes wire = value.encode();
  EXPECT_EQ(crypto::to_hex(crypto::sha256(wire)), want);
  const auto decoded = T::decode(wire);
  ASSERT_TRUE(static_cast<bool>(decoded));
  EXPECT_EQ(decoded.value().encode(), wire);
}

TEST(WireIdentity, Transactions) {
  const WireSet& w = wire_set();
  expect_wire(w.transfer,
              "739ba0a0ba2e52a4167a4dcc49f6dbe3646ca6895d4819957bbf31441f82815d");
  expect_wire(w.audit,
              "5dbac4daa97c9720ba6de804d3ae9dd40d044ed5bd3928f3b8d5ec82681513f7");
  expect_wire(w.call,
              "343dae63fb37a1f5eb562ebef0d4598e991fefc44c34e86d2132c264270c4ad0");
}

TEST(WireIdentity, BlockHeaderAndBlock) {
  const WireSet& w = wire_set();
  expect_wire(w.header,
              "ab40a6c9343810ab3bb7ccc92583ff7d5e36b8432eadfadb6b503e33e4dac985");
  expect_wire(w.block,
              "ead060b6c2ce1167da83bc50346bea157d3997a7b946b08d5d321c10c154408d");
}

TEST(WireIdentity, MerkleMapProofs) {
  const WireSet& w = wire_set();
  ASSERT_FALSE(w.membership.has_terminal_leaf);
  ASSERT_TRUE(w.terminal.has_terminal_leaf);
  expect_wire(w.membership,
              "eeb0dd230999a9b137cffb340da6313e752b86aabf899b7facdba80a67b2537b");
  expect_wire(w.terminal,
              "df92ef881835e365b3ae585b31e4bc54aef1c6c6f8ca1b965745410e282603e7");
  EXPECT_EQ(w.membership.encoded_size(), w.membership.encode().size());
  EXPECT_EQ(w.terminal.encoded_size(), w.terminal.encode().size());
}

TEST(WireIdentity, AccountProof) {
  expect_wire(wire_set().account,
              "2682d5294391a073744e51971f92bc961885165bf7f5652bb7fed1e6191d8a4b");
  EXPECT_EQ(wire_set().account.encoded_size(), wire_set().account.encode().size());
}

TEST(WireIdentity, SnapshotManifest) {
  expect_wire(wire_set().manifest,
              "f5cb81d39fbf38a6ef800d1ba20abd3676a484718c564e45f6c27196c94bc809");
}

TEST(WireIdentity, BeaconHeader) {
  expect_wire(wire_set().beacon,
              "e823020f5487e5e7f2b3710405510a91de119e6005c9722d2308429a4321f55a");
}

TEST(WireIdentity, CrossShard) {
  const WireSet& w = wire_set();
  expect_wire(w.receipt,
              "73539cd6ecaa69d2d2026438f904b76b76edcdd6e1e0f72191864fd724b9aa62");
  expect_wire(w.mint,
              "d1e3c89ad68dd097e9cd7c8e46b42c586b0d74e1ab4bfdd9442d8aba31a40cb4");
}

TEST(WireIdentity, CommitPush) {
  expect_wire(wire_set().push,
              "8c278d311af694b2c8e1a45197c4799894d0071d7d3c92cb89353106d536e30c");
}

TEST(WireIdentity, Subscription) {
  const WireSet& w = wire_set();
  expect_wire(w.request,
              "8b4dda3a6d7ab7a78edaf59eb423268c9fb502aea336d93a940f61b2c1831b2f");
  expect_wire(w.response,
              "d0157821df88f63aaa6181e64cae2f86b2637a92b4942cb52fc5ff72315be933");
}

/// One decode outcome: "ok" or the error code. The subscription codecs are
/// pinned on acceptance alone (`with_code` false): they carried no error
/// code when these digests were recorded.
template <typename T>
std::string outcome(const Result<T>& decoded, bool with_code) {
  if (decoded.ok()) return "ok";
  return with_code ? decoded.error().code : "rejected";
}
template <typename T>
std::string outcome(const std::optional<T>& decoded, bool /*with_code*/) {
  return decoded.has_value() ? "ok" : "rejected";
}

/// SHA-256 over the decode outcomes of every strict prefix of `wire`, then of
/// `wire` with each single byte flipped (^ 0xFF), in that order. A codec
/// refactor that moves any rejection to another code, or turns one into an
/// acceptance, changes the digest.
template <typename Decode>
std::string outcomes_digest(const Bytes& wire, Decode&& decode,
                            bool with_code = true) {
  std::string seq;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    seq += outcome(decode(std::span(wire).first(len)), with_code);
    seq += '\n';
  }
  Bytes flipped = wire;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    flipped[i] ^= 0xFF;
    seq += outcome(decode(std::span<const std::uint8_t>(flipped)), with_code);
    seq += '\n';
    flipped[i] ^= 0xFF;
  }
  return crypto::to_hex(crypto::sha256(std::string_view(seq)));
}

template <typename T>
std::string type_outcomes(const T& value, bool with_code = true) {
  return outcomes_digest(
      value.encode(),
      [](std::span<const std::uint8_t> b) { return T::decode(b); }, with_code);
}

TEST(WireIdentity, DecodeOutcomes) {
  const WireSet& w = wire_set();
  EXPECT_EQ(type_outcomes(w.transfer),
            "0b33446630b3a27670864dc96e9b4e2391a1b1317a1d67d82a727d09b6a863cf");
  EXPECT_EQ(type_outcomes(w.audit),
            "6861b7f9bf19f9b9a971bc0ca62d3b8afdb43c9cfa2f2fd6d54e4222f67da174");
  EXPECT_EQ(type_outcomes(w.call),
            "97a88e1a938af2f130c6e91a9e8d4a45b658f32714ca4a472e534840473797bb");
  EXPECT_EQ(type_outcomes(w.header),
            "fbdfe432c6a83ee7e28dae715f23b1421089ecdd8a78877e55aee36d93b98095");
  EXPECT_EQ(type_outcomes(w.block),
            "af114dde29b8a625b804e1061fd12f5e7c3ed5e4e0507049ce2fcf0ccab53c8a");
  EXPECT_EQ(type_outcomes(w.membership),
            "2f23fc5b47de5254e926e0a86143333df9ec0a0417a9d973e120e8c8cbbe5451");
  EXPECT_EQ(type_outcomes(w.terminal),
            "85e3dbb9a38f7b1c50affd303c25ad6d3c7ab1b9ddfc0ac43270df7d12d30050");
  EXPECT_EQ(type_outcomes(w.account),
            "0ac1ac6e3c395473f14541ccbccbda55ccc8c974afa061713fa3d96f94f4abae");
  EXPECT_EQ(type_outcomes(w.manifest),
            "1832e56824c9e1c8890ca3c005d86847776d5b8d52778bb46d7dc32d84dab6f2");
  EXPECT_EQ(type_outcomes(w.beacon),
            "b044ad23e2d8a068e1e069dc43e84dafc09ab06f19870ebb29f1bfc7a74edb62");
  EXPECT_EQ(type_outcomes(w.receipt),
            "3d97018a417ae0cc0baff40d2b360fc48cb23c9c3b239de121f69bebd7ba4e42");
  EXPECT_EQ(type_outcomes(w.mint),
            "a5737d33106c457d57a8a8fe62737eaa7e1ae798b2f0e7c749aafa7e046a0ba1");
  EXPECT_EQ(type_outcomes(w.push),
            "ba56fca82b22f85b2454de8ba13a1a6938f31759c0581f1e8159fb38eae1c09c");
  EXPECT_EQ(type_outcomes(w.request, /*with_code=*/false),
            "86d76fe10030af73570405b6fdb62c7bcfa7743df9b9edf6c54e24ef8c50b051");
  EXPECT_EQ(type_outcomes(w.response, /*with_code=*/false),
            "9df107b0d0ea04c1dbe03f4de011d67fc78dc7a615cd67e70ccf24eb98357a5a");
  EXPECT_EQ(outcomes_digest(w.payload,
                            [](std::span<const std::uint8_t> b) {
                              return decode_snapshot_payload(b);
                            }),
            "e44c88503f15bf9f3baf16d1ee90f6d52cf4e14302b718e3bf27b313d87c6982");
}

}  // namespace
}  // namespace mv::ledger
