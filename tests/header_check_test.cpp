// The one header check (ledger/header_check.h), seen from every caller.
//
// The same four forged headers — a skipped height, a broken prev_hash link,
// an off-schedule proposer with a valid signature, and a flipped signature —
// go to Blockchain::append, Blockchain::validate, a LightClient, a
// SubscriptionFeed push, the snapshot anchor re-check of init_from_snapshot
// and a BeaconFollower, and each caller refuses them with the same header.*
// code. The snapshot anchor has no parent to link to, so it sees only the
// schedule and signature rows, under "chain.bad_anchor" naming the cause; a
// feed reads a push off the expected height as loss, not forgery, and
// resubscribes instead of rejecting it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ledger/chain.h"
#include "ledger/header_check.h"
#include "ledger/light_client.h"
#include "ledger/shard.h"
#include "ledger/subscription.h"
#include "net/subscription.h"

namespace mv::ledger {
namespace {

enum class Forgery { kHeight, kParent, kProposer, kSignature };

struct Row {
  Forgery forgery;
  const char* name;
  const char* code;
};

constexpr Row kRows[] = {
    {Forgery::kHeight, "skipped height", "header.bad_height"},
    {Forgery::kParent, "broken prev_hash", "header.bad_parent"},
    {Forgery::kProposer, "off-schedule proposer", "header.wrong_proposer"},
    {Forgery::kSignature, "flipped signature", "header.bad_signature"},
};

/// Forge `h` (a BlockHeader or a BeaconHeader) as `row` says. `validators`
/// are the two wallets of the round-robin schedule; the off-schedule row
/// re-signs with the one not scheduled at h.height, so its signature is
/// valid.
template <typename Header>
Header forge(Header h, Forgery forgery, const crypto::Wallet (&validators)[2],
             Rng& rng) {
  switch (forgery) {
    case Forgery::kHeight:
      h.height += 1;
      break;
    case Forgery::kParent:
      h.prev_hash[0] ^= 1;
      break;
    case Forgery::kProposer: {
      const crypto::Wallet& other =
          validators[(proposer_index(h.height, 2) + 1) % 2];
      h.proposer_pub = other.public_key();
      h.proposer_sig = other.sign(h.signing_bytes(), rng);
      break;
    }
    case Forgery::kSignature:
      h.proposer_sig.s ^= 1;
      break;
  }
  return h;
}

struct Fixture {
  Rng rng{0x4eade4};
  crypto::Wallet validators[2] = {crypto::Wallet(rng), crypto::Wallet(rng)};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  ChainConfig config;
  LedgerState genesis;

  Fixture() {
    config.validators = {validators[0].public_key(), validators[1].public_key()};
    genesis.credit(alice.address(), 1'000'000);
    genesis.credit(bob.address(), 1'000'000);
  }

  [[nodiscard]] Blockchain make_chain() const {
    return Blockchain(config, std::make_shared<ContractRegistry>(), genesis);
  }

  /// The block `chain`'s scheduled proposer builds next: one transfer.
  [[nodiscard]] Block next_block(const Blockchain& chain) {
    const crypto::Wallet& proposer =
        validators[proposer_index(chain.height(), 2)];
    const auto tx = make_transfer(alice, chain.state().nonce(alice.address()),
                                  bob.address(), 5, 1, rng);
    return chain.assemble(proposer, {tx}, chain.height(), rng);
  }
};

/// A SubscriptionFeed fed pushes by hand, without a server behind them.
struct PushedFeed {
  SimClock clock;
  net::Network net{clock, Rng(5), net::LinkParams{1.0, 0.0, 0.0}};
  SubscriptionFeed feed;
  NodeId server;

  explicit PushedFeed(LightClientConfig config)
      : feed(net, SubscriptionFeedConfig{std::move(config), {}, {}}) {
    server = net.add_node([](const net::Message&) {});
    feed.bind(net.add_node([this](const net::Message& m) { feed.handle(m); }));
    feed.subscribe(server);
  }

  void push(const BlockHeader& header) {
    net::Message msg;
    msg.from = server;
    msg.topic = net::kSubPush;
    msg.payload_buf = std::make_shared<const Bytes>(CommitPush{header, {}, {}}.encode());
    ASSERT_TRUE(feed.handle(msg));
  }
};

TEST(HeaderCheck, EveryCallerRefusesTheSameForgeriesWithTheSameCode) {
  Fixture f;
  Blockchain source = f.make_chain();
  for (int b = 0; b < 3; ++b) ASSERT_TRUE(source.append(f.next_block(source)).ok());
  const Block honest = f.next_block(source);  // height 3, not yet appended
  const BlockHeader& anchor = source.blocks().back().header;  // height 2
  auto snap = source.export_snapshot(anchor.height);
  ASSERT_TRUE(snap.ok());

  // Every follower holds heights 0..2 and expects `honest` next.
  Blockchain replica = f.make_chain();
  LightClient lc({f.config.validators, source.genesis_hash()});
  PushedFeed feed({f.config.validators, source.genesis_hash()});
  for (const Block& b : source.blocks()) {
    ASSERT_TRUE(replica.append(b).ok());
    ASSERT_TRUE(lc.accept_header(b.header).ok());
    feed.push(b.header);
  }
  ASSERT_EQ(feed.feed.next_height(), 3);

  // A two-shard ledger whose beacons the same two validators sign.
  ShardConfig shard_config;
  shard_config.num_shards = 2;
  shard_config.validators = f.config.validators;
  ShardedLedger sharded(shard_config, f.genesis);
  BeaconFollower beacons({shard_config.validators, sharded.beacon_genesis_hash()});
  for (std::int64_t r = 0; r < 3; ++r) {
    auto beacon = sharded.commit_round(f.validators[proposer_index(r, 2)], r);
    ASSERT_TRUE(beacon.ok());
    ASSERT_TRUE(beacons.accept_header(beacon.value()).ok());
  }
  auto next_beacon = sharded.commit_round(f.validators[proposer_index(3, 2)], 3);
  ASSERT_TRUE(next_beacon.ok());

  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);
    Block forged = honest;
    forged.header = forge(honest.header, row.forgery, f.validators, f.rng);

    EXPECT_EQ(replica.append(forged).error().code, row.code);
    EXPECT_EQ(replica.validate(forged).error().code, row.code);
    EXPECT_EQ(lc.accept_header(forged.header).error().code, row.code);
    EXPECT_EQ(beacons
                  .accept_header(
                      forge(next_beacon.value(), row.forgery, f.validators, f.rng))
                  .error()
                  .code,
              row.code);

    const std::uint64_t rejected = feed.feed.rejected();
    const std::uint64_t gaps = feed.feed.gaps_detected();
    feed.push(forged.header);
    if (row.forgery == Forgery::kHeight) {
      EXPECT_EQ(feed.feed.gaps_detected(), gaps + 1);  // loss, resubscribed
      EXPECT_EQ(feed.feed.rejected(), rejected);
    } else {
      EXPECT_EQ(feed.feed.rejected(), rejected + 1);
      EXPECT_EQ(feed.feed.last_rejection().code, row.code);
    }

    if (row.forgery == Forgery::kProposer || row.forgery == Forgery::kSignature) {
      Blockchain fresh = f.make_chain();
      const Status s = fresh.init_from_snapshot(
          snap.value().manifest, snap.value().chunks,
          forge(anchor, row.forgery, f.validators, f.rng));
      EXPECT_EQ(s.error().code, "chain.bad_anchor");
      EXPECT_NE(s.error().message.find(row.code), std::string::npos)
          << s.error().message;
      EXPECT_EQ(fresh.height(), 0);
    }
  }

  // No forgery moved anyone; the honest header still extends every chain.
  EXPECT_EQ(replica.height(), 3);
  EXPECT_EQ(replica.state().commitment(), *source.commitment_at(2));
  EXPECT_EQ(feed.feed.next_height(), 3);
  ASSERT_TRUE(replica.validate(honest).ok());
  ASSERT_TRUE(replica.append(honest).ok());
  ASSERT_TRUE(lc.accept_header(honest.header).ok());
  feed.push(honest.header);
  EXPECT_EQ(feed.feed.next_height(), 4);
  ASSERT_TRUE(beacons.accept_header(next_beacon.value()).ok());
  Blockchain installed = f.make_chain();
  EXPECT_TRUE(installed
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      anchor)
                  .ok());
}

TEST(HeaderCheck, EmptyValidatorSetIsAnErrorNotADivision) {
  Fixture f;
  Blockchain chain = f.make_chain();
  const Block block = f.next_block(chain);
  LightClient lc({{}, chain.genesis_hash()});
  EXPECT_EQ(lc.accept_header(block.header).error().code, "header.no_validators");
  EXPECT_EQ(lc.height(), 0);
}

}  // namespace
}  // namespace mv::ledger
