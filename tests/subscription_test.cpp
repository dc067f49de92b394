// Subscription read-path tests: CommitPush/request codecs, the end-to-end
// push pipeline (commit hook -> publisher -> zero-copy fan-out -> verifying
// feed), lifecycle edge cases (unsubscribe with pushes in flight, late
// subscriber resync, slow-subscriber eviction, stale rejection), gap
// recovery through the retained ring after partitions and load shedding,
// the mixed-flood isolation guarantee (consensus never sheds while pushes
// do), and the ClientApi facade's error taxonomy and wire envelope.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ledger/chain.h"
#include "ledger/client_api.h"
#include "ledger/subscription.h"
#include "net/subscription.h"

namespace mv::ledger {
namespace {

/// KV contract: "put" writes the key named by the payload — gives blocks
/// store writes so store-event pushes have something to carry.
class KvContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "kv"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& arg) const override {
    const std::string key(arg.begin(), arg.end());
    if (method == "put") {
      ctx.put(key, Bytes{0xCD, static_cast<std::uint8_t>(key.size())});
      return {};
    }
    return Status::fail("kv.bad_method", method);
  }
};

struct SubFixture {
  Rng rng{20260809};
  crypto::Wallet v0{rng};
  crypto::Wallet v1{rng};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  std::shared_ptr<ContractRegistry> contracts =
      std::make_shared<ContractRegistry>();
  ChainConfig config;
  LedgerState genesis;
  SimClock clock;
  net::Network net{clock, Rng(7),
                   net::LinkParams{.base_latency = 1.0, .jitter = 0.0,
                                   .drop_rate = 0.0}};

  SubFixture() {
    contracts->install(std::make_shared<KvContract>());
    config.validators = {v0.public_key(), v1.public_key()};
    config.state_retention = 8;
    genesis.credit(alice.address(), 1'000'000);
    genesis.credit(bob.address(), 500'000);
  }

  [[nodiscard]] Blockchain make_chain() {
    return Blockchain(config, contracts, genesis);
  }

  [[nodiscard]] LightClientConfig lc_config(const Blockchain& chain) const {
    return LightClientConfig{config.validators, chain.genesis_hash()};
  }

  /// Every block transfers from alice (touches her balance and nonce) and
  /// writes one kv key (a store event).
  void grow(Blockchain& chain, int blocks) {
    for (int b = 0; b < blocks; ++b) {
      const std::int64_t h = chain.height();
      const crypto::Wallet& proposer = (h % 2 == 0) ? v0 : v1;
      std::vector<Transaction> txs;
      txs.push_back(make_transfer(alice, chain.state().nonce(alice.address()),
                                  bob.address(), 3, 1, rng));
      const std::string key = "k" + std::to_string(h % 3);
      txs.push_back(make_contract_call(bob, chain.state().nonce(bob.address()),
                                       "kv", "put",
                                       Bytes(key.begin(), key.end()), 1, rng));
      ASSERT_TRUE(chain.append(chain.assemble(proposer, txs, h, rng)).ok())
          << "block " << h;
    }
  }
};

/// Full push stack: chain + publisher + server on one node, verifying feed
/// on another.
struct FeedHarness {
  SubFixture& f;
  Blockchain& chain;
  net::SubscriptionServer& server;
  SubscriptionPublisher publisher;
  SubscriptionFeed feed;
  NodeId server_node;
  NodeId feed_node;

  FeedHarness(SubFixture& fixture, Blockchain& c, net::SubscriptionServer& s)
      : f(fixture),
        chain(c),
        server(s),
        publisher(chain, server),
        feed(f.net, SubscriptionFeedConfig{f.lc_config(chain),
                                           {f.alice.address()},
                                           {"kv"}}) {
    server_node =
        f.net.add_node([this](const net::Message& m) { server.handle(m); });
    feed_node =
        f.net.add_node([this](const net::Message& m) { feed.handle(m); });
    server.bind(server_node);
    feed.bind(feed_node);
  }
};

// ---------------------------------------------------------------- codecs

TEST(SubscriptionWire, RequestAndResponseCodecsAreStrict) {
  net::SubscriptionRequest req;
  req.from_height = 4;
  req.headers = true;
  req.accounts = {1, 0xFFFF'FFFF'FFFF'FFFFull, 42};
  req.stores = {"kv", "governance"};
  const Bytes bytes = req.encode();
  const auto decoded = net::SubscriptionRequest::decode(bytes);
  ASSERT_TRUE(decoded.ok());
  const net::SubscriptionRequest& back = decoded.value();
  EXPECT_EQ(back.version, net::kSubWireVersion);
  EXPECT_EQ(back.from_height, 4);
  EXPECT_TRUE(back.headers);
  EXPECT_EQ(back.accounts, req.accounts);
  EXPECT_EQ(back.stores, req.stores);

  Bytes trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(net::SubscriptionRequest::decode(trailing).error().code, errc::kSubMalformed);

  // A forged element count larger than the remaining payload is rejected
  // before any allocation.
  ByteWriter w;
  w.u32(net::kSubWireVersion);
  w.i64(0);
  w.u8(1);
  w.u32(0x00FF'FFFF);
  EXPECT_EQ(net::SubscriptionRequest::decode(w.take()).error().code, errc::kSubMalformed);

  net::SubscriptionResponse resp;
  resp.code = errc::kSubStaleFrom;
  resp.earliest = 9;
  resp.tip = 12;
  const auto resp_decoded = net::SubscriptionResponse::decode(resp.encode());
  ASSERT_TRUE(resp_decoded.ok());
  const net::SubscriptionResponse& resp_back = resp_decoded.value();
  EXPECT_FALSE(resp_back.ok());
  EXPECT_EQ(resp_back.code, errc::kSubStaleFrom);
  EXPECT_EQ(resp_back.earliest, 9);
  EXPECT_EQ(resp_back.tip, 12);
}

TEST(SubscriptionWire, CommitPushCodecRoundTripsAndRejectsMutations) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  f.grow(chain, 2);

  CommitPush push;
  push.header = chain.block_at(1)->header;
  auto proof = chain.prove_account(f.alice.address(), 1);
  ASSERT_TRUE(proof.ok());
  push.proofs.push_back(proof.value());
  push.events.push_back(StoreEvent{"kv", "k1"});

  const Bytes bytes = push.encode();
  auto back = CommitPush::decode(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().header.hash(), push.header.hash());
  ASSERT_EQ(back.value().proofs.size(), 1u);
  EXPECT_EQ(back.value().proofs[0].address, f.alice.address());
  EXPECT_EQ(back.value().events, push.events);
  // Decode/encode is the identity on canonical pushes.
  EXPECT_EQ(back.value().encode(), bytes);

  Bytes bad_version = bytes;
  bad_version[0] ^= 0xFF;
  const auto rejected = CommitPush::decode(bad_version);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, errc::kSubBadVersion);

  Bytes trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(CommitPush::decode(trailing).ok());

  Bytes truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(CommitPush::decode(truncated).ok());
}

// ------------------------------------------------------------ happy path

TEST(SubscriptionStream, CommitsArriveAsVerifiedHeadersProofsAndEvents) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  net::SubscriptionServer server(f.net);
  FeedHarness h(f, chain, server);

  int headers = 0;
  int accounts = 0;
  int events = 0;
  std::uint64_t last_balance = 0;
  h.feed.on_header = [&](const BlockHeader&) { ++headers; };
  h.feed.on_account = [&](const AccountStatement& st, const AccountProof& ap) {
    ++accounts;
    EXPECT_EQ(ap.address, f.alice.address());
    last_balance = st.balance;
  };
  h.feed.on_store_event = [&](const StoreEvent& e) {
    ++events;
    EXPECT_EQ(e.contract, "kv");
  };

  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();
  ASSERT_TRUE(server.subscribed(h.feed_node));

  f.grow(chain, 5);
  f.net.run_until_idle();

  // Every commit became one push the feed verified: contiguous headers, a
  // proof for the watched (touched) account each block, store events.
  EXPECT_EQ(headers, 5);
  EXPECT_EQ(accounts, 5);
  EXPECT_EQ(events, 5);
  EXPECT_EQ(h.feed.next_height(), chain.height());
  EXPECT_EQ(h.feed.light_client().tip_hash(), chain.tip_hash());
  EXPECT_EQ(h.feed.rejected(), 0u);
  EXPECT_EQ(h.feed.gaps_detected(), 0u);
  EXPECT_EQ(last_balance, chain.state().balance(f.alice.address()));

  const auto stats = server.stats();
  EXPECT_EQ(stats.commits_published, 5u);
  EXPECT_EQ(stats.pushes_sent, 5u);
  EXPECT_EQ(stats.acks, 5u);
  EXPECT_EQ(stats.evicted_slow, 0u);
  EXPECT_EQ(stats.subscribers, 1u);
}

// -------------------------------------------------------------- lifecycle

TEST(SubscriptionLifecycle, LateSubscriberResyncsFromRetainedRing) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  net::SubscriptionServer server(f.net);
  FeedHarness h(f, chain, server);

  // Commits happen before anyone subscribes; the ring retains their pushes.
  f.grow(chain, 3);
  f.net.run_until_idle();

  int headers = 0;
  h.feed.on_header = [&](const BlockHeader&) { ++headers; };
  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();

  // The subscribe itself replayed heights 0..2 out of the ring.
  EXPECT_EQ(headers, 3);
  EXPECT_EQ(h.feed.next_height(), chain.height());
  EXPECT_EQ(server.stats().resync_pushes, 3u);

  // And the live path continues seamlessly after the resync.
  f.grow(chain, 2);
  f.net.run_until_idle();
  EXPECT_EQ(headers, 5);
  EXPECT_EQ(h.feed.light_client().tip_hash(), chain.tip_hash());
}

TEST(SubscriptionLifecycle, SubscribeBelowTheRingIsRejectedStale) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  net::SubscriptionServer server(f.net,
                                 net::SubscriptionConfig{.per_client_cap = 64,
                                                         .retain = 2});
  FeedHarness h(f, chain, server);

  f.grow(chain, 5);
  f.net.run_until_idle();

  // The ring holds only heights 3..4; a feed needing height 0 cannot be
  // resynced and must bootstrap from a snapshot instead.
  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();
  EXPECT_TRUE(h.feed.stale());
  EXPECT_EQ(h.feed.server_earliest(), 3);
  EXPECT_EQ(h.feed.next_height(), 0);
  EXPECT_EQ(server.subscriber_count(), 0u);
  EXPECT_EQ(server.stats().rejected_stale, 1u);
}

TEST(SubscriptionLifecycle, UnsubscribeWithPushInFlightAndLateAckAreSafe) {
  SubFixture f;
  net::SubscriptionServer server(f.net);
  std::vector<net::Message> inbox;
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId sub_node =
      f.net.add_node([&](const net::Message& m) { inbox.push_back(m); });
  server.bind(server_node);

  net::SubscriptionRequest req;
  req.headers = true;
  ASSERT_TRUE(f.net.send(sub_node, server_node, net::kSubSubscribeReq,
                         req.encode()));
  f.net.run_until_idle();
  ASSERT_TRUE(server.subscribed(sub_node));

  // A push goes into flight, and the unsubscribe races it.
  const auto payload = std::make_shared<const Bytes>(Bytes{0xAA, 0xBB});
  server.publish(0, payload);
  ASSERT_TRUE(f.net.send(sub_node, server_node, net::kSubUnsubscribeReq,
                         Bytes{}));
  f.net.run_until_idle();

  // The in-flight push still arrived; the registration is gone.
  const auto pushes = [&] {
    int n = 0;
    for (const auto& m : inbox) n += m.topic == net::kSubPush ? 1 : 0;
    return n;
  };
  EXPECT_EQ(pushes(), 1);
  EXPECT_EQ(server.subscriber_count(), 0u);
  EXPECT_EQ(server.stats().unsubscribed, 1u);

  // The late ack for that push is ignored, not misapplied.
  ASSERT_TRUE(f.net.send(sub_node, server_node, net::kSubAck,
                         net::encode_sub_ack(0)));
  f.net.run_until_idle();
  EXPECT_EQ(server.stats().acks, 0u);

  // And later commits no longer reach the departed subscriber.
  server.publish(1, payload);
  f.net.run_until_idle();
  EXPECT_EQ(pushes(), 1);

  // Server-side drop of a node without a subscription says so.
  const Status s = server.drop(sub_node);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, errc::kSubNotSubscribed);
}

TEST(SubscriptionLifecycle, SlowSubscriberIsEvictedAtThePerClientCap) {
  SubFixture f;
  net::SubscriptionServer server(f.net,
                                 net::SubscriptionConfig{.per_client_cap = 2,
                                                         .retain = 8});
  std::vector<net::Message> inbox;
  const NodeId server_node =
      f.net.add_node([&](const net::Message& m) { server.handle(m); });
  const NodeId sub_node =
      f.net.add_node([&](const net::Message& m) { inbox.push_back(m); });
  server.bind(server_node);

  net::SubscriptionRequest req;
  req.headers = true;
  ASSERT_TRUE(f.net.send(sub_node, server_node, net::kSubSubscribeReq,
                         req.encode()));
  f.net.run_until_idle();

  // The subscriber never acks: two pushes fill its allowance, the third
  // publish evicts it instead of growing an unbounded backlog.
  const auto payload = std::make_shared<const Bytes>(Bytes{0x01});
  server.publish(0, payload);
  server.publish(1, payload);
  server.publish(2, payload);
  f.net.run_until_idle();

  const auto stats = server.stats();
  EXPECT_EQ(stats.pushes_sent, 2u);
  EXPECT_EQ(stats.evicted_slow, 1u);
  EXPECT_EQ(server.subscriber_count(), 0u);

  // Eviction is not a ban: a resubscribe (the recovered client's move)
  // reinstates it and resyncs the missed heights from the ring.
  req.from_height = 0;
  ASSERT_TRUE(f.net.send(sub_node, server_node, net::kSubSubscribeReq,
                         req.encode()));
  f.net.run_until_idle();
  EXPECT_EQ(server.subscriber_count(), 1u);
  EXPECT_EQ(server.stats().resync_pushes, 3u);
}

// ---------------------------------------------------------- gap recovery

TEST(SubscriptionGap, PartitionLosesPushesButContinuityRecoversFromRing) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  net::SubscriptionServer server(f.net);
  FeedHarness h(f, chain, server);

  int headers = 0;
  h.feed.on_header = [&](const BlockHeader&) { ++headers; };
  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();
  f.grow(chain, 1);
  f.net.run_until_idle();
  ASSERT_EQ(headers, 1);

  // Partition the feed; two commits' pushes are lost on the floor.
  f.net.set_group(h.feed_node, 1);
  f.grow(chain, 2);
  f.net.run_until_idle();
  f.net.heal();
  EXPECT_EQ(headers, 1);

  // The next live push arrives ahead of the feed's height: gap detected,
  // resubscribe, and the ring replays the missed commits in order.
  f.grow(chain, 1);
  f.net.run_until_idle();
  EXPECT_GE(h.feed.gaps_detected(), 1u);
  EXPECT_GE(h.feed.resubscribes(), 1u);
  EXPECT_EQ(headers, 4);
  EXPECT_EQ(h.feed.next_height(), chain.height());
  EXPECT_EQ(h.feed.light_client().tip_hash(), chain.tip_hash());
  EXPECT_EQ(h.feed.rejected(), 0u);
}

// ------------------------------------------------------------ mixed flood

TEST(SubscriptionFlood, PushesShedGracefullyWhileConsensusNeverSheds) {
  SubFixture f;
  Blockchain chain = f.make_chain();

  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kClientQuery).max_depth = 1;
  JobQueue queue(qconfig);
  net::SubscriptionServer server(f.net, net::SubscriptionConfig{}, &queue);
  FeedHarness h(f, chain, server);

  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();
  ASSERT_TRUE(server.subscribed(h.feed_node));

  // Pin the single worker, then fill the client lane's depth allowance, so
  // every subsequent fan-out submit is shed at admission — a deterministic
  // stand-in for a subscriber storm saturating the lane.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(queue.submit(JobClass::kClientQuery, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  while (queue.stats().of(JobClass::kClientQuery).depth > 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(queue.submit(JobClass::kClientQuery, [] {}));

  // The flood: commits keep coming, and consensus-class work interleaves.
  std::atomic<int> consensus_done{0};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.submit(JobClass::kConsensus, [&] { ++consensus_done; }));
    f.grow(chain, 1);
  }
  EXPECT_EQ(server.stats().commits_shed, 4u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  queue.drain();
  f.net.run_until_idle();

  // The isolation guarantee: every shed was a subscriber push, none was
  // consensus.
  const auto qstats = queue.stats();
  EXPECT_EQ(qstats.of(JobClass::kConsensus).shed(), 0u);
  EXPECT_EQ(consensus_done.load(), 4);
  EXPECT_GT(qstats.of(JobClass::kClientQuery).shed(), 0u);

  // Shed pushes never broke continuity: the next live push exposes the gap
  // and the retained ring (which kept every commit, shed or not) resyncs
  // the feed to the tip with a contiguous header chain.
  f.grow(chain, 1);
  queue.drain();
  f.net.run_until_idle();
  EXPECT_GE(h.feed.gaps_detected(), 1u);
  EXPECT_EQ(h.feed.next_height(), chain.height());
  EXPECT_EQ(h.feed.light_client().tip_hash(), chain.tip_hash());
}

// -------------------------------------------------------------- ClientApi

TEST(ClientApiFacade, TypedReadsMapSubsystemErrorsIntoApiTaxonomy) {
  SubFixture f;
  f.config.state_retention = 2;
  Blockchain chain = f.make_chain();
  f.grow(chain, 6);
  ClientApi api(chain);

  EXPECT_EQ(api.tip_height(), 5);

  auto header = api.header(1);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().hash(), chain.block_at(1)->header.hash());
  EXPECT_EQ(api.header(99).error().code, errc::kApiBadHeight);
  EXPECT_EQ(api.header(-1).error().code, errc::kApiBadHeight);

  auto proof = api.account_proof(f.alice.address(), 5);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(verify_account_proof(proof.value(),
                                   chain.block_at(5)->header.state_root)
                  .ok());
  // Retention is 2: height 0 is readable as a header but stale as state.
  EXPECT_EQ(api.account_proof(f.alice.address(), 0).error().code,
            errc::kApiStaleHeight);
  EXPECT_EQ(api.account_proof(f.alice.address(), 99).error().code,
            errc::kApiBadHeight);
  EXPECT_EQ(api.snapshot_at(0).error().code, errc::kApiStaleHeight);
  EXPECT_TRUE(api.snapshot_at(5).ok());

  // Without a subscription service the whole admin surface says so.
  EXPECT_EQ(api.subscription_stats().error().code,
            errc::kApiNoSubscriptionService);
  EXPECT_EQ(api.drop_subscriber(NodeId{}).error().code,
            errc::kApiNoSubscriptionService);

  // The retry contract is part of the taxonomy.
  EXPECT_TRUE(errc::is_transient(errc::kApiOverloaded));
  EXPECT_TRUE(errc::is_transient(errc::kSnapshotServerBusy));
  EXPECT_FALSE(errc::is_transient(errc::kApiStaleHeight));
  EXPECT_FALSE(errc::is_transient(errc::kApiBadHeight));
  EXPECT_FALSE(errc::is_transient(errc::kMempoolUnderpriced));
}

TEST(ClientApiFacade, SubscriptionAdminSurface) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  net::SubscriptionServer server(f.net);
  FeedHarness h(f, chain, server);
  ClientApi api(chain, &server);

  h.feed.subscribe(h.server_node);
  f.net.run_until_idle();

  auto stats = api.subscription_stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().subscribers, 1u);

  EXPECT_EQ(api.drop_subscriber(h.server_node).error().code,
            errc::kApiUnknownSubscription);
  EXPECT_TRUE(api.drop_subscriber(h.feed_node).ok());
  EXPECT_EQ(server.subscriber_count(), 0u);
}

namespace {
struct Parsed {
  bool ok = false;
  Bytes payload;
  std::string code;
};

Parsed parse_response(const Bytes& response) {
  Parsed out;
  ByteReader r(response);
  const auto version = r.u32();
  const auto ok = r.u8();
  EXPECT_TRUE(version.ok() && ok.ok());
  EXPECT_EQ(version.value(), kClientApiVersion);
  out.ok = ok.value() == 1;
  if (out.ok) {
    auto payload = r.bytes();
    EXPECT_TRUE(payload.ok());
    out.payload = std::move(payload).value();
  } else {
    auto code = r.str();
    auto message = r.str();
    EXPECT_TRUE(code.ok() && message.ok());
    out.code = std::move(code).value();
  }
  EXPECT_TRUE(r.exhausted());
  return out;
}
}  // namespace

TEST(ClientApiFacade, DispatchEnvelopeRoundTripsAndRejectsBadRequests) {
  SubFixture f;
  Blockchain chain = f.make_chain();
  f.grow(chain, 3);
  ClientApi api(chain);

  {  // tip
    ByteWriter w;
    w.u32(kClientApiVersion);
    w.u8(static_cast<std::uint8_t>(ClientRequest::kTip));
    const Parsed resp = parse_response(api.dispatch(w.take()));
    ASSERT_TRUE(resp.ok);
    ByteReader r(resp.payload);
    EXPECT_EQ(r.i64().value(), 2);
  }
  {  // header
    ByteWriter w;
    w.u32(kClientApiVersion);
    w.u8(static_cast<std::uint8_t>(ClientRequest::kHeader));
    w.i64(1);
    const Parsed resp = parse_response(api.dispatch(w.take()));
    ASSERT_TRUE(resp.ok);
    auto header = BlockHeader::decode(resp.payload);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value().hash(), chain.block_at(1)->header.hash());
  }
  {  // account proof, verified against the served header's state root
    ByteWriter w;
    w.u32(kClientApiVersion);
    w.u8(static_cast<std::uint8_t>(ClientRequest::kAccountProof));
    w.u64(f.alice.address().value);
    w.i64(2);
    const Parsed resp = parse_response(api.dispatch(w.take()));
    ASSERT_TRUE(resp.ok);
    auto proof = AccountProof::decode(resp.payload);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(verify_account_proof(proof.value(),
                                     chain.block_at(2)->header.state_root)
                    .ok());
    // Written into the envelope in place, byte for byte the proof's encode().
    EXPECT_EQ(resp.payload,
              chain.prove_account(f.alice.address(), 2).value().encode());
  }
  {  // version skew is an explicit answer, not silence
    ByteWriter w;
    w.u32(kClientApiVersion + 1);
    w.u8(static_cast<std::uint8_t>(ClientRequest::kTip));
    const Parsed resp = parse_response(api.dispatch(w.take()));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errc::kApiBadVersion);
  }
  {  // malformed: truncated, trailing, unknown kind, subsystem error mapped
    EXPECT_EQ(parse_response(api.dispatch(Bytes{})).code, errc::kApiBadRequest);
    ByteWriter trailing;
    trailing.u32(kClientApiVersion);
    trailing.u8(static_cast<std::uint8_t>(ClientRequest::kTip));
    trailing.u8(0);
    EXPECT_EQ(parse_response(api.dispatch(trailing.take())).code,
              errc::kApiBadRequest);
    ByteWriter unknown;
    unknown.u32(kClientApiVersion);
    unknown.u8(200);
    EXPECT_EQ(parse_response(api.dispatch(unknown.take())).code,
              errc::kApiBadRequest);
    ByteWriter bad_height;
    bad_height.u32(kClientApiVersion);
    bad_height.u8(static_cast<std::uint8_t>(ClientRequest::kHeader));
    bad_height.i64(42);
    EXPECT_EQ(parse_response(api.dispatch(bad_height.take())).code,
              errc::kApiBadHeight);
  }
}

}  // namespace
}  // namespace mv::ledger
