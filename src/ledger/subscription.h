// Ledger glue for the subscription read path (net/subscription.h).
//
// The transport hub is payload-agnostic; this module gives pushes their
// meaning. Every committed block becomes one CommitPush: the signed header,
// a prove_account proof for each *touched and subscribed* account, and a
// (contract, key) event for each write into a subscribed store. The
// publisher hangs off Blockchain's commit hook, serializes the push once,
// and hands it to the SubscriptionServer, which shares the one buffer across
// every subscriber.
//
// Trust argument (DESIGN.md §11): a push proves itself with the same chain
// as a one-shot query — the header carries the proposer signature and hash
// link the light client already checks, and each account proof verifies
// against that header's state_root exactly like a prove_account response
// (§8). The push channel adds reach, not trust: a lying server cannot forge
// a push a SubscriptionFeed would accept.
//
// SubscriptionFeed is the client: a LightClient that consumes pushes instead
// of polling. Contiguity does the loss detection — a push whose height is
// ahead of the next expected header means pushes were lost (shed fan-out,
// partition, eviction), and the feed resubscribes from its own height, which
// the server serves out of its retained ring; if the ring has moved past the
// feed's height, the feed is marked stale and must bootstrap from a snapshot
// (ledger/snapshot_sync.h) before resuming.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ledger/chain.h"
#include "ledger/light_client.h"
#include "net/subscription.h"

namespace mv::ledger {

/// One write into a subscribed contract store (e.g. a governance proposal
/// book): which contract, which key. Subscribers re-read the value through
/// a proof-carrying query if they need it verified; the event is a wake-up,
/// not an authenticated value.
struct StoreEvent {
  std::string contract;
  std::string key;

  [[nodiscard]] bool operator==(const StoreEvent&) const = default;
};

inline constexpr std::uint32_t kCommitPushVersion = 1;

/// The unit the chain pushes per commit. Serialized once per commit; the
/// server fans the same buffer out to every subscriber.
struct CommitPush {
  BlockHeader header;
  std::vector<AccountProof> proofs;  ///< touched ∩ subscribed accounts
  std::vector<StoreEvent> events;    ///< writes into subscribed stores

  [[nodiscard]] Bytes encode() const;
  /// Strict versioned decode (rejects unknown versions, trailing bytes).
  [[nodiscard]] static Result<CommitPush> decode(std::span<const std::uint8_t> bytes);
};

/// Server side: bridges Blockchain commits into SubscriptionServer pushes.
/// Construction installs the commit hook; the publisher must outlive the
/// chain's use of it (or the hook be cleared first). Proof construction
/// reads the chain's tip state directly — it runs inside the commit, where
/// the tip is the just-committed block, and must not re-enter the chain's
/// queue-routed query path.
class SubscriptionPublisher {
 public:
  SubscriptionPublisher(Blockchain& chain, net::SubscriptionServer& server);

  /// Pushes built (== commits observed since construction).
  [[nodiscard]] std::uint64_t published() const { return published_; }

 private:
  void on_commit(const Block& block, const StateUndo& undo);

  Blockchain& chain_;
  net::SubscriptionServer& server_;
  std::uint64_t published_ = 0;
};

/// What a feed watches. Headers are always consumed (they are the trust
/// anchor); accounts/stores select which proof/event callbacks fire.
struct SubscriptionFeedConfig {
  LightClientConfig light_client;
  std::vector<crypto::Address> accounts;
  std::vector<std::string> stores;
};

/// Client side: a push-fed light client. Drive handle() from the node's
/// network handler; callbacks fire only for verified data (on_account's
/// proof has been checked against the accepted header).
class SubscriptionFeed {
 public:
  SubscriptionFeed(net::Network& network, SubscriptionFeedConfig config)
      : network_(network),
        config_(std::move(config)),
        lc_(config_.light_client) {}

  void bind(NodeId self) { self_ = self; }

  /// Subscribe (or resubscribe) to `server`, asking for a resync from this
  /// feed's own next height, so no header is ever skipped.
  void subscribe(NodeId server);

  /// Dispatch one delivered message; true when the topic was ours.
  bool handle(const net::Message& msg);

  [[nodiscard]] const LightClient& light_client() const { return lc_; }
  /// Next header height the feed needs.
  [[nodiscard]] std::int64_t next_height() const { return lc_.height(); }
  /// True when the server's ring moved past this feed: pushes cannot resume
  /// until the feed bootstraps from a snapshot and is rebuilt at that height.
  [[nodiscard]] bool stale() const { return stale_; }
  /// Earliest height the server still retains (valid once stale()).
  [[nodiscard]] std::int64_t server_earliest() const { return server_earliest_; }

  std::function<void(const BlockHeader&)> on_header;
  std::function<void(const AccountStatement&, const AccountProof&)> on_account;
  std::function<void(const StoreEvent&)> on_store_event;

  [[nodiscard]] std::uint64_t pushes_consumed() const { return consumed_; }
  [[nodiscard]] std::uint64_t gaps_detected() const { return gaps_; }
  [[nodiscard]] std::uint64_t resubscribes() const { return resubscribes_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  /// Why the newest rejected push was refused (a header.* code for a forged
  /// header); an empty code before any rejection.
  [[nodiscard]] const Error& last_rejection() const { return last_rejection_; }

 private:
  void on_push(const net::Message& msg);
  void on_subscribe_resp(const net::Message& msg);
  void reject(Error why) {
    ++rejected_;
    last_rejection_ = std::move(why);
  }

  net::Network& network_;
  SubscriptionFeedConfig config_;
  LightClient lc_;
  NodeId self_;
  NodeId server_;
  bool stale_ = false;
  std::int64_t server_earliest_ = -1;
  std::uint64_t consumed_ = 0;      ///< pushes applied at the expected height
  std::uint64_t gaps_ = 0;          ///< pushes ahead of it (loss detected)
  std::uint64_t resubscribes_ = 0;  ///< gap-triggered re-subscriptions
  std::uint64_t rejected_ = 0;      ///< malformed/unverifiable pushes
  Error last_rejection_;
};

}  // namespace mv::ledger
