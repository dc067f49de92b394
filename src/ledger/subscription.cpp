#include "ledger/subscription.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace mv::ledger {

// ------------------------------------------------------------- CommitPush

Bytes CommitPush::encode() const {
  ByteWriter w;
  w.u32(kCommitPushVersion);
  w.bytes(header.encode());
  w.u32(static_cast<std::uint32_t>(proofs.size()));
  for (const auto& p : proofs) w.bytes(p.encode());
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) {
    w.str(e.contract);
    w.str(e.key);
  }
  return w.take();
}

Result<CommitPush> CommitPush::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (const std::uint32_t version = r.read_u32(); version != kCommitPushVersion) {
    r.fail(errc::kSubBadVersion, "unknown CommitPush version " + std::to_string(version));
  }
  CommitPush push;
  push.header = r.nested<BlockHeader>();
  // Every element costs at least its 4-byte length prefix.
  const std::uint32_t n_proofs = r.count(4, errc::kSubBadPush);
  push.proofs.reserve(n_proofs);
  for (std::uint32_t i = 0; i < n_proofs; ++i) push.proofs.push_back(r.nested<AccountProof>());
  const std::uint32_t n_events = r.count(4, errc::kSubBadPush);
  push.events.reserve(n_events);
  // Braced initializers evaluate in order: contract, then key.
  for (std::uint32_t i = 0; i < n_events; ++i) {
    push.events.push_back(StoreEvent{r.read_str(), r.read_str()});
  }
  return r.finish(std::move(push), errc::kSubBadPush);
}

// -------------------------------------------------- SubscriptionPublisher

SubscriptionPublisher::SubscriptionPublisher(Blockchain& chain,
                                             net::SubscriptionServer& server)
    : chain_(chain), server_(server) {
  chain_.set_commit_hook([this](const Block& block, const StateUndo& undo) {
    on_commit(block, undo);
  });
}

void SubscriptionPublisher::on_commit(const Block& block,
                                      const StateUndo& undo) {
  CommitPush push;
  push.header = block.header;

  // Touched = every account whose balance or nonce the block wrote (the undo
  // delta is exactly that set); proofs go out only for the ones someone
  // watches. The tip state IS the block's post-state here — the hook runs
  // inside append(), after the chain recorded the tip's commitment — so
  // proofs are built directly, never through the chain's queue-routed query
  // path.
  const auto interests = server_.account_interests();
  if (!interests.empty()) {
    const StateCommitment& commitment = *chain_.commitment_at(block.header.height);
    for (const auto key : interests) {
      const bool touched = std::binary_search(
          undo.accounts.begin(), undo.accounts.end(), Account{crypto::Address{key}},
          [](const Account& a, const Account& b) { return a.addr < b.addr; });
      if (!touched) continue;
      push.proofs.push_back(make_account_proof(chain_.state(), commitment,
                                               crypto::Address{key},
                                               block.header.height));
    }
  }

  const auto store_interests = server_.store_interests();
  for (const auto& name : store_interests) {
    const auto it = undo.stores.find(name);
    if (it == undo.stores.end()) continue;
    for (const auto& [key, prior] : it->second.entries) {
      push.events.push_back(StoreEvent{name, key});
    }
  }

  // Published even with zero subscribers: the retained ring must stay
  // height-contiguous so a later subscriber can resync through this commit.
  server_.publish(block.header.height,
                  std::make_shared<const Bytes>(push.encode()));
  ++published_;
}

// ------------------------------------------------------- SubscriptionFeed

void SubscriptionFeed::subscribe(NodeId server) {
  server_ = server;
  net::SubscriptionRequest req;
  req.from_height = lc_.height();
  req.headers = true;
  req.accounts.reserve(config_.accounts.size());
  for (const auto addr : config_.accounts) req.accounts.push_back(addr.value);
  req.stores = config_.stores;
  (void)network_.send(self_, server_, net::kSubSubscribeReq, req.encode());
}

bool SubscriptionFeed::handle(const net::Message& msg) {
  if (msg.topic == net::kSubPush) {
    on_push(msg);
    return true;
  }
  if (msg.topic == net::kSubSubscribeResp) {
    on_subscribe_resp(msg);
    return true;
  }
  return false;
}

void SubscriptionFeed::on_push(const net::Message& msg) {
  if (msg.from != server_) return;
  // Every delivered push is acked, consumed or not: the ack is a liveness
  // signal draining the server's per-client backlog, and a gap is resolved
  // by resubscribing (which resets that backlog), not by going silent.
  (void)network_.send(self_, server_, net::kSubAck,
                      net::encode_sub_ack(lc_.height()));
  auto push = CommitPush::decode(msg.payload());
  if (!push.ok()) {
    reject(push.error());
    return;
  }
  const std::int64_t expected = lc_.height();
  const std::int64_t h = push.value().header.height;
  if (h < expected) return;  // replayed duplicate; already consumed
  if (h > expected) {
    // Pushes were lost between expected and h (shed fan-out, partition,
    // eviction). The header chain must stay contiguous, so nothing from this
    // push is usable; re-sync from our own height out of the retained ring.
    ++gaps_;
    ++resubscribes_;
    subscribe(server_);
    return;
  }
  if (Status s = lc_.accept_header(push.value().header); !s.ok()) {
    reject(s.error());  // forged or corrupted header: push channel adds no trust
    return;
  }
  ++consumed_;
  stale_ = false;
  if (on_header) on_header(push.value().header);
  if (on_account) {
    for (const auto& ap : push.value().proofs) {
      const bool watched =
          std::find_if(config_.accounts.begin(), config_.accounts.end(),
                       [&](crypto::Address a) { return a == ap.address; }) !=
          config_.accounts.end();
      if (!watched) continue;
      auto statement = lc_.verify_account(ap);
      if (!statement.ok()) {
        reject(statement.error());
        continue;
      }
      on_account(statement.value(), ap);
    }
  }
  if (on_store_event) {
    for (const auto& event : push.value().events) {
      const bool watched = std::find(config_.stores.begin(),
                                     config_.stores.end(),
                                     event.contract) != config_.stores.end();
      if (watched) on_store_event(event);
    }
  }
}

void SubscriptionFeed::on_subscribe_resp(const net::Message& msg) {
  if (msg.from != server_) return;
  const auto resp = net::SubscriptionResponse::decode(msg.payload());
  if (!resp.ok()) return;
  server_earliest_ = resp.value().earliest;
  if (resp.value().code == errc::kSubStaleFrom) {
    // The ring moved past us; pushes cannot rebuild the missing headers.
    // The owner must bootstrap from a snapshot and construct a fresh feed
    // anchored there.
    stale_ = true;
  }
}

}  // namespace mv::ledger
