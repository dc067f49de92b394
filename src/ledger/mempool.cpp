#include "ledger/mempool.h"

#include <queue>

namespace mv::ledger {

Status Mempool::add(Transaction tx, const LedgerState& state, Tick now) {
  // The digest keys the sig cache: a hit skips verification (the digest
  // covers the signature bytes), and a verified miss is remembered so block
  // validation will not re-verify this tx.
  const crypto::Digest digest = tx.digest();
  if (config_.sig_cache != nullptr &&
      config_.sig_cache->contains_and_touch(digest)) {
    // vouched for
  } else if (!tx.signature_valid()) {
    return Status::fail(errc::kMempoolBadSignature, "rejected at admission");
  } else if (config_.sig_cache != nullptr) {
    config_.sig_cache->insert(digest);
  }
  // The digest covers sender and nonce, so the only pending transaction that
  // can share it is the occupant of the same slot. Field-wise equality is
  // the same test without a second hash: the digest hashes the encoding,
  // which writes every field.
  const crypto::Address sender = tx.sender();
  const std::uint64_t nonce = tx.nonce;
  Entry* pending = nullptr;
  if (const auto sit = by_sender_.find(sender.value); sit != by_sender_.end()) {
    if (const auto it = sit->second.find(nonce); it != sit->second.end()) {
      pending = &it->second;
    }
  }
  if (pending != nullptr && pending->tx == tx) {
    return Status::fail(errc::kMempoolDuplicate, "transaction already pending");
  }
  if (nonce < state.nonce(sender)) {
    return Status::fail(errc::kMempoolStaleNonce, "nonce already consumed");
  }
  if (pending != nullptr) {
    // Same sender+nonce already pending: replace-by-fee, strictly higher.
    if (tx.fee <= pending->tx.fee) {
      return Status::fail(
          errc::kMempoolUnderpriced,
          "pending tx with this nonce pays an equal or higher fee");
    }
    by_fee_.erase({pending->tx.fee, pending->seq});
    *pending = Entry{std::move(tx), seq_++, now};
    by_fee_.emplace(std::pair{pending->tx.fee, pending->seq},
                    Locator{sender.value, nonce});
    ++stats_.replaced;
    return {};
  }
  if (config_.max_txs != 0 && by_fee_.size() >= config_.max_txs) {
    // Full: the newcomer must strictly out-pay the cheapest pending entry,
    // which it displaces. (Evicting before inserting keeps the queue
    // reference below valid — the victim may be the newcomer's own sender.)
    // A stale fee record (defensive: the indexes are maintained together,
    // but a dangling locator must not turn into erase(end())) is discarded
    // and the next-cheapest entry tried.
    while (true) {
      const auto cheapest = by_fee_.begin();
      if (cheapest == by_fee_.end()) break;
      if (cheapest->first.first >= tx.fee) {
        ++stats_.rejected_full;
        return Status::fail(errc::kMempoolFull,
                            "pool at capacity and fee does not beat the floor");
      }
      const Locator victim = cheapest->second;
      if (!erase_located(victim)) {
        by_fee_.erase(cheapest);
        ++stats_.repaired;
        continue;
      }
      ++stats_.evicted_low_fee;
      break;
    }
  }
  auto& queue = by_sender_[sender.value];
  const auto it = queue.emplace(nonce, Entry{std::move(tx), seq_++, now}).first;
  by_fee_.emplace(std::pair{it->second.tx.fee, it->second.seq},
                  Locator{sender.value, nonce});
  ++stats_.admitted;
  return {};
}

std::size_t Mempool::sweep_expired(Tick now) {
  if (config_.ttl == 0) return 0;
  // One walk drops every expired entry. When the survivors are all stamped
  // after `now` (a replica clock that regressed), they re-stamp to `now` so
  // the TTL applies from the regressed clock instead of never; a survivor
  // stamped at or before `now` leaves every stamp as it is.
  std::size_t dropped = 0;
  bool all_future = true;
  for (auto sit = by_sender_.begin(); sit != by_sender_.end();) {
    SenderQueue& queue = sit->second;
    for (auto it = queue.begin(); it != queue.end();) {
      const Tick admitted = it->second.admitted;
      if (admitted <= now && now - admitted > config_.ttl) {
        by_fee_.erase({it->second.tx.fee, it->second.seq});
        it = queue.erase(it);
        ++dropped;
      } else {
        all_future = all_future && admitted > now;
        ++it;
      }
    }
    sit = queue.empty() ? by_sender_.erase(sit) : std::next(sit);
  }
  if (all_future) {
    for (auto& [sender, queue] : by_sender_) {
      for (auto& [nonce, entry] : queue) entry.admitted = now;
    }
  }
  stats_.expired += dropped;
  return dropped;
}

std::vector<Transaction> Mempool::select(std::size_t max_txs,
                                         const LedgerState& state) const {
  // Heap of per-sender heads: each sender contributes its next runnable tx
  // (nonce exactly the one the ledger expects); picking a head advances that
  // sender's queue iterator when the following nonce is contiguous. Cost is
  // O(senders + picked · log senders) — no repeated full-pool passes and no
  // re-hashing (the fee/seq ordering key lives in the entry).
  struct Head {
    std::uint64_t fee = 0;
    std::uint64_t seq = 0;
    const SenderQueue* queue = nullptr;
    SenderQueue::const_iterator it;
    bool operator<(const Head& other) const {
      if (fee != other.fee) return fee < other.fee;  // max-heap: higher fee first
      return seq > other.seq;                        // then FIFO
    }
  };
  std::priority_queue<Head> heads;
  for (const auto& [sender, queue] : by_sender_) {
    const std::uint64_t expected = state.nonce(crypto::Address{sender});
    const auto it = queue.lower_bound(expected);
    if (it == queue.end() || it->first != expected) continue;  // gap: not runnable
    heads.push(Head{it->second.tx.fee, it->second.seq, &queue, it});
  }
  std::vector<Transaction> out;
  out.reserve(std::min(max_txs, size()));
  while (!heads.empty() && out.size() < max_txs) {
    const Head head = heads.top();
    heads.pop();
    out.push_back(head.it->second.tx);
    const auto next = std::next(head.it);
    if (next != head.queue->end() && next->first == head.it->first + 1) {
      heads.push(Head{next->second.tx.fee, next->second.seq, head.queue, next});
    }
  }
  return out;
}

void Mempool::erase_entry(std::uint64_t sender, SenderQueue::iterator it) {
  const auto sit = by_sender_.find(sender);
  by_fee_.erase({it->second.tx.fee, it->second.seq});
  sit->second.erase(it);
  if (sit->second.empty()) by_sender_.erase(sit);
}

bool Mempool::erase_located(const Locator& loc) {
  const auto sit = by_sender_.find(loc.sender);
  if (sit == by_sender_.end()) return false;
  const auto it = sit->second.find(loc.nonce);
  if (it == sit->second.end()) return false;
  erase_entry(loc.sender, it);
  return true;
}

void Mempool::remove_included(const std::vector<Transaction>& txs) {
  for (const auto& tx : txs) {
    erase_located(Locator{tx.sender().value, tx.nonce});
  }
}

bool Mempool::self_check(const LedgerState& state) const {
  std::size_t total = 0;
  for (const auto& [sender, queue] : by_sender_) {
    if (queue.empty()) return false;  // empty queues are erased eagerly
    // Lowest pending nonce: at or above the committed one, never stale.
    if (queue.begin()->first < state.nonce(crypto::Address{sender})) return false;
    total += queue.size();
  }
  if (by_fee_.size() != total) return false;
  const auto resolve = [this](const Locator& loc) -> const Entry* {
    const auto sit = by_sender_.find(loc.sender);
    if (sit == by_sender_.end()) return nullptr;
    const auto it = sit->second.find(loc.nonce);
    return it == sit->second.end() ? nullptr : &it->second;
  };
  for (const auto& [key, loc] : by_fee_) {
    const Entry* e = resolve(loc);
    if (e == nullptr || e->tx.fee != key.first || e->seq != key.second) return false;
  }
  return true;
}

}  // namespace mv::ledger
