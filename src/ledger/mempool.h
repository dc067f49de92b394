// Mempool: pending transactions awaiting inclusion, ordered fee-first.
//
// A pending transaction has one identity, its (sender, nonce) slot, and a
// slot holds at most one entry (replace-by-fee swaps it). A duplicate is the
// slot's occupant itself (an equal transaction), and a committed block leaves
// the pool by the slots it consumed. Every chain advance removes its block's
// slots and admission refuses consumed nonces, so no entry ever pends below
// its sender's committed nonce (self_check audits this).
//
// The slots and one index beside them:
//  - by_sender_: per-sender nonce-ordered queues (the slots themselves;
//    selection walks each sender's runnable prefix in nonce order, and an
//    expiry sweep walks every queue);
//  - by_fee_: (fee, seq) -> locator, so the lowest-fee victim for at-cap
//    eviction is begin().
// Admission, selection, removal and eviction are O(log n) per transaction;
// an expiry sweep walks the whole pool once.
//
// Unselected transactions no longer pend forever: each entry is stamped with
// the network tick at admission and sweep_expired() drops entries older than
// the configured TTL (a nonce-gapped tx whose predecessor never arrives, a
// fee too low to ever win selection). The pool is also size-capped: at
// capacity a new transaction must strictly out-pay the cheapest pending one,
// which it evicts ("mempool.full" otherwise).
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/digest_lru.h"
#include "ledger/state.h"
#include "ledger/transaction.h"

namespace mv::ledger {

struct MempoolConfig {
  /// Pending lifetime in ticks; entries with `now - admitted > ttl` are
  /// dropped by sweep_expired(). 0 disables expiry.
  Tick ttl = 600;
  /// Pool size cap; admission beyond it evicts the lowest-fee entry (or
  /// rejects the newcomer when it does not strictly out-pay it).
  std::size_t max_txs = 65536;
  /// Verified-signature memo shared with the replica's chain
  /// (ValidationConfig::sig_cache): a tx verified at admission is not
  /// re-verified when the block carrying it is assembled or validated.
  /// null = verify at every admission.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
};

/// Monotonic counters for pool churn (diagnostics / tests).
struct MempoolStats {
  std::uint64_t admitted = 0;          ///< entries accepted into the pool
  std::uint64_t replaced = 0;          ///< replace-by-fee substitutions
  std::uint64_t expired = 0;           ///< dropped by TTL sweep
  std::uint64_t evicted_low_fee = 0;   ///< displaced by a better-paying tx
  std::uint64_t rejected_full = 0;     ///< refused: pool full, fee too low
  std::uint64_t repaired = 0;          ///< dangling fee records discarded
};

class Mempool {
 public:
  explicit Mempool(MempoolConfig config = {}) : config_(config) {}

  /// Admit a transaction, stamped with admission tick `now`. Rejects bad
  /// signatures, the slot's own pending transaction ("mempool.duplicate"),
  /// and nonces already consumed by `state`. A pending transaction with the
  /// same sender and nonce is replaced only by a strictly higher fee
  /// ("mempool.underpriced" otherwise). At capacity the lowest-fee entry is
  /// evicted if the newcomer strictly out-pays it; otherwise the newcomer is
  /// rejected ("mempool.full").
  [[nodiscard]] Status add(Transaction tx, const LedgerState& state,
                           Tick now = 0);

  /// Drop entries admitted more than `ttl` ticks before `now` (those with
  /// `admitted <= now && now - admitted > ttl`). Returns the number dropped.
  /// O(n) per call, one walk of the sender queues; no-op when ttl == 0. When
  /// every surviving entry is stamped in the future (a replica clock that
  /// regressed), all of them are re-stamped to `now` so they expire normally
  /// instead of pending forever.
  std::size_t sweep_expired(Tick now);

  /// Select up to `max_txs` transactions for a block, highest fee first but
  /// respecting per-sender nonce order. Selected txs stay in the pool until
  /// `remove_included` is called (the block may still be rejected).
  [[nodiscard]] std::vector<Transaction> select(std::size_t max_txs,
                                                const LedgerState& state) const;

  /// Erase the (sender, nonce) slot of every transaction in a committed
  /// block, whatever variant pends there: the block consumed that nonce, so
  /// a replacement admitted since assembly can never be included either.
  void remove_included(const std::vector<Transaction>& txs);

  /// Invariant audit: every fee record resolves to a live entry whose key
  /// fields match, the fee index and the slots agree on the entry count, no
  /// sender queue is empty, and no entry's nonce is below its sender's nonce
  /// in `state` (the committed state the pool admits against). O(n log n);
  /// meant for tests and replay checks.
  [[nodiscard]] bool self_check(const LedgerState& state) const;

  [[nodiscard]] std::size_t size() const { return by_fee_.size(); }
  [[nodiscard]] bool empty() const { return by_fee_.empty(); }
  [[nodiscard]] const MempoolConfig& config() const { return config_; }
  [[nodiscard]] const MempoolStats& stats() const { return stats_; }

 private:
  struct Entry {
    Transaction tx;
    std::uint64_t seq = 0;  ///< admission order (FIFO fee tie-break)
    Tick admitted = 0;      ///< network tick at admission (TTL anchor)
  };
  /// nonce -> entry, ordered so the runnable prefix is a forward walk.
  using SenderQueue = std::map<std::uint64_t, Entry>;

  struct Locator {
    std::uint64_t sender = 0;
    std::uint64_t nonce = 0;
  };

  /// Erase one entry and its fee record; drops the sender's queue when it
  /// empties.
  void erase_entry(std::uint64_t sender, SenderQueue::iterator it);
  /// Resolve a locator defensively (find(), never operator[]) and erase the
  /// entry it names. Returns false — touching nothing — when the locator is
  /// stale (no such sender, or no such nonce in its queue); at-cap eviction
  /// then discards the dangling fee record instead of erasing through end().
  bool erase_located(const Locator& loc);

  MempoolConfig config_;
  MempoolStats stats_;
  std::unordered_map<std::uint64_t, SenderQueue> by_sender_;
  /// (fee, seq) -> locator; begin() is the cheapest (oldest first among ties).
  std::map<std::pair<std::uint64_t, std::uint64_t>, Locator> by_fee_;
  std::uint64_t seq_ = 0;
};

}  // namespace mv::ledger
