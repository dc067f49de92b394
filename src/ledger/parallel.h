// Block application: the one code path that turns a block's transactions
// into a post-state.
//
// apply_block applies the transactions one by one, in block order, on the
// caller's scratch overlay and on the calling thread. The only shortcut is
// the verified-signature cache: a transaction whose digest was verified
// before (at mempool admission, at assembly) skips its signature check; a
// miss is verified and remembered. On a threaded job queue a block check
// verifies the misses it can foresee as one parallel batch before the loop
// and the loop takes those verdicts; nothing else leaves the calling thread.
// The result is therefore the serial result by construction, whatever
// executor the process runs (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/state.h"
#include "ledger/transaction.h"

namespace mv::ledger {

/// Knobs for block application.
struct ValidationConfig {
  /// Verified-signature memo (crypto/digest_lru.h). When set, apply_block
  /// consults it before verifying each transaction's signature and remembers
  /// fresh verifications, so a tx checked at mempool admission is not
  /// re-verified at assembly and again at commit. ledger::Replica creates
  /// one per replica and shares it with its mempool; tampering changes the
  /// digest, so a hit is as strong as re-verifying. null = verify every time.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
  /// The process executor (common/job_queue.h). With workers, a block
  /// check uses its kValidation lane for two stages that share no state:
  /// apply_block's signature checks (kAllOrNothing mode with a sig_cache)
  /// and the accounts tree re-hash in Blockchain::append. Both are
  /// caller-helps batches, so they may run inside another job of the same
  /// queue. Blockchain::prove_account serves its queries on the
  /// kClientQuery lane (sheddable), and ShardedLedger::commit_round fans its
  /// shards out on the kConsensus lane. null (or no workers) = all inline,
  /// the serial code.
  std::shared_ptr<JobQueue> job_queue;

  /// job_queue when it has worker threads, else null.
  [[nodiscard]] JobQueue* threaded_queue() const {
    return job_queue != nullptr && job_queue->workers() > 0 ? job_queue.get()
                                                            : nullptr;
  }
};

enum class ApplyMode {
  kAllOrNothing,  ///< validation: first failure rejects the whole block
  kSkipFailures,  ///< assembly: failed candidates are dropped, rest proceed
};

/// Outcome of apply_block(). `status`/`failed_index` are meaningful in
/// kAllOrNothing mode; `applied` lists the indices applied (ascending), which
/// in kSkipFailures mode is the assembled block's content.
struct BlockApplyOutcome {
  Status status;
  std::size_t failed_index = 0;
  std::vector<std::size_t> applied;
  // Both zero when no sig_cache is configured (cacheless verification is
  // not counted).
  std::size_t sig_hits = 0;    ///< signatures vouched for by the sig cache
  std::size_t sig_misses = 0;  ///< cache misses verified afresh
};

/// Monotonic counters over apply_block() outcomes (diagnostics / tests).
struct ValidationStats {
  std::uint64_t applies = 0;  ///< apply_block invocations
  // The next four describe the deleted conflict-group engine and are kept
  // only because the node benchmark still reports them: every apply is one
  // serial group, so conflict_groups == applies and the rest stay 0.
  std::uint64_t parallel_applies = 0;  ///< always 0
  std::uint64_t serial_fallbacks = 0;  ///< always 0
  std::uint64_t repairs = 0;           ///< always 0
  std::uint64_t conflict_groups = 0;   ///< one per apply
  std::uint64_t sig_cache_hits = 0;    ///< signature checks skipped via cache
  std::uint64_t sig_cache_misses = 0;  ///< signature checks actually performed
  /// append()s that committed the post-state sealed by assemble() or
  /// validate() instead of re-executing the block (Blockchain::append; not
  /// an apply_block outcome).
  std::uint64_t sealed_commits = 0;

  void record(const BlockApplyOutcome& outcome) {
    ++applies;
    ++conflict_groups;
    sig_cache_hits += outcome.sig_hits;
    sig_cache_misses += outcome.sig_misses;
  }
  /// Fold another chain's counters in (a sharded ledger's per-shard sum).
  ValidationStats& operator+=(const ValidationStats& o) {
    applies += o.applies;
    parallel_applies += o.parallel_applies;
    serial_fallbacks += o.serial_fallbacks;
    repairs += o.repairs;
    conflict_groups += o.conflict_groups;
    sig_cache_hits += o.sig_cache_hits;
    sig_cache_misses += o.sig_cache_misses;
    sealed_commits += o.sealed_commits;
    return *this;
  }
};

/// Apply `txs` onto `scratch` (an overlay the caller constructed over the
/// base state) one by one in block order, on the calling thread. In
/// kSkipFailures mode application stops once `max_applied` transactions
/// have succeeded (assembly passes the block cap), so an over-full candidate
/// list yields exactly its first max_applied successes. `digests` holds
/// txs[i].digest() at index i (Block::tx_digests: the caller computes them
/// once for tx_root too) and keys the sig-cache lookups; a size other than
/// txs.size() throws std::invalid_argument.
[[nodiscard]] BlockApplyOutcome apply_block(
    LedgerStateOverlay& scratch, const std::vector<Transaction>& txs,
    std::span<const crypto::Digest> digests, const ContractRegistry& contracts,
    Tick height, const ValidationConfig& config, ApplyMode mode,
    std::size_t max_applied = std::numeric_limits<std::size_t>::max());

}  // namespace mv::ledger
