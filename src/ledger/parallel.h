// Block application: the one code path that turns a block's transactions
// into a post-state.
//
// apply_block applies the transactions one by one, in block order, on the
// caller's scratch overlay and on the calling thread. The only shortcut is
// the verified-signature cache: a transaction whose digest was verified
// before (at mempool admission, at assembly) skips its signature check; a
// miss is verified inline and remembered. The result is therefore the serial
// result by construction, whatever executor the process runs (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <memory>
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
  /// re-verified at assembly and again at commit. Share one instance per
  /// replica (with its mempool); tampering changes the digest, so a hit is as
  /// strong as re-verifying. null = verify every time.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
  /// The process executor (common/job_queue.h). apply_block never submits
  /// to it: block application always runs inline on the calling thread, so
  /// no ledger path can wait on the queue from inside one of its own jobs.
  /// Blockchain::prove_account serves its queries on the kClientQuery lane
  /// (sheddable), and ShardedLedger::commit_round fans its shards out on the
  /// kConsensus lane. null = both run inline.
  std::shared_ptr<JobQueue> job_queue;
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
};

/// Apply `txs` onto `scratch` (an overlay the caller constructed over the
/// base state) one by one in block order, on the calling thread.
[[nodiscard]] BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                                            const std::vector<Transaction>& txs,
                                            const ContractRegistry& contracts,
                                            Tick height,
                                            const ValidationConfig& config,
                                            ApplyMode mode);

}  // namespace mv::ledger
