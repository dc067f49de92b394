// Parallel block application: conflict-partitioned overlays with a
// deterministic merge.
//
// A block's transactions are grouped by their static conflict footprint
// (touched accounts and contract stores, closed under union-find), disjoint
// groups are applied concurrently on independent overlays stacked over the
// same base, and the resulting deltas are folded back in canonical (original
// block) order — so the final StateCommitment is byte-identical to serial
// application (DESIGN.md §"Parallel block validation" carries the argument).
//
// Static footprints cannot see everything: a contract call may read or move
// funds of accounts named only in its arguments or its store. Group execution
// therefore runs on access-tracking views that record every account and store
// key actually touched; if any group's reads or writes overlap another
// group's writes, the parallel result is discarded and the block is re-applied
// serially ("serial fallback"). The fallback decision depends only on the
// block and the base state — never on thread scheduling — so results are
// bit-identical across thread counts, schedules, and runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/state.h"
#include "ledger/transaction.h"

namespace mv::ledger {

/// Knobs for block application. Without a job queue (or with one that has
/// at most one worker) the serial path runs exactly (no partitioning, no
/// tracking overhead).
struct ValidationConfig {
  std::size_t min_parallel_txs = 8;  ///< below this, serial is cheaper
  /// Permutes the order in which conflict groups are handed to the queue.
  /// Results are independent of it by construction; the determinism tests
  /// sweep it to prove that. 0 = canonical order.
  std::uint64_t schedule_seed = 0;
  /// Verified-signature memo (crypto/digest_lru.h). When set, apply_block
  /// consults it before verifying each transaction's signature and remembers
  /// fresh verifications, so a tx checked at mempool admission is not
  /// re-verified at assembly and again at commit. Share one instance per
  /// replica (with its mempool); tampering changes the digest, so a hit is as
  /// strong as re-verifying. null = verify every time.
  std::shared_ptr<crypto::DigestLruSet> sig_cache;
  /// The executor (common/job_queue.h): signature pre-verification batches
  /// run as kValidation jobs and block-application units as kConsensus
  /// jobs, so ledger work competes with gossip/snapshot/client traffic under
  /// one scheduler instead of owning dedicated threads. The queue's worker
  /// count decides serial-vs-parallel and sets the unit-packing width; a
  /// queue with workers() <= 1 runs the serial path (an inline queue,
  /// workers()==0, is byte-identical to no queue at all). Batches are never
  /// shed. Share one instance per process (replicas may share it with
  /// net-side users); results stay bit-identical either way (DESIGN.md §10).
  /// null = serial, inline on the calling thread.
  std::shared_ptr<JobQueue> job_queue;
};

/// One element of a transaction's static conflict footprint.
struct ConflictKey {
  enum class Kind : std::uint8_t {
    kAccount = 0,  ///< id = Address::value
    kStore = 1,    ///< id = 64-bit hash of the contract name
  };
  Kind kind = Kind::kAccount;
  std::uint64_t id = 0;

  friend constexpr auto operator<=>(const ConflictKey&, const ConflictKey&) = default;
};

/// Static conflict footprint of one transaction: the sender's account for
/// every kind, the recipient account for transfers, and the target contract's
/// store for contract calls. Dynamic touches (accounts a contract reaches via
/// CallContext) are intentionally absent — the tracked-execution interference
/// check covers them at run time.
[[nodiscard]] std::vector<ConflictKey> conflict_keys(const Transaction& tx);

/// Group txs (by index) so that any two transactions sharing a conflict key —
/// directly or transitively — land in the same group. Groups are ordered by
/// their smallest member and each group's indices are ascending, so the
/// partition is a canonical function of the transaction list.
[[nodiscard]] std::vector<std::vector<std::size_t>> partition_conflicts(
    const std::vector<Transaction>& txs);

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
  std::size_t groups = 1;        ///< conflict groups in the partition
  bool parallel = false;         ///< multi-group path ran to completion
  bool serial_fallback = false;  ///< group run discarded, block re-applied serially
  /// Dynamic conflict resolved by re-running only the conflicting units in
  /// block order (the non-conflicting units' overlays were kept) instead of
  /// discarding everything for a full serial replay.
  bool repaired = false;
  // Both zero when no sig_cache is configured (cacheless verification is
  // not counted).
  std::size_t sig_hits = 0;    ///< signatures vouched for by the sig cache
  std::size_t sig_misses = 0;  ///< cache misses verified afresh
};

/// Monotonic counters over apply_block() outcomes (diagnostics / tests).
struct ValidationStats {
  std::uint64_t applies = 0;           ///< apply_block invocations
  std::uint64_t parallel_applies = 0;  ///< completed via the parallel path
  std::uint64_t serial_fallbacks = 0;  ///< conflicts/failures forcing re-runs
  std::uint64_t repairs = 0;           ///< conflicts healed by partial re-run
  std::uint64_t conflict_groups = 0;   ///< summed partition sizes
  std::uint64_t sig_cache_hits = 0;    ///< signature checks skipped via cache
  std::uint64_t sig_cache_misses = 0;  ///< signature checks actually performed
  /// append()s that committed the post-state sealed by assemble() or
  /// validate() instead of re-executing the block (Blockchain::append; not
  /// an apply_block outcome).
  std::uint64_t sealed_commits = 0;

  void record(const BlockApplyOutcome& outcome) {
    ++applies;
    if (outcome.parallel) ++parallel_applies;
    if (outcome.serial_fallback) ++serial_fallbacks;
    if (outcome.repaired) ++repairs;
    conflict_groups += outcome.groups;
    sig_cache_hits += outcome.sig_hits;
    sig_cache_misses += outcome.sig_misses;
  }
};

/// Apply `txs` onto `scratch` (an overlay the caller constructed over the
/// base state), equivalent to applying them one-by-one in order. With a
/// config.job_queue of more than one worker, disjoint conflict groups run
/// concurrently on it; the commitment of `scratch` afterwards is
/// byte-identical to the serial result in every case. `scratch` must be freshly constructed (no prior
/// writes): group workers read through it concurrently, so it has to stay
/// untouched until the merge.
[[nodiscard]] BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                                            const std::vector<Transaction>& txs,
                                            const ContractRegistry& contracts,
                                            Tick height,
                                            const ValidationConfig& config,
                                            ApplyMode mode);

}  // namespace mv::ledger
