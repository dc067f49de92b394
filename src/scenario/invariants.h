// Cross-module invariant checks run between replayed blocks.
//
// Per-block commitment roots catch *any* divergence but explain nothing; the
// checks here assert properties that should hold on every consistent ledger
// regardless of workload, so a replay failure comes with a named violation
// instead of just a root mismatch:
//
//   - token conservation: sum(balances) + burned_fees == genesis supply
//   - nft store shape:    owner-record count == next_token; every listing
//                         points at an owned token
//   - dao store shape:    every recorded ballot was cast by a member;
//                         member_count and next_id match the key space;
//                         every stored tally equals a recount of the ballots
//   - reputation bounds:  every score within [min_score, max_score]
//   - moderation counts:  open/upheld counters match the report records
//   - optional full rehash: incremental accounts root == from-scratch root
//   - optional mempool self_check: indexes agree, and no entry pends below
//                         its sender's committed nonce
#pragma once

#include <string>
#include <vector>

#include "ledger/mempool.h"
#include "ledger/shard.h"
#include "ledger/state.h"

namespace mv::scenario {

struct InvariantOptions {
  std::uint64_t total_supply = 0;
  std::string nft_contract = "nft";
  std::string dao_contract = "dao";
  std::string reputation_contract = "reputation";
  std::string moderation_contract = "moderation";
  std::int64_t rep_min = -100;
  std::int64_t rep_max = 100;
  /// Recompute the accounts root from scratch and compare against the
  /// incrementally-maintained commitment. O(accounts log accounts) — on by
  /// default for tests, off for benches.
  bool check_full_rehash = true;
  /// Per-state token conservation. check_sharded_invariants disables it for
  /// the per-shard passes (cross-shard transfers make any single shard's sum
  /// meaningless) and asserts the cross-shard identity itself.
  bool check_conservation = true;
};

/// Returns one human-readable string per violated invariant (empty == clean).
/// `pool`, when given, contributes Mempool::self_check(state).
[[nodiscard]] std::vector<std::string> check_invariants(
    const ledger::LedgerState& state, const InvariantOptions& opts,
    const ledger::Mempool* pool = nullptr);

/// Sharded extension: runs the per-shard module checks (each shard's mempool
/// self_check included) on every shard, then asserts the invariants that
/// only make sense across the whole fleet —
///
///   - cross-shard conservation: Σ balances + Σ burned_fees
///     + Σ locked_total − Σ minted_total == total_supply
///   - receipt ledger shape: per shard, exactly next_id dense receipt
///     records, each decoding to a receipt naming itself as source
///   - spent-marker integrity: every "spent/<src>/<id>" marker on a shard
///     references an existing receipt on shard <src> destined for the
///     marker's shard with the marked amount, and per source shard the
///     minted sum never exceeds the locked sum (no mint without a lock)
[[nodiscard]] std::vector<std::string> check_sharded_invariants(
    const ledger::ShardedLedger& ledger, const InvariantOptions& opts);

}  // namespace mv::scenario
