// The blockchain: validated, totally ordered blocks plus the current state.
//
// Consensus model is proof-of-authority: a fixed validator set takes turns
// proposing (round-robin); the BFT vote itself is simulated in consensus.h.
// Every replica runs this same validation, so a block accepted anywhere is
// accepted everywhere.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ledger/block.h"
#include "ledger/light_client.h"
#include "ledger/parallel.h"
#include "ledger/snapshot.h"
#include "ledger/state.h"

namespace mv::ledger {

struct ChainConfig {
  std::vector<crypto::PublicKey> validators;  ///< round-robin proposer order
  std::size_t max_txs_per_block = 256;
  /// Block application (ledger/parallel.h). Blocks always apply serially
  /// on the calling thread; validation.sig_cache lets them skip signatures
  /// verified before. validation.job_queue routes prove_account queries
  /// through the shared JobQueue's sheddable kClientQuery lane
  /// (common/job_queue.h) and, when it has workers, spreads a block check's
  /// signature checks and append's accounts tree re-hash over them.
  ValidationConfig validation;
  /// How many recent heights behind the tip stay reconstructible (a ring of
  /// per-block undo deltas, each with the commitment it restores):
  /// prove_account, export_snapshot and commitment_at serve heights in
  /// [tip - state_retention, tip]. Capture costs O(touched) per committed
  /// block; 0 disables retention (tip-only, the historical behaviour).
  std::size_t state_retention = 8;
};

/// Account proof of `addr` in `state`, anchored at block `height` whose
/// post-state `state` is and whose recorded commitment is `commitment`.
[[nodiscard]] AccountProof make_account_proof(const LedgerState& state,
                                              const StateCommitment& commitment,
                                              crypto::Address addr,
                                              std::int64_t height);

class Blockchain {
 public:
  /// Adopts `genesis` as the chain's working state: the chain owns it from
  /// here on and every block commits into that one object, so the state is
  /// held once and no block ever copies it. Pass an rvalue to hand over a
  /// state built for this chain; an lvalue is copied in first, so several
  /// chains can start from copies of one genesis.
  Blockchain(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
             LedgerState genesis);

  [[nodiscard]] const LedgerState& state() const { return *state_; }
  [[nodiscard]] const ChainConfig& config() const { return config_; }
  [[nodiscard]] const ContractRegistry& contracts() const { return *contracts_; }

  /// Next block height. Equals the number of committed blocks on a chain
  /// grown from genesis; on a snapshot-initialized chain it starts at
  /// base_height() (heights below it are not held).
  [[nodiscard]] std::int64_t height() const {
    return base_height_ + static_cast<std::int64_t>(blocks_.size());
  }
  /// First block height this chain holds (> 0 after init_from_snapshot).
  [[nodiscard]] std::int64_t base_height() const { return base_height_; }
  /// Blocks held, ascending from base_height(). Prefer block_at() — it
  /// resolves by height regardless of the base offset.
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  /// Block at `height`, or nullptr when out of range / below base_height().
  [[nodiscard]] const Block* block_at(std::int64_t height) const;
  [[nodiscard]] crypto::Digest tip_hash() const;

  /// Proposer side: trial-apply candidates in order, drop any that fail,
  /// stop at max_txs_per_block successes, and build a signed block on top of
  /// the current tip.
  ///
  /// The proposal is sealed: the chain keeps {header hash, post-state
  /// overlay, its staged digests, tx list} in one slot, so appending this
  /// block commits the state that assembly already computed and hashed
  /// instead of executing or hashing it a second time. A new assemble()
  /// replaces the seal; append() and init_from_snapshot() drop it.
  /// validate() fills an empty slot and leaves a held seal alone.
  /// Because they write the seal, calls to assemble(), validate() and
  /// append() on one chain must not overlap.
  [[nodiscard]] Block assemble(const crypto::Wallet& proposer,
                               const std::vector<Transaction>& candidates,
                               Tick timestamp, Rng& rng) const;

  /// Validate + commit. On any failure the chain is unchanged.
  ///
  /// Every block first passes the checks that need no execution:
  /// check_signed_header (height, parent, schedule, signature; header.*
  /// codes) and max_txs_per_block. A block whose header hash and tx list
  /// match the seal (left by assemble() or validate()) is the sealed
  /// proposal: its tx_root was computed or checked over those txs when the
  /// seal was made, and it commits the sealed post-state with the staged
  /// digests (LedgerState::absorb with the stage), hashing no tx, tree node,
  /// store entry or audit record again. Every other block (followers,
  /// import_blocks, a tampered or re-signed proposal, a tx list swapped
  /// under the sealed header, a seal that was replaced or went stale) has
  /// its tx_root recomputed from block.txs and is executed once,
  /// all-or-nothing, and committed. Either way the root of the committed
  /// state must equal header.state_root, or the commit is rolled back
  /// (LedgerState::apply_undo) and the block rejected with
  /// "block.bad_state_root". ValidationStats::sealed_commits counts the
  /// sealed commits.
  [[nodiscard]] Status append(const Block& block);

  /// Observer of successful commits: the block just appended plus the
  /// inverse delta of its state changes — i.e. exactly which accounts and
  /// stores it touched. Runs synchronously inside append() after the state
  /// is committed (height() already counts the block), so the hook sees a
  /// consistent tip and must stay cheap or dispatch elsewhere; it must not
  /// call back into this chain's mutating API. One hook; set empty to clear.
  /// The subscription publisher (ledger/subscription.h) hangs off this.
  using CommitHook = std::function<void(const Block&, const StateUndo&)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// Validate without committing (votes in the BFT round use this): header
  /// checks, execution on a read-only overlay, and the state_root check.
  /// On success with no seal held, the verified post-state becomes the seal,
  /// so the append() that follows the vote does not execute the block again.
  [[nodiscard]] Status validate(const Block& block) const;

  /// Account proof (balance/nonce leaf + Merkle path to the accounts root)
  /// anchored at block `block_height`'s state commitment. Serves the tip and
  /// every height the retention ring covers (config.state_retention heights
  /// behind it); "chain.stale_height" fires only beyond that window. The
  /// result verifies against that header's state_root with
  /// verify_account_proof / LightClient::verify_account.
  ///
  /// When validation.job_queue is configured, the query runs as a
  /// JobClass::kClientQuery job — the first traffic shed under overload —
  /// and a shed query returns "chain.overloaded" immediately.
  [[nodiscard]] Result<AccountProof> prove_account(crypto::Address addr,
                                                   std::int64_t block_height) const;

  /// Post-state commitment of block `height`: the tip's at any retention,
  /// and every height the retention ring covers ([tip - state_retention,
  /// tip], the heights prove_account and export_snapshot serve). nullptr
  /// otherwise. On a snapshot-initialized chain the tip before the first
  /// block is the anchor height, with the manifest's commitment.
  [[nodiscard]] const StateCommitment* commitment_at(std::int64_t height) const;

  /// Build a verified snapshot of the state as of block `height` (the tip or
  /// any height the retention ring covers; "chain.stale_height" beyond).
  /// O(state). A historical height is rebuilt as a historical
  /// prove_account rebuilds it, and fails with "chain.retention_corrupt"
  /// when the rolled-back state misses the ring's commitment.
  [[nodiscard]] Result<Snapshot> export_snapshot(
      std::int64_t height, std::size_t chunk_size = kSnapshotChunkSize) const;

  /// Install a verified snapshot into a fresh chain (no committed blocks).
  /// `anchor` must be the committed header at manifest.height: it is
  /// re-checked here (check_signed_header's schedule and signature, then the
  /// state_root binding; "chain.bad_anchor" naming the cause) on
  /// top of whatever header-chain verification the caller already did, the
  /// chunks are verified and decoded (assemble_snapshot), and the chain
  /// resumes at base_height() == anchor.height + 1 with anchor.hash() as the
  /// parent for the next block. Catch-up then replays only the suffix.
  [[nodiscard]] Status init_from_snapshot(const SnapshotManifest& manifest,
                                          const std::vector<Bytes>& chunks,
                                          const BlockHeader& anchor);

  /// Hash-chain anchor for block 0 (derived from the genesis state root);
  /// light clients seed their header chain with this.
  [[nodiscard]] crypto::Digest genesis_hash() const { return genesis_hash_; }

  /// Counters over block applications (assemble/validate/append). Updated
  /// from const validation paths; not meaningful if one chain is driven from
  /// several threads at once (replicas are single-threaded by design).
  [[nodiscard]] const ValidationStats& validation_stats() const { return vstats_; }

  /// Serialize the blocks from `from_height` on (bootstrap/archive format;
  /// 0 for every held block, snapshot catch-up serves a suffix). Heights
  /// below base_height() are not held; the stream starts at
  /// max(from_height, base_height()).
  [[nodiscard]] Bytes export_blocks_from(std::int64_t from_height) const;
  /// Replay an exported stream from this chain's current height, fully
  /// re-validating each block. Stops at the first invalid block (the valid
  /// prefix stays committed); bytes after the last block fail the import
  /// once its blocks are in. Returns the number of blocks appended.
  [[nodiscard]] Result<std::size_t> import_blocks(const Bytes& data);

 private:
  /// The checks that need no execution: height, parent, proposer schedule
  /// and signature, block size, tx_root. `digests` is
  /// Block::tx_digests(block.txs), computed once per block check and shared
  /// with execute(); null for a sealed proposal, whose tx_root the seal
  /// already vouches for.
  [[nodiscard]] Status check_header(const Block& block,
                                    const std::vector<crypto::Digest>* digests) const;
  /// Apply the block's transactions all-or-nothing onto `scratch` (an
  /// overlay over the current state); "block.bad_tx" names the first that
  /// fails. On success the overlay holds the block's delta. `digests` feeds
  /// the verified-signature cache lookups.
  [[nodiscard]] Status execute(const Block& block, LedgerStateOverlay& scratch,
                               std::span<const crypto::Digest> digests) const;

  /// The proof construction itself (prove_account minus queue admission).
  [[nodiscard]] Result<AccountProof> prove_account_now(
      crypto::Address addr, std::int64_t block_height) const;

  /// One retention-ring slot: how to revert the block at its height, plus
  /// the commitment that revert restores (the parent's post-state
  /// commitment: the reconstruction sanity anchor).
  struct Retained {
    StateUndo undo;
    StateCommitment restored;
  };
  /// Reconstruct the post-state of block `height` by rolling a copy of the
  /// tip state back through the ring's undos of blocks (height, tip]
  /// (O(state) copy + O(touched) per rolled-back block) and checking it
  /// against commitment_at(height) ("chain.retention_corrupt" otherwise).
  /// `height` must have a commitment_at and lie strictly below the tip.
  [[nodiscard]] Result<LedgerState> state_at(std::int64_t height) const;

  ChainConfig config_;
  std::shared_ptr<const ContractRegistry> contracts_;
  /// The working state: the adopted genesis, or an installed snapshot. It
  /// lives on the heap so that it keeps its address when the chain moves: a
  /// held seal's overlay reads through to it.
  std::unique_ptr<LedgerState> state_;
  crypto::Digest genesis_hash_;
  std::vector<Block> blocks_;
  std::int64_t base_height_ = 0;  ///< height of blocks_[0] (snapshot offset)
  crypto::Digest base_hash_;      ///< parent hash when blocks_ is empty
  /// Undo ring, oldest first; back() reverts the tip block. Capped at
  /// config.state_retention.
  std::deque<Retained> retained_;
  /// Post-state commitment of the tip (of genesis before the first block),
  /// kept at every retention.
  StateCommitment tip_commitment_;
  mutable ValidationStats vstats_;
  /// The last assembled (or, with no proposal of its own, validated) block:
  /// its header hash, the post-state delta computed over the state it was
  /// built on, that delta's staged commitment digests, and its tx list.
  /// Only append() and init_from_snapshot() change that state, and both
  /// drop the seal, so a live seal always describes the current tip.
  struct Sealed {
    crypto::Digest hash;
    LedgerStateOverlay post;
    LedgerState::Staged staged;
    std::vector<Transaction> txs;
  };
  mutable std::optional<Sealed> sealed_;
  CommitHook commit_hook_;
};

}  // namespace mv::ledger
