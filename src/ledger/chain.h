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
  /// Block application (ledger/parallel.h). Blocks always apply serially,
  /// inline on the calling thread; validation.sig_cache lets them skip
  /// signatures verified before. validation.job_queue only routes
  /// prove_account queries through the shared JobQueue's sheddable
  /// kClientQuery lane (common/job_queue.h).
  ValidationConfig validation;
  /// How many recent heights behind the tip stay reconstructible (a ring of
  /// per-block undo deltas + commitments): prove_account and export_snapshot
  /// serve heights in [tip - state_retention, tip]. Capture costs O(touched)
  /// per committed block; 0 disables retention (tip-only, the historical
  /// behaviour).
  std::size_t state_retention = 8;
};

class Blockchain {
 public:
  Blockchain(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
             LedgerState genesis);
  /// Shares the genesis state instead of cloning it into the chain. The
  /// mutable working copy is materialized lazily when the first block
  /// commits, so a replica that bootstraps via init_from_snapshot() never
  /// pays the O(state) genesis clone (or its teardown) at all — the chain
  /// goes straight from empty to the decoded snapshot state. The caller must
  /// not mutate the shared state; computing its commitment writes cached
  /// hashes, so callers sharing one genesis across threads must call
  /// genesis->commitment() once up front.
  Blockchain(ChainConfig config, std::shared_ptr<const ContractRegistry> contracts,
             std::shared_ptr<const LedgerState> genesis);

  [[nodiscard]] const LedgerState& state() const {
    return state_.has_value() ? *state_ : *genesis_;
  }
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

  /// Expected proposer public key for a given height (round-robin PoA).
  [[nodiscard]] const crypto::PublicKey& expected_proposer(std::int64_t height) const;

  /// Proposer side: trial-apply candidates in order, drop any that fail, and
  /// build a signed block on top of the current tip.
  ///
  /// The proposal is sealed: the chain keeps {header hash, post-state
  /// overlay} in one slot, so appending this block commits the state that
  /// assembly already computed instead of executing it a second time. A new
  /// assemble() replaces the seal; append() and init_from_snapshot() drop
  /// it. validate() fills an empty slot and leaves a held seal alone.
  /// Because they write the seal, calls to assemble(), validate() and
  /// append() on one chain must not overlap.
  [[nodiscard]] Block assemble(const crypto::Wallet& proposer,
                               const std::vector<Transaction>& candidates,
                               Tick timestamp, Rng& rng) const;

  /// Validate + commit. On any failure the chain is unchanged.
  ///
  /// Every block first passes the checks that need no execution: height,
  /// parent hash, proposer schedule, proposer signature, max_txs_per_block
  /// and the tx_root recomputed from block.txs. A block whose header hash
  /// matches the seal (left by assemble() or validate()) then commits the
  /// sealed post-state; every other block (followers, import_blocks, a
  /// tampered or re-signed proposal, a seal that was replaced or went stale)
  /// is executed once, all-or-nothing, and committed. Either way the root
  /// of the committed state must equal header.state_root, or the commit is
  /// rolled back (LedgerState::apply_undo) and the block rejected with
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

  /// Merkle inclusion proof for tx `tx_index` of block `block_height`.
  [[nodiscard]] Result<crypto::MerkleProof> prove_tx(std::int64_t block_height,
                                                     std::size_t tx_index) const;

  /// Verify an inclusion proof against a committed header.
  [[nodiscard]] bool verify_tx_inclusion(std::int64_t block_height,
                                         const crypto::Digest& tx_digest,
                                         const crypto::MerkleProof& proof) const;

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

  /// Post-state commitment of block `height`, when the retention ring still
  /// covers it (the tip always is). nullptr otherwise.
  [[nodiscard]] const StateCommitment* commitment_at(std::int64_t height) const;

  /// Build a verified snapshot of the state as of block `height` (the tip or
  /// any height the retention ring covers; "chain.stale_height" beyond).
  /// O(state) — historical heights additionally roll back through the ring.
  [[nodiscard]] Result<Snapshot> export_snapshot(
      std::int64_t height, std::size_t chunk_size = kSnapshotChunkSize) const;

  /// Install a verified snapshot into a fresh chain (no committed blocks).
  /// `anchor` must be the committed header at manifest.height: it is
  /// re-checked here (proposer schedule + signature + state_root binding) on
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

  /// Serialize every committed block (bootstrap/archive format).
  [[nodiscard]] Bytes export_blocks() const;
  /// Serialize the suffix starting at `from_height` (snapshot catch-up
  /// serves this instead of the full archive). Heights below base_height()
  /// are not held; the stream starts at max(from_height, base_height()).
  [[nodiscard]] Bytes export_blocks_from(std::int64_t from_height) const;
  /// Replay an exported stream from this chain's current height, fully
  /// re-validating each block. Stops at the first invalid block (the valid
  /// prefix stays committed). Returns the number of blocks appended.
  [[nodiscard]] Result<std::size_t> import_blocks(const Bytes& data);

 private:
  /// The checks that need no execution: height, parent, proposer schedule
  /// and signature, block size, tx_root.
  [[nodiscard]] Status check_header(const Block& block) const;
  /// Apply the block's transactions all-or-nothing onto `scratch` (an
  /// overlay over the current state); "block.bad_tx" names the first that
  /// fails. On success the overlay holds the block's delta.
  [[nodiscard]] Status execute(const Block& block, LedgerStateOverlay& scratch) const;

  /// The proof construction itself (prove_account minus queue admission).
  [[nodiscard]] Result<AccountProof> prove_account_now(
      crypto::Address addr, std::int64_t block_height) const;

  /// One retention-ring slot: how to revert the block at its height, plus
  /// the post-block commitment (reconstruction sanity anchor).
  struct Retained {
    StateUndo undo;
    StateCommitment commitment;
  };
  /// True when the retention ring covers block `height`'s post-state.
  [[nodiscard]] bool retains(std::int64_t height) const;
  /// Reconstruct the post-state of block `height` by rolling the tip state
  /// back through the ring (O(state) copy + O(touched) per rolled-back
  /// block). `height` must be retained and strictly below the tip.
  [[nodiscard]] Result<LedgerState> state_at(std::int64_t height) const;

  /// The working state, or nullopt while the chain still *is* the genesis
  /// state (no committed blocks, no installed snapshot). state() reads
  /// through to *genesis_ in that case; mutable_state() materializes.
  [[nodiscard]] LedgerState& mutable_state();

  ChainConfig config_;
  std::shared_ptr<const ContractRegistry> contracts_;
  std::shared_ptr<const LedgerState> genesis_;
  std::optional<LedgerState> state_;
  crypto::Digest genesis_hash_;
  std::vector<Block> blocks_;
  std::int64_t base_height_ = 0;  ///< height of blocks_[0] (snapshot offset)
  crypto::Digest base_hash_;      ///< parent hash when blocks_ is empty
  /// Undo ring, oldest first; back() reverts the tip block. Capped at
  /// config.state_retention.
  std::deque<Retained> retained_;
  mutable ValidationStats vstats_;
  /// The last assembled (or, with no proposal of its own, validated) block:
  /// its header hash and the post-state delta computed over the state it
  /// was built on. Only append() and init_from_snapshot() change that
  /// state, and both drop the seal, so a live seal always describes the
  /// current tip.
  struct Sealed {
    crypto::Digest hash;
    LedgerStateOverlay post;
  };
  mutable std::optional<Sealed> sealed_;
  CommitHook commit_hook_;
};

}  // namespace mv::ledger
