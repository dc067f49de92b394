#include "ledger/chain.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ledger/header_check.h"

namespace mv::ledger {

Blockchain::Blockchain(ChainConfig config,
                       std::shared_ptr<const ContractRegistry> contracts,
                       LedgerState genesis)
    : config_(std::move(config)),
      contracts_(std::move(contracts)),
      state_(std::make_unique<LedgerState>(std::move(genesis))) {
  if (config_.validators.empty()) {
    throw std::invalid_argument("Blockchain: empty validator set");
  }
  tip_commitment_ = state_->commitment();
  ByteWriter w;
  w.str("genesis");
  w.raw(tip_commitment_.root);
  genesis_hash_ = crypto::sha256(w.data());
  base_hash_ = genesis_hash_;
}

crypto::Digest Blockchain::tip_hash() const {
  return blocks_.empty() ? base_hash_ : blocks_.back().header.hash();
}

const Block* Blockchain::block_at(std::int64_t height) const {
  if (height < base_height_ || height >= this->height()) return nullptr;
  return &blocks_[static_cast<std::size_t>(height - base_height_)];
}

Block Blockchain::assemble(const crypto::Wallet& proposer,
                           const std::vector<Transaction>& candidates,
                           Tick timestamp, Rng& rng) const {
  Block block;
  block.header.height = height();
  block.header.prev_hash = tip_hash();
  block.header.timestamp = timestamp;
  block.header.proposer_pub = proposer.public_key();

  // Each candidate is hashed once: the digests key the sig-cache lookups and
  // the applied subset's are the tx_root leaves.
  const std::vector<crypto::Digest> digests = Block::tx_digests(candidates);
  auto scratch = LedgerStateOverlay::reader(state());
  const auto outcome =
      apply_block(scratch, candidates, digests, *contracts_,
                  block.header.height, config_.validation,
                  ApplyMode::kSkipFailures, config_.max_txs_per_block);
  vstats_.record(outcome);
  std::vector<crypto::Digest> leaves;
  leaves.reserve(outcome.applied.size());
  for (const std::size_t i : outcome.applied) {
    block.txs.push_back(candidates[i]);
    leaves.push_back(digests[i]);
  }
  block.header.tx_root = Block::compute_tx_root(std::move(leaves));
  LedgerState::Staged staged = state().stage(scratch);
  block.header.state_root = staged.commitment.root;
  block.header.proposer_sig = proposer.sign(block.header.signing_bytes(), rng);
  // Skipped candidates left no delta (LedgerView::apply is atomic), so the
  // overlay holds exactly this block's post-state over the current tip.
  sealed_.emplace(
      Sealed{block.header.hash(), std::move(scratch), std::move(staged), block.txs});
  return block;
}

Status Blockchain::check_header(const Block& block,
                                const std::vector<crypto::Digest>* digests) const {
  if (auto s = check_signed_header(block.header, height(), tip_hash(),
                                   config_.validators);
      !s.ok()) {
    return s;
  }
  if (block.txs.size() > config_.max_txs_per_block) {
    return Status::fail("block.too_many_txs", "exceeds max_txs_per_block");
  }
  if (digests != nullptr && block.header.tx_root != Block::compute_tx_root(*digests)) {
    return Status::fail("block.bad_tx_root", "Merkle root mismatch");
  }
  return {};
}

Status Blockchain::execute(const Block& block, LedgerStateOverlay& scratch,
                           std::span<const crypto::Digest> digests) const {
  const auto outcome =
      apply_block(scratch, block.txs, digests, *contracts_,
                  block.header.height, config_.validation,
                  ApplyMode::kAllOrNothing);
  vstats_.record(outcome);
  if (!outcome.status.ok()) {
    return Status::fail("block.bad_tx",
                        "tx " + std::to_string(outcome.failed_index) + ": " +
                            outcome.status.error().to_string());
  }
  return {};
}

Status Blockchain::validate(const Block& block) const {
  const std::vector<crypto::Digest> digests = Block::tx_digests(block.txs);
  if (auto s = check_header(block, &digests); !s.ok()) return s;
  auto scratch = LedgerStateOverlay::reader(state());
  if (auto s = execute(block, scratch, digests); !s.ok()) return s;
  LedgerState::Staged staged = state().stage(scratch);
  if (staged.commitment.root != block.header.state_root) {
    return Status::fail("block.bad_state_root", "post-state mismatch");
  }
  // A replica that votes for a proposal appends it next: keep the verified
  // post-state, its staged digests and the checked tx list as the seal, so
  // that append commits it without executing or hashing it again. An
  // existing seal (this chain's own proposal) is left alone.
  if (!sealed_.has_value()) {
    sealed_.emplace(
        Sealed{block.header.hash(), std::move(scratch), std::move(staged), block.txs});
  }
  return {};
}

Status Blockchain::append(const Block& block) {
  // Whatever the outcome, the seal is used up here: a commit moves the tip
  // under it, and a rejected block leaves no reason to keep it.
  std::optional<Sealed> seal = std::exchange(sealed_, std::nullopt);
  // The header hash binds tx_root and state_root, but not the tx list
  // itself. A block is the sealed proposal only if its txs are the seal's
  // too: the seal's tx_root was computed (assemble) or checked (validate)
  // over exactly those txs, so it is not recomputed. Every other block
  // hashes its txs for the tx_root check and the signature cache.
  const bool sealed = seal.has_value() && seal->hash == block.header.hash() &&
                      seal->txs == block.txs;
  std::vector<crypto::Digest> digests;
  if (!sealed) digests = Block::tx_digests(block.txs);
  if (auto s = check_header(block, sealed ? nullptr : &digests); !s.ok()) return s;
  LedgerState& state = *state_;
  auto scratch = LedgerStateOverlay::writer(state);
  if (sealed) {
    scratch = std::move(seal->post);  // a reader over this state
  } else if (auto s = execute(block, scratch, digests); !s.ok()) {
    return s;
  }
  // Commit first, then check the root once, on the committed state. A
  // sealed commit installs the digests its stage computed, so the check
  // folds the staged sections and hashes no tree node. The undo recorded by
  // the commit is the rollback of a mismatch; it also feeds the retention
  // ring and tells the commit hook what was touched.
  StateUndo undo = state.absorb(scratch, sealed ? &seal->staged : nullptr);
  if (JobQueue* queue = config_.validation.threaded_queue(); queue != nullptr) {
    state.flush_account_tree(*queue);
  }
  StateCommitment committed = state.commitment();
  if (committed.root != block.header.state_root) {
    state.apply_undo(undo);
    return Status::fail("block.bad_state_root", "post-state mismatch");
  }
  if (sealed) ++vstats_.sealed_commits;
  StateCommitment restored = std::exchange(tip_commitment_, std::move(committed));
  // A sealed block's tx list moves into history from the seal.
  blocks_.push_back(sealed ? Block{block.header, std::move(seal->txs)} : block);
  if (commit_hook_) commit_hook_(block, undo);
  if (config_.state_retention > 0) {
    retained_.push_back(Retained{std::move(undo), std::move(restored)});
    if (retained_.size() > config_.state_retention) retained_.pop_front();
  }
  return {};
}

const StateCommitment* Blockchain::commitment_at(std::int64_t height) const {
  const std::int64_t tip = this->height() - 1;
  if (height < 0 || height > tip) return nullptr;
  if (height == tip) return &tip_commitment_;
  // Rolling back to `height` consumes the undos of blocks (height, tip]; the
  // last of them, block height + 1's, restores this commitment.
  const std::int64_t back = tip - height;  // slots from the ring's end
  if (back > static_cast<std::int64_t>(retained_.size())) return nullptr;
  return &retained_[retained_.size() - static_cast<std::size_t>(back)].restored;
}

Result<LedgerState> Blockchain::state_at(std::int64_t height) const {
  LedgerState state = this->state();
  // back() reverts the tip block; one slot per block in (height, tip].
  const auto blocks = static_cast<std::size_t>(this->height() - 1 - height);
  for (std::size_t i = 1; i <= blocks; ++i) {
    state.apply_undo(retained_[retained_.size() - i].undo);
  }
  // Sanity anchor: the ring's commitment for `height` must be reproduced
  // exactly.
  if (const StateCommitment* expected = commitment_at(height);
      expected == nullptr || state.commitment() != *expected) {
    return make_error(errc::kChainRetentionCorrupt,
                      "rolled-back state does not match retained commitment");
  }
  return state;
}

AccountProof make_account_proof(const LedgerState& state,
                                const StateCommitment& commitment,
                                crypto::Address addr, std::int64_t height) {
  AccountProof ap;
  ap.address = addr;
  ap.height = height;
  const Account account = state.account(addr);
  ap.statement.has_balance = account.has_balance;
  ap.statement.balance = account.balance;
  ap.statement.nonce = account.nonce;
  ap.statement.exists = account.live();
  ap.commitment = commitment;
  ap.proof = state.prove_account(addr);
  return ap;
}

Result<AccountProof> Blockchain::prove_account(crypto::Address addr,
                                               std::int64_t block_height) const {
  // Client proof queries ride the lowest-priority lane of the job queue when
  // one is configured: under overload they are the first traffic shed, and a
  // shed query answers immediately with chain.overloaded instead of queueing
  // behind consensus work. An admitted query with no job queued ahead of it
  // runs here on the calling thread (JobQueue::run is caller-runs), so an
  // idle queue costs the proof no thread handoff; one queued behind other
  // work waits its turn on a worker. Without a queue behaviour is unchanged.
  if (JobQueue* queue = config_.validation.job_queue.get(); queue != nullptr) {
    std::optional<Result<AccountProof>> out;
    const bool ran = queue->run(JobClass::kClientQuery, [&] {
      out = prove_account_now(addr, block_height);
    });
    if (!ran) {
      return make_error(errc::kChainOverloaded,
                        "client query shed by the job queue (class " +
                            std::string(job_class_name(JobClass::kClientQuery)) +
                            " over its ceiling)");
    }
    return std::move(*out);
  }
  return prove_account_now(addr, block_height);
}

Result<AccountProof> Blockchain::prove_account_now(
    crypto::Address addr, std::int64_t block_height) const {
  if (block_height < 0 || block_height >= height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  const StateCommitment* commitment = commitment_at(block_height);
  if (commitment == nullptr) {
    return make_error(errc::kChainStaleHeight,
                      "height " + std::to_string(block_height) +
                          " is beyond the retention window (tip " +
                          std::to_string(height() - 1) + ", retention " +
                          std::to_string(config_.state_retention) + ")");
  }
  if (block_height == height() - 1) {
    return make_account_proof(state(), *commitment, addr, block_height);
  }
  auto state = state_at(block_height);
  if (!state.ok()) return state.error();
  return make_account_proof(state.value(), *commitment, addr, block_height);
}

Result<Snapshot> Blockchain::export_snapshot(std::int64_t height,
                                             std::size_t chunk_size) const {
  if (height < 0 || height >= this->height()) {
    return make_error(errc::kChainBadHeight, "no such block");
  }
  const StateCommitment* commitment = commitment_at(height);
  if (commitment == nullptr) {
    return make_error(errc::kChainStaleHeight,
                      "height " + std::to_string(height) +
                          " is beyond the retention window");
  }
  if (height == this->height() - 1) return build_snapshot(state(), height, chunk_size);
  // Historical export: the same verified roll-back as a historical
  // prove_account, so a corrupt ring fails the export here instead of
  // producing a snapshot every receiver rejects.
  auto state = state_at(height);
  if (!state.ok()) return state.error();
  return build_snapshot(state.value(), height, chunk_size);
}

Status Blockchain::init_from_snapshot(const SnapshotManifest& manifest,
                                      const std::vector<Bytes>& chunks,
                                      const BlockHeader& anchor) {
  sealed_.reset();
  if (height() != 0) {
    return Status::fail(errc::kChainNotFresh,
                        "snapshot install requires a chain with no blocks");
  }
  // Defense in depth: the caller is expected to have walked the header chain
  // (LightClient), but the anchor is cheap to re-check against this chain's
  // own validator schedule before any state is installed. Its parent is not
  // held here: the anchor's own height and prev_hash stand in for the link,
  // so the proposer schedule and the signature decide.
  if (anchor.height != manifest.height || anchor.height < 0) {
    return Status::fail(errc::kChainBadAnchor,
                        "anchor header height does not match the manifest");
  }
  if (auto s = check_signed_header(anchor, anchor.height, anchor.prev_hash,
                                   config_.validators);
      !s.ok()) {
    return Status::fail(errc::kChainBadAnchor,
                        "anchor header: " + s.error().to_string());
  }
  if (anchor.state_root != manifest.commitment.root) {
    return Status::fail(errc::kChainBadAnchor,
                        "anchor state_root does not match the manifest");
  }
  auto state = assemble_snapshot(manifest, chunks);
  if (!state.ok()) {
    return Status::fail(state.error().code, state.error().message);
  }
  *state_ = std::move(state).value();
  base_height_ = anchor.height + 1;
  base_hash_ = anchor.hash();
  retained_.clear();
  tip_commitment_ = manifest.commitment;
  return {};
}

Bytes Blockchain::export_blocks_from(std::int64_t from_height) const {
  const std::int64_t start = std::clamp(from_height, base_height_, height());
  const auto begin = static_cast<std::size_t>(start - base_height_);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(blocks_.size() - begin));
  for (std::size_t i = begin; i < blocks_.size(); ++i) {
    w.bytes(blocks_[i].encode());
  }
  return w.take();
}

Result<std::size_t> Blockchain::import_blocks(const Bytes& data) {
  ByteReader r(data);
  const std::uint32_t count = r.count(4, errc::kChainBadBlockCount);
  std::size_t appended = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const Block block = r.nested<Block>();
    if (!r.ok()) break;
    // Skip blocks we already have (replaying a full archive onto a node
    // that is partially synced).
    if (block.header.height < height()) continue;
    if (auto s = append(block); !s.ok()) {
      return make_error(s.error().code,
                        "import stopped at height " +
                            std::to_string(block.header.height) + ": " +
                            s.error().message);
    }
    ++appended;
  }
  return r.finish(appended, errc::kChainTrailing);
}

}  // namespace mv::ledger
