// Ledger state: balances, nonces, the on-chain audit log, and per-contract
// key-value stores.
//
// Two layers share one mutation interface (LedgerView):
//  - LedgerState is the committed, materialized state (a plain value type);
//  - LedgerStateOverlay is a copy-on-write delta over a base view, built via
//    the named factories reader()/writer()/nested(). Block assembly and
//    validation trial-apply transactions on an overlay and commit (or
//    discard) only the touched accounts/keys, so the per-block cost is
//    proportional to the block, not to the world. Contract-call atomicity
//    uses a nested overlay the same way.
//
// State commitment is incremental (DESIGN.md §"State commitment"): the
// account map is Merkleized (crypto::MerkleMap), the audit log carries a
// running chain hash, and each contract store an additive multiset digest,
// so commitment() costs O(touched · log n) on an overlay instead of
// re-hashing the world. full_rehash_commitment() recomputes everything from
// scratch as a differential-testing oracle.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "crypto/merkle_map.h"
#include "crypto/set_hash.h"
#include "crypto/sha256.h"
#include "ledger/transaction.h"

namespace mv::ledger {

class ContractRegistry;

/// Audit record as stored on-chain (body + provenance).
struct StoredAuditRecord {
  crypto::Address collector;
  AuditRecordBody body;
  Tick height = 0;
};

/// Per-contract ordered KV store. Ordered so commitments are canonical.
using ContractStore = std::map<std::string, Bytes>;

/// Commitment to a full ledger state: one root digest plus the per-section
/// digests it is combined from. Returned by LedgerView::commitment() on the
/// materialized state and on overlays at any nesting depth; block headers
/// carry `root`.
struct StateCommitment {
  crypto::Digest root{};           ///< combined commitment (block header field)
  crypto::Digest accounts_root{};  ///< MerkleMap root over account leaves
  std::uint64_t account_count = 0;
  crypto::Digest audit_digest{};   ///< running hash over the audit log
  std::uint64_t audit_count = 0;
  crypto::Digest stores_digest{};  ///< combined per-contract-store digests
  std::uint64_t burned_fees = 0;

  [[nodiscard]] bool operator==(const StateCommitment&) const = default;
};

/// Recombine a commitment's section digests into its root (the
/// "mv.state.v2" layout, DESIGN.md §"State commitment"). Light clients use
/// this to check a served section breakdown against a header's state_root.
[[nodiscard]] crypto::Digest combine_commitment_root(const StateCommitment& c);

/// Digest of one account leaf as committed in the accounts MerkleMap:
/// sha256(u8(has_balance) || u64(balance) || u64(nonce)). A leaf exists iff
/// the account has a balance entry or a nonzero nonce. Exposed so account
/// proofs can be verified without a LedgerState.
[[nodiscard]] crypto::Digest account_leaf_digest(bool has_balance,
                                                 std::uint64_t balance,
                                                 std::uint64_t nonce);

/// Inverse of one committed block's delta, recorded while the commit writes
/// it (LedgerState::absorb). Blockchain keeps a bounded ring of
/// these so recent historical states can be reconstructed for snapshot
/// export and stale-height account proofs — O(touched) to capture, O(sum of
/// touched) to roll back, instead of a full per-height state copy.
struct StateUndo {
  /// Prior balance entries for every balance the block wrote
  /// (nullopt = the account had no balance entry).
  std::map<crypto::Address, std::optional<std::uint64_t>> balances;
  /// Prior nonce entries for every nonce the block wrote (nullopt = the
  /// account had no nonce entry).
  std::map<crypto::Address, std::optional<std::uint64_t>> nonces;
  struct StoreUndo {
    bool existed = true;  ///< store was materialized before the block
    /// Prior values for every key the block wrote (nullopt = absent).
    std::map<std::string, std::optional<Bytes>> entries;
  };
  std::map<std::string, StoreUndo> stores;
  std::size_t audit_count = 0;        ///< audit log length before the block
  crypto::Digest audit_digest{};      ///< running chain hash before the block
  std::uint64_t burned_delta = 0;     ///< fees the block burned
};

/// A view delta flattened for commitment computation: the overlay stack folds
/// itself into one of these and hands it to the materialized base. Internal
/// plumbing for commitment_with(); use LedgerView::commitment() instead.
struct CommitmentDelta {
  std::map<crypto::Address, std::uint64_t> balances;
  std::map<crypto::Address, std::uint64_t> nonces;
  std::vector<const StoredAuditRecord*> audit;  ///< appended, oldest first
  /// contract -> key -> new value (pointer into an overlay; nullopt* = erase)
  std::map<std::string, std::map<std::string, const std::optional<Bytes>*>> stores;
  std::uint64_t burned = 0;
};

/// Mutation/read interface shared by the committed state and overlays.
/// Transactions and contracts touch the ledger only through these
/// primitives, so the same apply() runs against either layer.
class LedgerView {
 public:
  virtual ~LedgerView() = default;

  // ---- accounts ----
  /// Balance entry, or nullopt when the account was never credited. The
  /// distinction matters: debit refuses unknown accounts, and a zero entry
  /// is part of the state commitment.
  [[nodiscard]] virtual std::optional<std::uint64_t> find_balance(
      crypto::Address a) const = 0;
  [[nodiscard]] std::uint64_t balance(crypto::Address a) const {
    return find_balance(a).value_or(0);
  }
  [[nodiscard]] bool has_account(crypto::Address a) const {
    return find_balance(a).has_value();
  }
  [[nodiscard]] virtual std::uint64_t nonce(crypto::Address a) const = 0;
  virtual void set_balance(crypto::Address a, std::uint64_t value) = 0;
  virtual void set_nonce(crypto::Address a, std::uint64_t value) = 0;

  // ---- fees / audit ----
  [[nodiscard]] virtual std::uint64_t burned_fees() const = 0;
  virtual void add_burned_fees(std::uint64_t amount) = 0;
  virtual void append_audit(StoredAuditRecord record) = 0;

  // ---- contract stores ----
  [[nodiscard]] virtual const Bytes* store_get(const std::string& contract,
                                               const std::string& key) const = 0;
  virtual void store_put(const std::string& contract, const std::string& key,
                         Bytes value) = 0;
  virtual void store_erase(const std::string& contract,
                           const std::string& key) = 0;
  [[nodiscard]] virtual std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const = 0;

  // ---- state commitment ----
  /// Commitment to this view's full state (root + per-section digests).
  /// O(touched · log n) on an overlay — the base's cached Merkle tree and
  /// section digests are combined with the delta without materializing —
  /// and valid at any overlay nesting depth.
  [[nodiscard]] StateCommitment commitment() const {
    return commitment_with(CommitmentDelta{});
  }
  /// Internal: commitment of this view's state with `delta` stacked on top.
  /// Overlays fold their own delta into `delta` and recurse into their base.
  /// Public only so overlays can recurse through any LedgerView base.
  [[nodiscard]] virtual StateCommitment commitment_with(
      const CommitmentDelta& delta) const = 0;

  // ---- conveniences built on the primitives ----
  void credit(crypto::Address a, std::uint64_t amount);
  /// Debit; fails if the balance is insufficient (or the account is unknown).
  [[nodiscard]] Status debit(crypto::Address a, std::uint64_t amount);

  /// Validate and apply one transaction at the given height.
  /// Checks: signature, nonce equality, fee affordability, kind-specific body.
  /// Atomic: any failure leaves the view exactly as it was (contract calls
  /// run in a nested overlay that is committed only on success).
  /// `signature_preverified` skips the in-line signature check; pass true
  /// only when signature_valid() was already observed true for `tx` (the
  /// block loop vouches for it through the verified-signature cache).
  [[nodiscard]] Status apply(const Transaction& tx,
                             const ContractRegistry& contracts, Tick height,
                             bool signature_preverified = false);
};

/// One account's full content, used to bulk-load the account section on
/// snapshot install (LedgerState::load_accounts).
class LedgerStateOverlay;

struct AccountSeed {
  crypto::Address addr;
  std::optional<std::uint64_t> balance;  ///< engaged = balance entry exists
  std::uint64_t nonce = 0;
};

class LedgerState final : public LedgerView {
 public:
  // ---- accounts ----
  [[nodiscard]] std::optional<std::uint64_t> find_balance(
      crypto::Address a) const override;
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const override;
  void set_balance(crypto::Address a, std::uint64_t value) override;
  void set_nonce(crypto::Address a, std::uint64_t value) override;

  /// Snapshot-install fast path: replace the whole account section from
  /// entries in strictly ascending address order. The balance/nonce maps are
  /// range-constructed (O(n) on sorted input) and the accounts Merkle tree
  /// is bulk-built from sorted leaves (MerkleMap::from_sorted_leaves) —
  /// one leaf hash per account, no per-key descents — instead of n
  /// set_balance/set_nonce round trips through refresh_account_leaf. Every
  /// entry must carry a leaf (a balance entry or nonzero nonce); order and
  /// leaf presence are the caller's contract (the strict snapshot decoder
  /// enforces both before calling).
  void load_accounts(const std::vector<AccountSeed>& sorted);

  /// Commit a writer overlay over this state in one pass and return the
  /// inverse of what it wrote. Balances and nonces are walked in one ordered
  /// merge: each written entry costs one try_emplace, which records the
  /// prior value and writes the new one, and each touched account's leaf is
  /// refreshed exactly once (digests and Merkle leaf hashes batched). Store
  /// entries, audit records and burned fees follow. The overlay is left
  /// empty; its base must be this state (a hard failure otherwise).
  /// apply_undo(result) restores the pre-commit state exactly.
  [[nodiscard]] StateUndo absorb(LedgerStateOverlay& overlay);

  // ---- audit log (§II-D) ----
  [[nodiscard]] const std::vector<StoredAuditRecord>& audit_log() const {
    return audit_log_;
  }
  void append_audit(StoredAuditRecord record) override;

  // ---- contract stores ----
  [[nodiscard]] const ContractStore* find_store(const std::string& contract) const;
  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_put(const std::string& contract, const std::string& key,
                 Bytes value) override;
  void store_erase(const std::string& contract, const std::string& key) override;
  /// Create `contract`'s (empty) store if missing, mirroring store_erase's
  /// side effect. The snapshot decoder uses this to rebuild empty stores,
  /// which the stores commitment covers (contract count + name).
  void materialize_store(const std::string& contract);
  [[nodiscard]] std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const override;

  // ---- state commitment ----
  [[nodiscard]] StateCommitment commitment_with(
      const CommitmentDelta& delta) const override;
  /// Oracle: recompute the commitment from the raw maps with no incremental
  /// caches (independent account-tree recursion, audit chain refold, store
  /// digests from scratch). Differential tests assert it equals commitment().
  [[nodiscard]] StateCommitment full_rehash_commitment() const;
  [[nodiscard]] crypto::Digest full_rehash_root() const {
    return full_rehash_commitment().root;
  }

  [[nodiscard]] std::uint64_t burned_fees() const override { return burned_fees_; }
  void add_burned_fees(std::uint64_t amount) override { burned_fees_ += amount; }
  [[nodiscard]] std::size_t account_count() const { return balances_.size(); }

  // ---- raw section access (snapshot export / undo capture) ----
  [[nodiscard]] const std::map<crypto::Address, std::uint64_t>& balances() const {
    return balances_;
  }
  [[nodiscard]] const std::map<crypto::Address, std::uint64_t>& nonces() const {
    return nonces_;
  }
  [[nodiscard]] const std::map<std::string, ContractStore>& stores() const {
    return contracts_;
  }
  /// Running audit chain hash (the commitment's audit section, cached).
  [[nodiscard]] const crypto::Digest& audit_digest() const { return audit_digest_; }

  /// Roll back one committed block's delta (see StateUndo). The undo must
  /// have been captured against exactly this state's pre-block version and
  /// undos must be applied newest-first; anything else corrupts the state.
  void apply_undo(const StateUndo& undo);

  /// Snapshot-export fast path: a copy carrying the raw content sections
  /// (balances, nonces, audit log, stores, burned fees, cached section
  /// digests) but an EMPTY accounts Merkle tree — cloning the tree is the
  /// dominant cost of a full copy, and the exporter takes the manifest
  /// commitment from the chain's retention ring instead. apply_undo works on
  /// the clone (leaf refreshes land in a small scratch tree), but any
  /// commitment-bearing API touching the accounts tree returns garbage by
  /// construction: the clone must stay local to the export path.
  [[nodiscard]] LedgerState content_clone() const;

  /// Merkle inclusion proof for `a` against the current accounts_root (a
  /// non-membership proof when the account has no leaf). Pair with
  /// commitment() for the section digests a verifier recombines.
  [[nodiscard]] crypto::MerkleMapProof prove_account(crypto::Address a) const {
    return accounts_.prove(a.value);
  }

 private:
  /// Re-derive the Merkle leaf for `a` from balances_/nonces_ (absent when
  /// the account has neither a balance entry nor a nonzero nonce).
  void refresh_account_leaf(crypto::Address a);

  /// Incrementally maintained digest of one contract store.
  struct StoreDigest {
    crypto::SetHash sum;       ///< multiset hash over (key, value) entries
    std::uint64_t count = 0;   ///< live entries
  };

  /// Put (engaged) or erase (nullopt) `key` in `contract`'s store, creating
  /// the store if missing and keeping its digest in step. Returns the prior
  /// value (nullopt = absent).
  std::optional<Bytes> write_store_entry(const std::string& contract,
                                         const std::string& key,
                                         std::optional<Bytes> value);

  std::map<crypto::Address, std::uint64_t> balances_;
  std::map<crypto::Address, std::uint64_t> nonces_;
  std::vector<StoredAuditRecord> audit_log_;
  std::map<std::string, ContractStore> contracts_;
  std::uint64_t burned_fees_ = 0;

  // Maintained commitment sections (see DESIGN.md §"State commitment").
  crypto::MerkleMap accounts_;                      ///< addr -> account leaf
  crypto::Digest audit_digest_{};                   ///< running chain hash
  std::map<std::string, StoreDigest> store_digests_;  ///< mirrors contracts_
};

/// Copy-on-write delta over a base view. Reads fall through to the base;
/// writes land in the overlay. commit() folds the delta into the base in
/// O(touched); discarding the overlay (destruction) costs the same.
///
/// Construct via the named factories — the intent is part of the call site:
///   auto scratch = LedgerStateOverlay::reader(base);   // no commit right
///   auto scratch = LedgerStateOverlay::writer(base);   // commit() folds in
///   auto scratch = LedgerStateOverlay::nested(parent); // sub-tx atomicity
///
/// Single-use: after commit() the overlay is empty and should be dropped.
class LedgerStateOverlay final : public LedgerView {
 public:
  /// Read-only base: trial application without the right to commit
  /// (block validation on a const chain). commit() is a hard failure
  /// (logged abort) in every build type — it would discard the delta.
  [[nodiscard]] static LedgerStateOverlay reader(const LedgerView& base) {
    return LedgerStateOverlay(&base, nullptr);
  }
  /// Writable base: commit() folds the delta into `base`.
  [[nodiscard]] static LedgerStateOverlay writer(LedgerView& base) {
    return LedgerStateOverlay(&base, &base);
  }
  /// Nested overlay over another overlay (contract-call atomicity). Same
  /// mechanics as writer(); the name keeps sub-transaction call sites honest.
  [[nodiscard]] static LedgerStateOverlay nested(LedgerView& parent) {
    return LedgerStateOverlay(&parent, &parent);
  }

  [[nodiscard]] std::optional<std::uint64_t> find_balance(
      crypto::Address a) const override;
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const override;
  void set_balance(crypto::Address a, std::uint64_t value) override;
  void set_nonce(crypto::Address a, std::uint64_t value) override;

  [[nodiscard]] std::uint64_t burned_fees() const override;
  void add_burned_fees(std::uint64_t amount) override { burned_delta_ += amount; }
  void append_audit(StoredAuditRecord record) override;

  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_put(const std::string& contract, const std::string& key,
                 Bytes value) override;
  void store_erase(const std::string& contract, const std::string& key) override;
  [[nodiscard]] std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const override;

  /// Folds this overlay's delta into `delta` (the layers stacked above it)
  /// and recurses into the base, so the commitment works at any depth.
  [[nodiscard]] StateCommitment commitment_with(
      const CommitmentDelta& delta) const override;

  /// Re-point this overlay at `base` as a writer. `base` must hold exactly
  /// the state the delta was computed over (a sealed proposal moving from
  /// the shared genesis to the chain's materialized copy of it). O(1).
  void rebase_writer(LedgerView& base) { base_ = writable_ = &base; }

  /// Fold the delta into the (writable) base. O(touched entries). A block's
  /// overlay over the materialized state commits through
  /// LedgerState::absorb instead, which also returns the undo.
  void commit();

  /// Number of accounts/keys recorded in the delta (diagnostics).
  [[nodiscard]] std::size_t touched() const;

 private:
  friend class LedgerState;  // absorb() consumes the delta directly

  LedgerStateOverlay(const LedgerView* base, LedgerView* writable)
      : base_(base), writable_(writable) {}

  const LedgerView* base_ = nullptr;  ///< read fall-through
  LedgerView* writable_ = nullptr;    ///< commit target (null = read-only)

  std::map<crypto::Address, std::uint64_t> balances_;
  std::map<crypto::Address, std::uint64_t> nonces_;
  std::vector<StoredAuditRecord> audit_appended_;
  /// nullopt marks a deletion (tombstone).
  std::map<std::string, std::map<std::string, std::optional<Bytes>>> stores_;
  std::uint64_t burned_delta_ = 0;
};

/// Execution context handed to contracts. Contracts touch the ledger only
/// through this interface; their own store is pre-resolved.
class CallContext {
 public:
  CallContext(LedgerView& state, std::string contract_name,
              crypto::Address caller, Tick height)
      : state_(state),
        contract_name_(std::move(contract_name)),
        caller_(caller),
        height_(height) {}

  [[nodiscard]] crypto::Address caller() const { return caller_; }
  [[nodiscard]] Tick height() const { return height_; }

  // KV on the contract's own store.
  [[nodiscard]] const Bytes* get(const std::string& key) const;
  void put(const std::string& key, Bytes value);
  void erase(const std::string& key);
  /// Iterate keys with a given prefix (ordered).
  [[nodiscard]] std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  // Funds held by accounts (escrow flows in the NFT market).
  [[nodiscard]] std::uint64_t balance(crypto::Address a) const { return state_.balance(a); }
  [[nodiscard]] Status transfer(crypto::Address from, crypto::Address to,
                                std::uint64_t amount);
  /// Remove funds from circulation on this ledger (cross-shard lock). Fails
  /// exactly like a transfer when `from` cannot cover `amount`. Conservation
  /// shifts from per-ledger to cross-ledger: the caller must account for the
  /// burned amount elsewhere (ledger/shard.h tracks it as locked value).
  [[nodiscard]] Status burn(crypto::Address from, std::uint64_t amount);
  /// Create funds on this ledger (cross-shard mint against a proven receipt).
  /// The inverse of burn(); only contracts mediating an audited cross-ledger
  /// flow should call it.
  void mint(crypto::Address to, std::uint64_t amount);

 private:
  LedgerView& state_;
  std::string contract_name_;
  crypto::Address caller_;
  Tick height_;
};

/// Contract logic. Stateless — all persistent data lives in the LedgerState
/// store so that state copies stay consistent.
class Contract {
 public:
  virtual ~Contract() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Status call(CallContext& ctx, const std::string& method,
                                    const Bytes& args) const = 0;
};

class ContractRegistry {
 public:
  void install(std::shared_ptr<const Contract> contract);
  [[nodiscard]] const Contract* find(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const Contract>> contracts_;
};

}  // namespace mv::ledger
