// Ledger state: balances, nonces, the on-chain audit log, and per-contract
// key-value stores.
//
// Two layers share one mutation interface (LedgerView), whose account
// primitives read and write one whole Account record and whose store
// primitive writes one entry (a value, or nullopt to erase):
//  - LedgerState is the committed, materialized state (a plain value type);
//  - LedgerStateOverlay is a copy-on-write delta over a base view, built via
//    the named factories reader()/writer()/nested(). It holds post-images:
//    each touched account whole, each touched store key as its value or a
//    tombstone. Block assembly and validation trial-apply transactions on
//    an overlay and commit (or discard) only the touched accounts/keys, so
//    the per-block cost is proportional to the block, not to the world.
//    Contract-call atomicity uses a nested overlay the same way.
//
// The materialized accounts live in one flat AccountTable (one probe per
// account). Commitments are LedgerState's alone (DESIGN.md §"State
// commitment"): the accounts are Merkleized (crypto::MerkleMap), the audit
// log carries a running chain hash, and each contract store an additive
// multiset digest, so commitment() is a fold of cached sections, and
// stage(block) over at most one block overlay costs O(touched · log n)
// instead of re-hashing the world. A stage keeps what it hashed (account
// leaves and tree nodes, the touched stores' digests, the extended audit
// chain), and absorb(block, &staged) installs those digests instead of
// hashing the block a second time: a sealed proposal is hashed once.
// full_rehash_commitment() recomputes everything from scratch as a
// differential-testing oracle.
//
// When account leaves are hashed: a block's accounts are re-leafed by the
// absorb() that commits it, in one batch. A put_account (and so a
// set_balance, set_nonce or credit) outside a block only records the
// address; the first reader of the accounts tree (commitment, stage,
// absorb, apply_undo, prove_account, flush_account_tree)
// settles every recorded address in one sorted batch. Every one of these,
// and load_accounts, grows the tree through MerkleMap::update, whether it
// is empty (a genesis built by credits) or not. Roots do not depend on when
// the leaves were hashed.
#pragma once

#include <concepts>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "crypto/merkle_map.h"
#include "crypto/set_hash.h"
#include "crypto/sha256.h"
#include "ledger/account_table.h"
#include "ledger/transaction.h"

namespace mv::ledger {

class ContractRegistry;

/// Audit record as stored on-chain (body + provenance).
struct StoredAuditRecord {
  crypto::Address collector;
  AuditRecordBody body;
  Tick height = 0;
};

/// Per-contract KV store. Contracts read it by key only (get/put/erase/bump);
/// store digests do not depend on entry order, which serves only the
/// snapshot encoding.
using ContractStore = std::map<std::string, Bytes>;

/// The one codec of fixed-width store values (counters, ids, addresses,
/// prices, royalties, scores): ByteWriter's little-endian layout of T.
/// Decoding is lenient: an absent (null) or short value reads as 0, so a
/// counter needs no initialization.
template <typename T>
concept StoreScalar = std::same_as<T, std::uint64_t> ||
                      std::same_as<T, std::int64_t> || std::same_as<T, std::uint32_t>;
template <StoreScalar T>
[[nodiscard]] Bytes store_encode(T v) {
  ByteWriter w;
  if constexpr (sizeof(T) == 4) {
    w.u32(v);
  } else {
    w.u64(static_cast<std::uint64_t>(v));
  }
  return w.take();
}
template <StoreScalar T>
[[nodiscard]] T store_decode(const Bytes* value) {
  // Lenient on purpose, no finish(): a missing or short value reads 0 (an
  // absent counter is zero) and a longer one its leading field.
  if (value == nullptr || value->size() < sizeof(T)) return 0;
  ByteReader r(*value);
  if constexpr (sizeof(T) == 4) {
    return r.read_u32();
  } else {
    return static_cast<T>(r.read_u64());
  }
}

/// Commitment to a full ledger state: one root digest plus the per-section
/// digests it is combined from. Returned by LedgerState::commitment() and
/// carried by LedgerState::stage(block); block headers carry `root`.
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

/// The section layout, in the one order the root hashes them and every wire
/// format (account proofs, snapshot manifests) carries them. `root` is not
/// written: it is derived.
template <typename Writer>
void write_commitment_sections(Writer& w, const StateCommitment& c) {
  w.raw(c.accounts_root);
  w.u64(c.account_count);
  w.raw(c.audit_digest);
  w.u64(c.audit_count);
  w.raw(c.stores_digest);
  w.u64(c.burned_fees);
}
/// Inverse of write_commitment_sections. `out.root` is recombined from the
/// sections (combine_commitment_root), never read off the wire, so a served
/// root that disagrees with its sections cannot exist.
[[nodiscard]] StateCommitment read_commitment_sections(ByteReader& r);

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
  /// Prior content of every account the block wrote, ascending by address
  /// (a leafless Account = the account did not exist).
  std::vector<Account> accounts;
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

/// Mutation/read interface shared by the committed state and overlays.
/// Transactions and contracts touch the ledger only through these
/// primitives, so the same apply() runs against either layer. An account is
/// read and written whole (one Account record); a store entry is written
/// through one call that puts (engaged) or erases (nullopt).
class LedgerView {
 public:
  virtual ~LedgerView() = default;

  // ---- accounts ----
  /// `a`'s account; a leafless Account{a} when it does not exist.
  [[nodiscard]] virtual Account account(crypto::Address a) const = 0;
  /// Replace `account.addr`'s content with `account`; a leafless account
  /// (no balance entry, nonce 0) removes it.
  virtual void put_account(const Account& account) = 0;

  /// Balance entry, or nullopt when the account was never credited. The
  /// distinction matters: debit refuses unknown accounts, and a zero entry
  /// is part of the state commitment.
  [[nodiscard]] std::optional<std::uint64_t> find_balance(crypto::Address a) const {
    return account(a).balance_entry();
  }
  [[nodiscard]] std::uint64_t balance(crypto::Address a) const {
    return account(a).balance;
  }
  [[nodiscard]] bool has_account(crypto::Address a) const {
    return account(a).has_balance;
  }
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const { return account(a).nonce; }
  void set_balance(crypto::Address a, std::uint64_t value);
  void set_nonce(crypto::Address a, std::uint64_t value);
  void credit(crypto::Address a, std::uint64_t amount);
  /// Debit; fails if the balance is insufficient (or the account is unknown).
  [[nodiscard]] Status debit(crypto::Address a, std::uint64_t amount);

  // ---- fees / audit ----
  [[nodiscard]] virtual std::uint64_t burned_fees() const = 0;
  virtual void add_burned_fees(std::uint64_t amount) = 0;
  virtual void append_audit(StoredAuditRecord record) = 0;

  // ---- contract stores ----
  [[nodiscard]] virtual const Bytes* store_get(const std::string& contract,
                                               const std::string& key) const = 0;
  /// Put (engaged) or erase (nullopt) `key` in `contract`'s store. Either
  /// creates the store if missing: an empty store is part of the
  /// commitment.
  virtual void store_write(const std::string& contract, const std::string& key,
                           std::optional<Bytes> value) = 0;
  void store_put(const std::string& contract, const std::string& key, Bytes value) {
    store_write(contract, key, std::move(value));
  }
  void store_erase(const std::string& contract, const std::string& key) {
    store_write(contract, key, std::nullopt);
  }

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

class LedgerStateOverlay;

class LedgerState final : public LedgerView {
 public:
  // ---- staged commitments (stage, absorb) ----
  /// Incrementally maintained digest of one contract store.
  struct StoreDigest {
    crypto::SetHash sum;       ///< multiset hash over (key, value) entries
    std::uint64_t count = 0;   ///< live entries

    [[nodiscard]] bool operator==(const StoreDigest&) const = default;
  };
  /// The commitment of this state with a block applied, plus every digest
  /// computing it took (stage()), for absorb() to install.
  struct Staged {
    StateCommitment commitment;  ///< the post-state commitment
    crypto::MerkleMap::Staged accounts;  ///< account leaves and tree nodes
    crypto::Digest base_audit_digest{};  ///< the chain hash it extended
    /// A touched store's digest before and after the block (a store the
    /// block creates starts from the empty digest).
    struct Store {
      StoreDigest base;
      StoreDigest post;
    };
    std::map<std::string, Store> stores;  ///< every store the block touched
  };

  // ---- accounts ----
  [[nodiscard]] Account account(crypto::Address a) const override;
  void put_account(const Account& account) override;

  /// Snapshot install: replace the whole account section from entries in
  /// strictly ascending address order. The table is filled once at its
  /// final size and the sorted leaves go into an empty accounts tree
  /// through one MerkleMap::update, the call a block commit makes. Every
  /// entry must be live() (a balance entry or nonzero nonce); order and
  /// liveness are the caller's contract (the strict snapshot decoder
  /// enforces both before calling).
  void load_accounts(const std::vector<Account>& sorted);

  /// Commit an overlay over this state in one pass and return the inverse
  /// of what it wrote. Each account post-image costs one table probe, which
  /// records its prior content and writes the image, and its leaf is
  /// refreshed exactly once (digests and Merkle leaf hashes batched). Store
  /// entries, audit records and burned fees follow. The overlay is left
  /// empty. Its base must be this state, as for stage(): a reader overlay
  /// (a sealed proposal) commits as it was built, and any other overlay is
  /// a hard failure.
  ///
  /// `staged`, when given, must be stage(overlay) taken on this state as it
  /// is now: the commit then hashes nothing. The accounts tree adopts the
  /// staged leaves and nodes (crypto::MerkleMap::adopt, which stamps them
  /// only on an unchanged tree), and the touched stores and the audit chain
  /// take their staged digests. A stage whose account updates are not the
  /// overlay's images (address, put or erase; the leaf values are not
  /// re-hashed), a store or audit base that is not this state's, or a
  /// touched store the stage lacks is a hard failure.
  /// apply_undo(result) restores the pre-commit state exactly.
  [[nodiscard]] StateUndo absorb(LedgerStateOverlay& overlay,
                                 const Staged* staged = nullptr);

  // ---- audit log (§II-D) ----
  [[nodiscard]] const std::vector<StoredAuditRecord>& audit_log() const {
    return audit_log_;
  }
  void append_audit(StoredAuditRecord record) override;

  // ---- contract stores ----
  [[nodiscard]] const ContractStore* find_store(const std::string& contract) const;
  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_write(const std::string& contract, const std::string& key,
                   std::optional<Bytes> value) override {
    (void)write_store_entry(contracts_[contract], &store_digests_[contract], key,
                            std::move(value));
  }
  /// Create `contract`'s (empty) store if missing, mirroring store_erase's
  /// side effect. The snapshot decoder uses this to rebuild empty stores,
  /// which the stores commitment covers (contract count + name).
  void materialize_store(const std::string& contract);

  // ---- state commitment ----
  /// Commitment to this state: the cached sections, folded.
  [[nodiscard]] StateCommitment commitment() const;
  /// Commitment to this state with `block` applied, without materializing
  /// it: `block`'s touched accounts, audit records, store entries and fees
  /// are read in place and combined with the cached Merkle tree and section
  /// digests, in O(touched · log n). The result keeps those digests, so
  /// absorb(block, &result) commits the block without hashing it again.
  /// `block` must be directly over this state (reader or writer); anything
  /// else is a hard failure, as in absorb().
  [[nodiscard]] Staged stage(const LedgerStateOverlay& block) const;
  /// Oracle: recompute the commitment from the raw maps with no incremental
  /// caches (independent account-tree recursion, audit chain refold, store
  /// digests from scratch). Differential tests assert it equals commitment().
  [[nodiscard]] StateCommitment full_rehash_commitment() const;
  [[nodiscard]] crypto::Digest full_rehash_root() const {
    return full_rehash_commitment().root;
  }

  [[nodiscard]] std::uint64_t burned_fees() const override { return burned_fees_; }
  void add_burned_fees(std::uint64_t amount) override { burned_fees_ += amount; }
  /// Accounts with a leaf (a balance entry or a nonzero nonce); equals
  /// commitment().account_count.
  [[nodiscard]] std::size_t account_count() const { return accounts_.size(); }

  // ---- raw section access (snapshot export / undo capture) ----
  /// Every account, unordered.
  [[nodiscard]] const AccountTable& accounts() const { return accounts_; }
  /// Every account, ascending by address (sorts a copy: O(n log n)).
  [[nodiscard]] std::vector<Account> sorted_accounts() const {
    return accounts_.sorted();
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

  /// Re-hash the accounts tree's dirty paths as parallel tasks on `queue`
  /// (crypto::MerkleMap::flush), so that the next commitment() folds only
  /// its top two levels. The commitment is the same with or without it.
  void flush_account_tree(JobQueue& queue) const {
    settle_account_leaves();
    account_tree_.flush(queue);
  }

  /// Merkle inclusion proof for `a` against the current accounts_root (a
  /// non-membership proof when the account has no leaf). Pair with
  /// commitment() for the section digests a verifier recombines.
  [[nodiscard]] crypto::MerkleMapProof prove_account(crypto::Address a) const {
    settle_account_leaves();
    return account_tree_.prove(a.value);
  }

 private:
  /// Bring the accounts tree up to date with the addresses put_account
  /// recorded: one sorted batch of leaves through
  /// MerkleMap::update. Every reader of account_tree_ calls this first. Like the
  /// tree's own hash caches it writes from const readers, so a state read
  /// from several threads must be committed once before it is shared.
  void settle_account_leaves() const;

  /// Write one entry of `store`, keeping `digest` in step unless it is
  /// null (absorb installing a staged digest). Returns the prior value
  /// (nullopt = absent) for absorb's undo.
  static std::optional<Bytes> write_store_entry(ContractStore& store,
                                                StoreDigest* digest,
                                                const std::string& key,
                                                std::optional<Bytes> value);

  AccountTable accounts_;
  std::vector<StoredAuditRecord> audit_log_;
  std::map<std::string, ContractStore> contracts_;
  std::uint64_t burned_fees_ = 0;

  // Maintained commitment sections (see DESIGN.md §"State commitment").
  /// addr -> account leaf, for every live account not in pending_leaves_.
  mutable crypto::MerkleMap account_tree_;
  /// Addresses put_account wrote since the last settle, unordered and
  /// possibly repeated; their leaves in account_tree_ are stale.
  mutable std::vector<crypto::Address> pending_leaves_;
  crypto::Digest audit_digest_{};                   ///< running chain hash
  std::map<std::string, StoreDigest> store_digests_;  ///< mirrors contracts_
};

/// Copy-on-write delta over a base view. Reads fall through to the base;
/// writes land in the overlay as post-images: a touched account is held
/// whole (its first write reads it through from the base once), a touched
/// store key as its value or a tombstone. commit() writes each image into
/// the base in O(touched); discarding the overlay (destruction) costs the
/// same.
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
  /// (logged abort) in every build type — it would discard the delta. The
  /// state it reads may still absorb it (a sealed proposal).
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

  [[nodiscard]] Account account(crypto::Address a) const override;
  void put_account(const Account& account) override {
    accounts_.insert_or_assign(account.addr, account);
  }

  [[nodiscard]] std::uint64_t burned_fees() const override;
  void add_burned_fees(std::uint64_t amount) override { burned_delta_ += amount; }
  void append_audit(StoredAuditRecord record) override;

  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override;
  void store_write(const std::string& contract, const std::string& key,
                   std::optional<Bytes> value) override {
    stores_[contract].insert_or_assign(key, std::move(value));
  }

  /// Fold the delta into the (writable) base. O(touched entries). A block's
  /// overlay over the materialized state commits through
  /// LedgerState::absorb instead, which also returns the undo.
  void commit();

  /// Number of accounts/keys recorded in the delta (diagnostics).
  [[nodiscard]] std::size_t touched() const;

 private:
  // absorb() consumes the delta and stage() reads it in place.
  friend class LedgerState;

  LedgerStateOverlay(const LedgerView* base, LedgerView* writable)
      : base_(base), writable_(writable) {}

  /// The account post-images, ascending by address.
  [[nodiscard]] std::vector<Account> account_images() const;

  const LedgerView* base_ = nullptr;  ///< read fall-through
  LedgerView* writable_ = nullptr;    ///< commit target (null = read-only)

  /// Post-image of every touched account (a leafless image = removed).
  std::map<crypto::Address, Account> accounts_;
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
  /// Read-add-write of the u64 counter at `key` (store_decode/store_encode;
  /// an absent counter reads as 0, arithmetic wraps modulo 2^64). Returns
  /// the value before the add, so an id allocator is one call.
  std::uint64_t bump(const std::string& key, std::int64_t delta);

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
