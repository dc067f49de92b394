#include "ledger/state.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <span>
#include <utility>

#include "common/logging.h"

namespace mv::ledger {

namespace {

void hash_audit_record(crypto::HashWriter& w, const StoredAuditRecord& rec) {
  w.u64(rec.collector.value);
  w.raw(rec.body.encode());
  w.i64(rec.height);
}

/// One link of the audit log's running hash: h' = H(h || record).
crypto::Digest chain_audit(const crypto::Digest& h, const StoredAuditRecord& rec) {
  crypto::HashWriter w;
  w.raw(h);
  hash_audit_record(w, rec);
  return w.digest();
}

/// Element digest of one contract-store entry for the multiset section hash.
crypto::Digest store_entry_hash(const std::string& key, const Bytes& value) {
  crypto::HashWriter w;
  w.str(key);
  w.bytes(value);
  return w.digest();
}

/// Two-pointer merge of a base map and a delta map (delta wins on equal
/// keys), visiting entries in key order. `emit(key, base_value_or_null,
/// delta_value_or_null)` is called once per merged key.
template <typename BaseMap, typename DeltaMap, typename Emit>
void merge_maps(const BaseMap& base, const DeltaMap& delta, Emit emit) {
  auto bit = base.begin();
  auto dit = delta.begin();
  while (bit != base.end() || dit != delta.end()) {
    if (dit == delta.end() || (bit != base.end() && bit->first < dit->first)) {
      emit(bit->first, &bit->second, nullptr);
      ++bit;
    } else if (bit == base.end() || dit->first < bit->first) {
      emit(dit->first, nullptr, &dit->second);
      ++dit;
    } else {
      emit(bit->first, &bit->second, &dit->second);
      ++bit;
      ++dit;
    }
  }
}

/// The preimage account_leaf_digest hashes (flag || balance || nonce, 17
/// bytes): it fits a single compression block, so batches of them run in
/// interleaved SHA lanes.
constexpr std::size_t kAccountLeafWidth = 1 + 8 + 8;
void pack_account_leaf(const Account& a, std::uint8_t* p) {
  p[0] = a.has_balance ? 1 : 0;
  crypto::store_le64(p + 1, a.balance);
  crypto::store_le64(p + 9, a.nonce);
}

/// account_leaf_digest of every account in one batched pass.
std::vector<crypto::Digest> account_leaf_digests(std::span<const Account> accounts) {
  return crypto::sha256_fixed_batch<kAccountLeafWidth>(
      accounts.size(),
      [&](std::size_t i, std::uint8_t* p) { pack_account_leaf(accounts[i], p); });
}

/// Merkle leaf updates for accounts whose content changed: put the leaf of
/// each live account, erase the leaf of each leafless one.
std::vector<crypto::MerkleMap::Entry> account_leaves(std::span<const Account> accounts) {
  const std::vector<crypto::Digest> digests = account_leaf_digests(accounts);
  std::vector<crypto::MerkleMap::Entry> leaves;
  leaves.reserve(accounts.size());
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    leaves.emplace_back(accounts[i].addr.value,
                        accounts[i].live() ? std::optional(digests[i]) : std::nullopt);
  }
  return leaves;
}

/// Sort addresses ascending: LSD radix, one byte a pass. All eight byte
/// histograms come from one read, and a byte that every address shares
/// costs no pass. Linear in the count: a comparison sort was a sizeable
/// share of settling a freshly credited 10^4-account genesis.
void sort_addresses(std::vector<crypto::Address>& addrs) {
  if (addrs.empty()) return;
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const crypto::Address a : addrs) {
    for (std::size_t b = 0; b < 8; ++b) ++counts[b][(a.value >> (8 * b)) & 0xFF];
  }
  std::vector<crypto::Address> out(addrs.size());
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::size_t, 256>& at = counts[b];
    if (at[(addrs[0].value >> (8 * b)) & 0xFF] == addrs.size()) continue;
    std::size_t sum = 0;
    for (std::size_t& c : at) sum += std::exchange(c, sum);
    for (const crypto::Address a : addrs) out[at[(a.value >> (8 * b)) & 0xFF]++] = a;
    addrs.swap(out);
  }
}

/// Hard failure in every build type unless `ok`: `what` names the misuse,
/// and going on would commit or hash the wrong delta. Overlays must be
/// directly over the state reading them, and a stage must describe the
/// state absorbing it.
void require(bool ok, const char* what, const LedgerStateOverlay& overlay) {
  if (ok) return;
  MV_LOG_ERROR << what << " (" << overlay.touched() << " touched entries)";
  std::clog.flush();  // abort() skips stream teardown; surface the message
  std::abort();
}

}  // namespace

// The key (address) is mixed in by MerkleMap's leaf hash; the payload
// commits to balance presence, balance, and nonce.
crypto::Digest account_leaf_digest(bool has_balance, std::uint64_t balance,
                                   std::uint64_t nonce) {
  crypto::HashWriter w;
  w.u8(has_balance ? 1 : 0);
  w.u64(balance);
  w.u64(nonce);
  return w.digest();
}

// Combine the root from the section digests (the commitment layout spec in
// DESIGN.md §"State commitment" documents this byte order).
crypto::Digest combine_commitment_root(const StateCommitment& c) {
  crypto::HashWriter w;
  w.str("mv.state.v2");
  write_commitment_sections(w, c);
  return w.digest();
}

StateCommitment read_commitment_sections(ByteReader& r) {
  StateCommitment c;
  r.read_fixed(c.accounts_root);
  c.account_count = r.read_u64();
  r.read_fixed(c.audit_digest);
  c.audit_count = r.read_u64();
  r.read_fixed(c.stores_digest);
  c.burned_fees = r.read_u64();
  c.root = combine_commitment_root(c);
  return c;
}

// ------------------------------------------------------------- LedgerView

void LedgerView::set_balance(crypto::Address a, std::uint64_t value) {
  Account next = account(a);
  next.has_balance = true;
  next.balance = value;
  put_account(next);
}

void LedgerView::set_nonce(crypto::Address a, std::uint64_t value) {
  Account next = account(a);
  next.nonce = value;
  put_account(next);
}

void LedgerView::credit(crypto::Address a, std::uint64_t amount) {
  Account next = account(a);
  next.has_balance = true;
  next.balance += amount;
  put_account(next);
}

Status LedgerView::debit(crypto::Address a, std::uint64_t amount) {
  Account next = account(a);
  if (!next.has_balance || next.balance < amount) {
    return Status::fail(errc::kStateInsufficientFunds,
                        "balance below " + std::to_string(amount));
  }
  next.balance -= amount;
  put_account(next);
  return {};
}

Status LedgerView::apply(const Transaction& tx,
                         const ContractRegistry& contracts, Tick height,
                         bool signature_preverified) {
  // apply() is atomic: any failure leaves the view exactly as it was, so
  // block assembly can trial-apply candidates in sequence and skip failures.
  if (!signature_preverified && !tx.signature_valid()) {
    return Status::fail(errc::kTxBadSignature, "signature does not verify");
  }
  const crypto::Address sender = tx.sender();
  // One read of the sender serves the nonce check, the affordability check
  // and, for transfers and audit records, its one write (debit and nonce
  // bump together). All checks come before any mutation, which keeps those
  // branches trivially atomic. A sender without a balance entry reads a
  // balance of 0 and is never given one.
  Account from = account(sender);
  if (tx.nonce != from.nonce) {
    return Status::fail(errc::kTxBadNonce,
                        "expected " + std::to_string(from.nonce) + " got " +
                            std::to_string(tx.nonce));
  }
  switch (tx.kind) {
    case TxKind::kTransfer: {
      auto body = TransferBody::decode(tx.payload);
      if (!body.ok()) return Status::fail(body.error().code, body.error().message);
      if (!body.value().to.valid()) {
        return Status::fail(errc::kTxBadRecipient, "null recipient");
      }
      const std::uint64_t need = tx.fee + body.value().amount;
      if (from.balance < need) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover amount + fee");
      }
      if (from.has_balance) from.balance -= need;
      from.nonce = tx.nonce + 1;
      put_account(from);
      // After the sender's write, so that a transfer to oneself reads it.
      credit(body.value().to, body.value().amount);
      break;
    }
    case TxKind::kAuditRecord: {
      auto body = AuditRecordBody::decode(tx.payload);
      if (!body.ok()) return Status::fail(body.error().code, body.error().message);
      if (from.balance < tx.fee) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover fee");
      }
      if (from.has_balance) from.balance -= tx.fee;
      from.nonce = tx.nonce + 1;
      put_account(from);
      append_audit(StoredAuditRecord{sender, std::move(body).value(), height});
      break;
    }
    case TxKind::kContractCall: {
      const Contract* contract = contracts.find(tx.contract);
      if (contract == nullptr) {
        return Status::fail(errc::kTxUnknownContract, tx.contract);
      }
      if (from.balance < tx.fee) {
        return Status::fail(errc::kStateInsufficientFunds, "cannot cover fee");
      }
      // Contract bodies may fail after arbitrary writes; running the call in
      // a nested overlay keeps the whole transaction atomic — discarding the
      // overlay on failure costs O(writes), not a full-state snapshot.
      auto scratch = LedgerStateOverlay::nested(*this);
      (void)scratch.debit(sender, tx.fee);
      CallContext ctx(scratch, tx.contract, sender, height);
      if (Status status = contract->call(ctx, tx.method, tx.payload); !status.ok()) {
        return status;
      }
      scratch.commit();
      set_nonce(sender, tx.nonce + 1);
      break;
    }
    default:
      return Status::fail(errc::kTxBadKind, "unknown transaction kind");
  }
  add_burned_fees(tx.fee);
  return {};
}

// ------------------------------------------------------------ LedgerState

Account LedgerState::account(crypto::Address a) const {
  const Account* found = accounts_.find(a);
  return found != nullptr ? *found : Account{a};
}

void LedgerState::put_account(const Account& account) {
  (void)accounts_.put(account);
  pending_leaves_.push_back(account.addr);
  // Repeated writes to the same accounts settle early rather than let the
  // record outgrow the state it describes.
  if (pending_leaves_.size() > 2 * accounts_.size() + 1024) settle_account_leaves();
}

void LedgerState::settle_account_leaves() const {
  if (pending_leaves_.empty()) return;
  std::vector<crypto::Address> addrs = std::exchange(pending_leaves_, {});
  sort_addresses(addrs);
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  // The leaf digests are batched straight from table lookups, with no copy
  // of the accounts: packing a preimage engages its entry's value, and an
  // address the table no longer holds keeps nullopt and is erased.
  std::vector<crypto::MerkleMap::Entry> leaves(addrs.size());
  crypto::sha256_fixed_batch<kAccountLeafWidth>(
      addrs.size(),
      [&](std::size_t i, std::uint8_t* p) {
        leaves[i].first = addrs[i].value;
        const Account* account = accounts_.find(addrs[i]);
        if (account != nullptr) leaves[i].second.emplace();
        pack_account_leaf(account != nullptr ? *account : Account{addrs[i]}, p);
      },
      [&](std::size_t i, const crypto::Digest& d) {
        if (leaves[i].second.has_value()) *leaves[i].second = d;
      });
  account_tree_.update(leaves);
}

void LedgerState::load_accounts(const std::vector<Account>& sorted) {
  accounts_ = AccountTable();
  accounts_.reserve(sorted.size());
  for (const Account& account : sorted) accounts_.put(account);
  pending_leaves_.clear();
  account_tree_ = crypto::MerkleMap();
  account_tree_.update(account_leaves(sorted));
}

StateUndo LedgerState::absorb(LedgerStateOverlay& overlay, const Staged* staged) {
  require(overlay.base_ == this,
          "LedgerState::absorb() of an overlay over another view", overlay);
  settle_account_leaves();
  StateUndo undo;
  // Accounts: one table probe per post-image (ascending by address) writes
  // it and records the prior content; the images' leaves are then rebuilt
  // in one batch, or adopted with the tree nodes from the stage.
  const std::vector<Account> images = overlay.account_images();
  undo.accounts.reserve(images.size());
  for (const Account& image : images) undo.accounts.push_back(accounts_.put(image));
  if (staged != nullptr) {
    // The stage must name the same accounts, each put or erased as its
    // image is; comparing the leaf values would mean hashing them again.
    const auto& updates = staged->accounts.updates;
    bool same = updates.size() == images.size();
    for (std::size_t i = 0; same && i < images.size(); ++i) {
      same = updates[i].key == images[i].addr.value &&
             updates[i].value.has_value() == images[i].live();
    }
    require(same, "LedgerState::absorb() of a stage of another overlay", overlay);
    account_tree_.adopt(staged->accounts);
  } else {
    account_tree_.update(account_leaves(images));
  }

  for (auto& [contract, delta] : overlay.stores_) {
    StateUndo::StoreUndo& su = undo.stores[contract];
    su.existed = contracts_.contains(contract);
    ContractStore& store = contracts_[contract];
    StoreDigest& digest = store_digests_[contract];
    const Staged::Store* adopted = nullptr;
    if (staged != nullptr) {
      const auto it = staged->stores.find(contract);
      require(it != staged->stores.end() && it->second.base == digest,
              "LedgerState::absorb() of a stage that lacks a touched store or has "
              "another base for it",
              overlay);
      adopted = &it->second;
    }
    for (auto& [key, value] : delta) {
      su.entries.emplace_hint(
          su.entries.end(), key,
          write_store_entry(store, adopted != nullptr ? nullptr : &digest, key,
                            std::move(value)));
    }
    if (adopted != nullptr) digest = adopted->post;
  }
  undo.audit_count = audit_log_.size();
  undo.audit_digest = audit_digest_;
  if (staged != nullptr) {
    require(staged->base_audit_digest == audit_digest_,
            "LedgerState::absorb() of a stage with another audit base", overlay);
    for (auto& rec : overlay.audit_appended_) audit_log_.push_back(std::move(rec));
    audit_digest_ = staged->commitment.audit_digest;
  } else {
    for (auto& rec : overlay.audit_appended_) append_audit(std::move(rec));
  }
  undo.burned_delta = overlay.burned_delta_;
  burned_fees_ += overlay.burned_delta_;

  overlay.accounts_.clear();
  overlay.audit_appended_.clear();
  overlay.stores_.clear();
  overlay.burned_delta_ = 0;
  return undo;
}

void LedgerState::append_audit(StoredAuditRecord record) {
  audit_digest_ = chain_audit(audit_digest_, record);
  audit_log_.push_back(std::move(record));
}

const ContractStore* LedgerState::find_store(const std::string& contract) const {
  const auto it = contracts_.find(contract);
  return it == contracts_.end() ? nullptr : &it->second;
}

const Bytes* LedgerState::store_get(const std::string& contract,
                                    const std::string& key) const {
  const ContractStore* store = find_store(contract);
  if (store == nullptr) return nullptr;
  const auto it = store->find(key);
  return it == store->end() ? nullptr : &it->second;
}

std::optional<Bytes> LedgerState::write_store_entry(ContractStore& store,
                                                    StoreDigest* digest,
                                                    const std::string& key,
                                                    std::optional<Bytes> value) {
  std::optional<Bytes> prior;
  auto it = store.find(key);
  if (it != store.end()) {
    if (digest != nullptr) {
      digest->sum.remove(store_entry_hash(key, it->second));
      --digest->count;
    }
    prior = std::move(it->second);
    if (!value.has_value()) store.erase(it);
  }
  if (value.has_value()) {
    if (digest != nullptr) {
      digest->sum.add(store_entry_hash(key, *value));
      ++digest->count;
    }
    if (it != store.end()) {
      it->second = std::move(*value);
    } else {
      store.emplace(key, std::move(*value));
    }
  }
  return prior;
}

void LedgerState::materialize_store(const std::string& contract) {
  contracts_[contract];
  store_digests_[contract];
}

void LedgerState::apply_undo(const StateUndo& undo) {
  settle_account_leaves();
  for (const auto& [contract, su] : undo.stores) {
    ContractStore& store = contracts_[contract];
    StoreDigest& digest = store_digests_[contract];
    for (const auto& [key, prior] : su.entries) {
      (void)write_store_entry(store, &digest, key, prior);
    }
    if (!su.existed) {
      // The block materialized this store; un-create it. All its entries
      // were prior-absent, so the erases above already emptied it.
      contracts_.erase(contract);
      store_digests_.erase(contract);
    }
  }
  for (const Account& prior : undo.accounts) accounts_.put(prior);
  account_tree_.update(account_leaves(undo.accounts));
  // The audit chain hash cannot be un-chained; restore the captured digest
  // and truncate the log back to its pre-block length.
  audit_log_.resize(undo.audit_count);
  audit_digest_ = undo.audit_digest;
  burned_fees_ -= undo.burned_delta;
}

StateCommitment LedgerState::commitment() const {
  return stage(LedgerStateOverlay::reader(*this)).commitment;
}

LedgerState::Staged LedgerState::stage(const LedgerStateOverlay& block) const {
  require(block.base_ == this, "LedgerState::stage() of an overlay over another view",
          block);
  settle_account_leaves();
  Staged staged;
  StateCommitment& c = staged.commitment;

  // Accounts: cached Merkle tree plus the leaves of the block's post-images.
  staged.accounts = account_tree_.stage(account_leaves(block.account_images()));
  c.accounts_root = staged.accounts.committed.root;
  c.account_count = staged.accounts.committed.count;

  // Audit log: extend the running chain hash with the appended records.
  staged.base_audit_digest = audit_digest_;
  crypto::Digest h = audit_digest_;
  for (const StoredAuditRecord& rec : block.audit_appended_) h = chain_audit(h, rec);
  c.audit_digest = h;
  c.audit_count = audit_log_.size() + block.audit_appended_.size();

  // Contract stores: adjust the touched contracts' multiset digests, then
  // combine all per-contract digests in name order. A delta consisting
  // solely of tombstones still names the contract (store_erase materializes
  // an empty store on commit).
  std::size_t contract_count = store_digests_.size();
  for (const auto& [contract, kv] : block.stores_) {
    const auto base_it = store_digests_.find(contract);
    if (base_it == store_digests_.end()) ++contract_count;
    const StoreDigest base =
        base_it != store_digests_.end() ? base_it->second : StoreDigest{};
    StoreDigest sd = base;
    for (const auto& [key, value] : kv) {
      const Bytes* old = store_get(contract, key);
      if (old != nullptr) {
        sd.sum.remove(store_entry_hash(key, *old));
        --sd.count;
      }
      if (value.has_value()) {
        sd.sum.add(store_entry_hash(key, *value));
        ++sd.count;
      }
    }
    staged.stores.emplace(contract, Staged::Store{base, sd});
  }
  crypto::HashWriter stores_w;
  stores_w.u32(static_cast<std::uint32_t>(contract_count));
  merge_maps(store_digests_, staged.stores,
             [&stores_w](const std::string& name, const StoreDigest* base_sd,
                         const Staged::Store* touched) {
               const StoreDigest& sd = touched != nullptr ? touched->post : *base_sd;
               stores_w.str(name);
               stores_w.u64(sd.count);
               stores_w.raw(sd.sum.bytes());
             });
  c.stores_digest = stores_w.digest();

  c.burned_fees = burned_fees_ + block.burned_delta_;
  c.root = combine_commitment_root(c);
  return staged;
}

StateCommitment LedgerState::full_rehash_commitment() const {
  StateCommitment c;

  // Accounts: independent structural recursion over an explicit leaf list
  // (no cached tree involved).
  std::vector<std::pair<std::uint64_t, crypto::Digest>> leaves;
  leaves.reserve(accounts_.size());
  for (const Account& a : accounts_) {
    leaves.emplace_back(a.addr.value,
                        account_leaf_digest(a.has_balance, a.balance, a.nonce));
  }
  c.account_count = leaves.size();
  c.accounts_root = crypto::merkle_map_reference_root(std::move(leaves));

  // Audit log: refold the whole chain from zero.
  crypto::Digest h{};
  for (const auto& rec : audit_log_) h = chain_audit(h, rec);
  c.audit_digest = h;
  c.audit_count = audit_log_.size();

  // Contract stores: rebuild every multiset digest from the raw maps.
  crypto::HashWriter stores_w;
  stores_w.u32(static_cast<std::uint32_t>(contracts_.size()));
  for (const auto& [name, store] : contracts_) {
    crypto::SetHash sum;
    for (const auto& [key, value] : store) sum.add(store_entry_hash(key, value));
    stores_w.str(name);
    stores_w.u64(store.size());
    stores_w.raw(sum.bytes());
  }
  c.stores_digest = stores_w.digest();

  c.burned_fees = burned_fees_;
  c.root = combine_commitment_root(c);
  return c;
}

// ----------------------------------------------------- LedgerStateOverlay

Account LedgerStateOverlay::account(crypto::Address a) const {
  const auto it = accounts_.find(a);
  return it != accounts_.end() ? it->second : base_->account(a);
}

std::vector<Account> LedgerStateOverlay::account_images() const {
  std::vector<Account> images;
  images.reserve(accounts_.size());
  for (const auto& [addr, image] : accounts_) images.push_back(image);
  return images;
}

std::uint64_t LedgerStateOverlay::burned_fees() const {
  return base_->burned_fees() + burned_delta_;
}

void LedgerStateOverlay::append_audit(StoredAuditRecord record) {
  audit_appended_.push_back(std::move(record));
}

const Bytes* LedgerStateOverlay::store_get(const std::string& contract,
                                           const std::string& key) const {
  const auto sit = stores_.find(contract);
  if (sit != stores_.end()) {
    const auto kit = sit->second.find(key);
    if (kit != sit->second.end()) {
      return kit->second.has_value() ? &*kit->second : nullptr;
    }
  }
  return base_->store_get(contract, key);
}

void LedgerStateOverlay::commit() {
  // Committing a reader() overlay would silently discard the whole delta, so
  // it is a hard failure in every build type — an assert compiles out in
  // release and turns the bug into state loss.
  if (writable_ == nullptr) {
    MV_LOG_ERROR << "LedgerStateOverlay::commit() on a read-only overlay ("
                 << touched() << " touched entries would be dropped)";
    std::clog.flush();  // abort() skips stream teardown; surface the message
    std::abort();
  }
  for (const auto& [addr, image] : accounts_) writable_->put_account(image);
  for (auto& rec : audit_appended_) writable_->append_audit(std::move(rec));
  for (auto& [contract, delta] : stores_) {
    for (auto& [key, value] : delta) {
      writable_->store_write(contract, key, std::move(value));
    }
  }
  writable_->add_burned_fees(burned_delta_);
  accounts_.clear();
  audit_appended_.clear();
  stores_.clear();
  burned_delta_ = 0;
}

std::size_t LedgerStateOverlay::touched() const {
  std::size_t n = accounts_.size() + audit_appended_.size();
  for (const auto& [contract, delta] : stores_) n += delta.size();
  return n;
}

// ------------------------------------------------------------ CallContext

const Bytes* CallContext::get(const std::string& key) const {
  return state_.store_get(contract_name_, key);
}

void CallContext::put(const std::string& key, Bytes value) {
  state_.store_put(contract_name_, key, std::move(value));
}

void CallContext::erase(const std::string& key) {
  state_.store_erase(contract_name_, key);
}

std::uint64_t CallContext::bump(const std::string& key, std::int64_t delta) {
  const auto prior = store_decode<std::uint64_t>(get(key));
  put(key, store_encode(prior + static_cast<std::uint64_t>(delta)));
  return prior;
}

Status CallContext::transfer(crypto::Address from, crypto::Address to,
                             std::uint64_t amount) {
  if (auto s = state_.debit(from, amount); !s.ok()) return s;
  state_.credit(to, amount);
  return {};
}

Status CallContext::burn(crypto::Address from, std::uint64_t amount) {
  return state_.debit(from, amount);
}

void CallContext::mint(crypto::Address to, std::uint64_t amount) {
  state_.credit(to, amount);
}

void ContractRegistry::install(std::shared_ptr<const Contract> contract) {
  contracts_[contract->name()] = std::move(contract);
}

const Contract* ContractRegistry::find(const std::string& name) const {
  const auto it = contracts_.find(name);
  return it == contracts_.end() ? nullptr : it->second.get();
}

}  // namespace mv::ledger
