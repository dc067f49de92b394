#include "ledger/parallel.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/rng.h"

namespace mv::ledger {

namespace {

std::uint64_t store_conflict_id(const std::string& contract) {
  return crypto::digest_prefix64(crypto::sha256(std::string_view(contract)));
}

/// Union-find over transaction indices (path halving + union by size).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

/// Everything one execution unit actually touched. Reads and writes are
/// recorded at the granularity the interference check needs: account keys,
/// (contract, key) store entries, and store prefix scans.
struct AccessSet {
  std::unordered_set<std::uint64_t> account_reads;
  std::unordered_set<std::uint64_t> account_writes;
  std::map<std::string, std::set<std::string>> store_reads;
  std::map<std::string, std::set<std::string>> store_writes;
  std::vector<std::pair<std::string, std::string>> prefix_reads;  ///< (contract, prefix)
};

/// LedgerView that applies transactions on a private overlay while recording
/// the accessed keys. Audit appends are captured here (tagged with the block
/// index of the appending tx) instead of landing in the overlay, so the merge
/// can interleave them in canonical order across units.
class TrackedView final : public LedgerView {
 public:
  explicit TrackedView(LedgerStateOverlay& parent)
      : inner_(LedgerStateOverlay::nested(parent)) {}

  void begin_tx(std::size_t block_index) { tx_index_ = block_index; }
  [[nodiscard]] LedgerStateOverlay& overlay() { return inner_; }
  [[nodiscard]] const AccessSet& access() const { return access_; }
  [[nodiscard]] std::vector<std::pair<std::size_t, StoredAuditRecord>>&
  audit_records() {
    return audit_;
  }

  [[nodiscard]] std::optional<std::uint64_t> find_balance(
      crypto::Address a) const override {
    access_.account_reads.insert(a.value);
    return inner_.find_balance(a);
  }
  [[nodiscard]] std::uint64_t nonce(crypto::Address a) const override {
    access_.account_reads.insert(a.value);
    return inner_.nonce(a);
  }
  void set_balance(crypto::Address a, std::uint64_t value) override {
    access_.account_writes.insert(a.value);
    inner_.set_balance(a, value);
  }
  void set_nonce(crypto::Address a, std::uint64_t value) override {
    access_.account_writes.insert(a.value);
    inner_.set_nonce(a, value);
  }

  [[nodiscard]] std::uint64_t burned_fees() const override {
    return inner_.burned_fees();
  }
  void add_burned_fees(std::uint64_t amount) override {
    inner_.add_burned_fees(amount);
  }
  void append_audit(StoredAuditRecord record) override {
    audit_.emplace_back(tx_index_, std::move(record));
  }

  [[nodiscard]] const Bytes* store_get(const std::string& contract,
                                       const std::string& key) const override {
    access_.store_reads[contract].insert(key);
    return inner_.store_get(contract, key);
  }
  void store_put(const std::string& contract, const std::string& key,
                 Bytes value) override {
    access_.store_writes[contract].insert(key);
    inner_.store_put(contract, key, std::move(value));
  }
  void store_erase(const std::string& contract, const std::string& key) override {
    access_.store_writes[contract].insert(key);
    inner_.store_erase(contract, key);
  }
  [[nodiscard]] std::vector<std::string> store_keys_with_prefix(
      const std::string& contract, const std::string& prefix) const override {
    access_.prefix_reads.emplace_back(contract, prefix);
    return inner_.store_keys_with_prefix(contract, prefix);
  }

  /// Not used by the engine (commitments are computed on the merged scratch
  /// overlay); forwards for completeness. Captured audit records are absent
  /// from the inner overlay and thus from this commitment.
  [[nodiscard]] StateCommitment commitment_with(
      const CommitmentDelta& delta) const override {
    return inner_.commitment_with(delta);
  }

 private:
  LedgerStateOverlay inner_;
  mutable AccessSet access_;
  std::vector<std::pair<std::size_t, StoredAuditRecord>> audit_;
  std::size_t tx_index_ = 0;
};

/// One schedulable unit: a run of whole conflict groups, executed in
/// canonical (ascending block index) order on one tracked overlay. Merging
/// several disjoint groups into a unit keeps per-task overhead bounded when a
/// low-conflict block shatters into hundreds of singleton groups.
struct UnitRun {
  explicit UnitRun(LedgerStateOverlay& parent) : view(parent) {}
  std::vector<std::size_t> txs;  ///< ascending block indices
  TrackedView view;
  Status status;
  std::size_t failed_index = 0;
  bool failed = false;
  std::vector<std::size_t> applied;
};

/// Units whose reads or writes overlap another unit's writes — both parties
/// of every overlap, sorted ascending; empty means the units are mutually
/// independent. Conflicts the static partition already captured cannot
/// appear here (those transactions share a unit); anything a contract
/// reached dynamically can. Attribution (instead of a bare bool) is what
/// lets the repair path below re-run only the entangled units.
std::vector<std::size_t> interfering_units(const std::vector<UnitRun>& runs) {
  std::vector<bool> marked(runs.size(), false);
  const auto mark = [&](std::size_t a, std::size_t b) {
    marked[a] = true;
    marked[b] = true;
  };
  std::unordered_map<std::uint64_t, std::size_t> account_writer;
  std::map<std::string, std::map<std::string, std::size_t>> store_writer;
  for (std::size_t u = 0; u < runs.size(); ++u) {
    for (const std::uint64_t a : runs[u].view.access().account_writes) {
      const auto [it, inserted] = account_writer.emplace(a, u);
      if (!inserted && it->second != u) mark(u, it->second);
    }
    for (const auto& [contract, keys] : runs[u].view.access().store_writes) {
      auto& owner = store_writer[contract];
      for (const auto& key : keys) {
        const auto [it, inserted] = owner.emplace(key, u);
        if (!inserted && it->second != u) mark(u, it->second);
      }
    }
  }
  for (std::size_t u = 0; u < runs.size(); ++u) {
    const AccessSet& acc = runs[u].view.access();
    for (const std::uint64_t a : acc.account_reads) {
      const auto it = account_writer.find(a);
      if (it != account_writer.end() && it->second != u) mark(u, it->second);
    }
    for (const auto& [contract, keys] : acc.store_reads) {
      const auto sit = store_writer.find(contract);
      if (sit == store_writer.end()) continue;
      for (const auto& key : keys) {
        const auto it = sit->second.find(key);
        if (it != sit->second.end() && it->second != u) mark(u, it->second);
      }
    }
    for (const auto& [contract, prefix] : acc.prefix_reads) {
      const auto sit = store_writer.find(contract);
      if (sit == store_writer.end()) continue;
      for (auto it = sit->second.lower_bound(prefix); it != sit->second.end();
           ++it) {
        if (!it->first.starts_with(prefix)) break;
        if (it->second != u) mark(u, it->second);
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t u = 0; u < runs.size(); ++u) {
    if (marked[u]) out.push_back(u);
  }
  return out;
}

bool u64_sets_overlap(const std::unordered_set<std::uint64_t>& a,
                      const std::unordered_set<std::uint64_t>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& big = a.size() <= b.size() ? b : a;
  for (const std::uint64_t v : small) {
    if (big.contains(v)) return true;
  }
  return false;
}

bool store_maps_overlap(const std::map<std::string, std::set<std::string>>& a,
                        const std::map<std::string, std::set<std::string>>& b) {
  for (const auto& [contract, keys] : a) {
    const auto it = b.find(contract);
    if (it == b.end()) continue;
    const auto& small = keys.size() <= it->second.size() ? keys : it->second;
    const auto& big = keys.size() <= it->second.size() ? it->second : keys;
    for (const auto& key : small) {
      if (big.contains(key)) return true;
    }
  }
  return false;
}

bool prefix_reads_hit_writes(
    const std::vector<std::pair<std::string, std::string>>& prefixes,
    const std::map<std::string, std::set<std::string>>& writes) {
  for (const auto& [contract, prefix] : prefixes) {
    const auto sit = writes.find(contract);
    if (sit == writes.end()) continue;
    const auto it = sit->second.lower_bound(prefix);
    if (it != sit->second.end() && it->starts_with(prefix)) return true;
  }
  return false;
}

/// Directional half of the interference predicate: does `w`'s write set
/// touch anything `r` read, wrote, or prefix-scanned?
bool writes_touch(const AccessSet& w, const AccessSet& r) {
  return u64_sets_overlap(w.account_writes, r.account_writes) ||
         u64_sets_overlap(w.account_writes, r.account_reads) ||
         store_maps_overlap(w.store_writes, r.store_writes) ||
         store_maps_overlap(w.store_writes, r.store_reads) ||
         prefix_reads_hit_writes(r.prefix_reads, w.store_writes);
}

/// Full symmetric check between two access sets (both read-vs-write
/// directions plus write-vs-write).
bool access_interferes(const AccessSet& a, const AccessSet& b) {
  return writes_touch(a, b) || writes_touch(b, a);
}

/// How apply_block fans out CPU-bound work: through the job queue's `cls`
/// lane when one is configured (so ledger work competes with
/// gossip/snapshot/client traffic under one scheduler; run_batch blocks until
/// every task ran and is never shed), else inline in ascending order. Tasks
/// write disjoint slots, so results do not depend on which path ran.
void fan_out(JobQueue* queue, JobClass cls, std::size_t tasks,
             const std::function<void(std::size_t)>& fn) {
  if (queue != nullptr) {
    queue->run_batch(cls, tasks, fn);
  } else {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
  }
}

/// The historical serial loop, shared by the single-worker path and the
/// fallback. `sig_ok` (when present) carries pre-verified signature results
/// so the fallback does not re-verify.
BlockApplyOutcome serial_apply(LedgerStateOverlay& scratch,
                               const std::vector<Transaction>& txs,
                               const ContractRegistry& contracts, Tick height,
                               ApplyMode mode,
                               const std::vector<unsigned char>* sig_ok) {
  BlockApplyOutcome out;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const bool preverified = sig_ok != nullptr && (*sig_ok)[i] != 0;
    if (Status s = scratch.apply(txs[i], contracts, height, preverified); s.ok()) {
      out.applied.push_back(i);
    } else if (mode == ApplyMode::kAllOrNothing) {
      out.status = std::move(s);
      out.failed_index = i;
      return out;
    }
  }
  return out;
}

/// Resolve every transaction's signature through the verified-digest cache:
/// hits are vouched for, misses are verified (fanned out as kValidation work
/// through fan_out) and the valid ones remembered. Cache lookups and
/// inserts stay on the calling thread — only the pure verifications fan out.
/// An invalid signature leaves its sig_ok slot 0; apply() then re-verifies
/// and produces the authoritative error.
void consult_sig_cache(crypto::DigestLruSet& cache,
                       const std::vector<Transaction>& txs,
                       std::vector<unsigned char>& sig_ok, JobQueue* queue,
                       std::size_t& hits, std::size_t& misses) {
  std::vector<crypto::Digest> digests(txs.size());
  std::vector<std::size_t> miss_idx;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    digests[i] = txs[i].digest();
    if (cache.contains_and_touch(digests[i])) {
      sig_ok[i] = 1;
      ++hits;
    } else {
      miss_idx.push_back(i);
    }
  }
  misses = miss_idx.size();
  const auto verify = [&](std::size_t j) {
    const std::size_t i = miss_idx[j];
    sig_ok[i] = txs[i].signature_valid() ? 1 : 0;
  };
  fan_out(queue, JobClass::kValidation, miss_idx.size(), verify);
  for (const std::size_t i : miss_idx) {
    if (sig_ok[i] != 0) cache.insert(digests[i]);
  }
}

}  // namespace

std::vector<ConflictKey> conflict_keys(const Transaction& tx) {
  std::vector<ConflictKey> keys;
  keys.push_back({ConflictKey::Kind::kAccount, tx.sender().value});
  switch (tx.kind) {
    case TxKind::kTransfer: {
      // An undecodable payload fails in apply() before touching anything but
      // the sender, so the sender key alone is its footprint.
      if (const auto body = TransferBody::decode(tx.payload); body.ok()) {
        keys.push_back({ConflictKey::Kind::kAccount, body.value().to.value});
      }
      break;
    }
    case TxKind::kAuditRecord:
      break;  // audit appends are merged canonically; only the sender conflicts
    case TxKind::kContractCall:
      keys.push_back({ConflictKey::Kind::kStore, store_conflict_id(tx.contract)});
      break;
    default:
      break;
  }
  return keys;
}

std::vector<std::vector<std::size_t>> partition_conflicts(
    const std::vector<Transaction>& txs) {
  UnionFind uf(txs.size());
  std::map<ConflictKey, std::size_t> first_holder;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    for (const ConflictKey& key : conflict_keys(txs[i])) {
      const auto [it, inserted] = first_holder.emplace(key, i);
      if (!inserted) uf.unite(i, it->second);
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::size_t, std::size_t> root_to_group;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const std::size_t root = uf.find(i);
    const auto [it, inserted] = root_to_group.emplace(root, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

BlockApplyOutcome apply_block(LedgerStateOverlay& scratch,
                              const std::vector<Transaction>& txs,
                              const ContractRegistry& contracts, Tick height,
                              const ValidationConfig& config, ApplyMode mode) {
  JobQueue* const queue = config.job_queue.get();
  // The queue's worker count decides serial-vs-parallel (an inline or
  // single-worker queue still routes work through the class lanes for
  // telemetry, but the execution order is exactly the historical serial
  // path).
  const bool concurrent =
      queue != nullptr && queue->workers() > 1 &&
      txs.size() >= std::max<std::size_t>(config.min_parallel_txs, 2);
  if (!concurrent) {
    // With a queue, even the serial path runs as one kConsensus unit: the
    // application is scheduled (and accounted) against the other traffic
    // classes instead of bypassing the queue. run_batch blocks until done
    // and is never shed, and an inline queue executes it synchronously on
    // this thread, so the outcome is identical either way.
    const auto serial_unit =
        [&](const std::vector<unsigned char>* sig_ok_ptr) -> BlockApplyOutcome {
      BlockApplyOutcome out;
      fan_out(queue, JobClass::kConsensus, 1, [&](std::size_t) {
        out = serial_apply(scratch, txs, contracts, height, mode, sig_ok_ptr);
      });
      return out;
    };
    if (config.sig_cache == nullptr) {
      return serial_unit(nullptr);
    }
    std::vector<unsigned char> sig_ok(txs.size(), 0);
    std::size_t hits = 0;
    std::size_t misses = 0;
    consult_sig_cache(*config.sig_cache, txs, sig_ok, queue, hits, misses);
    auto out = serial_unit(&sig_ok);
    out.sig_hits = hits;
    out.sig_misses = misses;
    return out;
  }

  // Signature verification is pure and per-tx: always worth fanning out,
  // and the results stay valid for the serial fallback. The cache (when
  // configured) narrows the fan-out to the unverified remainder.
  std::vector<unsigned char> sig_ok(txs.size(), 0);
  std::size_t sig_hits = 0;
  std::size_t sig_misses = 0;
  if (config.sig_cache != nullptr) {
    consult_sig_cache(*config.sig_cache, txs, sig_ok, queue, sig_hits,
                      sig_misses);
  } else {
    queue->run_batch(JobClass::kValidation, txs.size(), [&](std::size_t i) {
      sig_ok[i] = txs[i].signature_valid() ? 1 : 0;
    });
  }

  const auto groups = partition_conflicts(txs);
  if (groups.size() <= 1) {
    auto out = serial_apply(scratch, txs, contracts, height, mode, &sig_ok);
    out.groups = groups.size();
    out.sig_hits = sig_hits;
    out.sig_misses = sig_misses;
    return out;
  }

  // Pack whole groups into at most ~4 units per worker (canonical packing:
  // groups in order, balanced by tx count). A unit executes its indices in
  // ascending block order, so intra-unit cross-group touches — which the
  // interference check cannot see — still replay the serial order exactly.
  const std::size_t unit_target = std::min(groups.size(), queue->workers() * 4);
  std::vector<UnitRun> runs;
  runs.reserve(unit_target);
  {
    const std::size_t per_unit = (txs.size() + unit_target - 1) / unit_target;
    for (const auto& group : groups) {
      if (runs.empty() || (runs.back().txs.size() >= per_unit &&
                           runs.size() < unit_target)) {
        runs.emplace_back(scratch);
      }
      runs.back().txs.insert(runs.back().txs.end(), group.begin(), group.end());
    }
    for (auto& run : runs) std::sort(run.txs.begin(), run.txs.end());
  }

  // Hand units to the queue in a (deterministically) permuted order when a
  // schedule seed is set; results must not depend on it.
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (config.schedule_seed != 0) {
    Rng rng(config.schedule_seed);
    rng.shuffle(order);
  }

  // Unit execution is the consensus-critical lane: under mixed load it must
  // win the cores over relays, chunk serving, and client queries.
  queue->run_batch(JobClass::kConsensus, runs.size(), [&](std::size_t t) {
    UnitRun& run = runs[order[t]];
    for (const std::size_t idx : run.txs) {
      run.view.begin_tx(idx);
      Status s = run.view.apply(txs[idx], contracts, height, sig_ok[idx] != 0);
      if (s.ok()) {
        run.applied.push_back(idx);
      } else if (mode == ApplyMode::kAllOrNothing) {
        run.status = std::move(s);
        run.failed = true;
        run.failed_index = idx;
        return;
      }
    }
  });

  // Any failure (all-or-nothing): discard the unit overlays (nothing reached
  // scratch) and replay serially — the serial result is authoritative,
  // including error text and skip decisions.
  const auto full_serial = [&]() {
    auto out = serial_apply(scratch, txs, contracts, height, mode, &sig_ok);
    out.groups = groups.size();
    out.serial_fallback = true;
    out.sig_hits = sig_hits;
    out.sig_misses = sig_misses;
    return out;
  };
  const bool any_failed =
      std::any_of(runs.begin(), runs.end(), [](const UnitRun& r) { return r.failed; });
  if (any_failed) return full_serial();

  // Dynamic cross-unit interference: instead of discarding every unit for a
  // full serial replay, re-run only the entangled units' transactions — in
  // ascending block order, on one fresh tracked overlay over the still-
  // pristine scratch — and keep the independent units' overlays. The repair
  // is sound iff the re-run's actual access set stays disjoint from every
  // kept unit's (checked in both directions below: the re-run may touch
  // different keys than the discarded unit runs did, since its transactions
  // now see each other's effects). Any entanglement with a kept unit, or an
  // all-or-nothing failure inside the re-run, falls back to the full serial
  // replay exactly as before.
  const std::vector<std::size_t> conflicted = interfering_units(runs);
  std::vector<bool> in_conflict(runs.size(), false);
  std::optional<TrackedView> rerun;
  std::vector<std::size_t> rerun_applied;
  if (!conflicted.empty()) {
    std::vector<std::size_t> rerun_txs;
    for (const std::size_t u : conflicted) {
      in_conflict[u] = true;
      rerun_txs.insert(rerun_txs.end(), runs[u].txs.begin(), runs[u].txs.end());
    }
    std::sort(rerun_txs.begin(), rerun_txs.end());
    rerun.emplace(scratch);
    for (const std::size_t idx : rerun_txs) {
      rerun->begin_tx(idx);
      Status s = rerun->apply(txs[idx], contracts, height, sig_ok[idx] != 0);
      if (s.ok()) {
        rerun_applied.push_back(idx);
      } else if (mode == ApplyMode::kAllOrNothing) {
        return full_serial();
      }
    }
    for (std::size_t u = 0; u < runs.size(); ++u) {
      if (!in_conflict[u] &&
          access_interferes(rerun->access(), runs[u].view.access())) {
        return full_serial();
      }
    }
  }

  // Deterministic merge: fold each kept unit's delta (and the repair
  // overlay, when one ran) into scratch in canonical order — the sets are
  // disjoint, so only the audit log is order-sensitive; its records
  // interleave by original block index.
  BlockApplyOutcome out;
  out.groups = groups.size();
  out.parallel = true;
  out.repaired = !conflicted.empty();
  out.sig_hits = sig_hits;
  out.sig_misses = sig_misses;
  std::vector<std::pair<std::size_t, StoredAuditRecord>> audits;
  for (std::size_t u = 0; u < runs.size(); ++u) {
    if (in_conflict[u]) continue;
    UnitRun& run = runs[u];
    run.view.overlay().commit();
    for (auto& tagged : run.view.audit_records()) {
      audits.push_back(std::move(tagged));
    }
    out.applied.insert(out.applied.end(), run.applied.begin(), run.applied.end());
  }
  if (rerun.has_value()) {
    rerun->overlay().commit();
    for (auto& tagged : rerun->audit_records()) {
      audits.push_back(std::move(tagged));
    }
    out.applied.insert(out.applied.end(), rerun_applied.begin(),
                       rerun_applied.end());
  }
  std::stable_sort(audits.begin(), audits.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [index, record] : audits) scratch.append_audit(std::move(record));
  std::sort(out.applied.begin(), out.applied.end());
  return out;
}

}  // namespace mv::ledger
