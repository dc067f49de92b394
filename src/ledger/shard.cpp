#include "ledger/shard.h"

#include <string_view>
#include <utility>

namespace mv::ledger {

namespace {

/// Wire magic of the receipt codec; the mint proof hashes these exact bytes.
constexpr std::string_view kReceiptMagic = "mv.xshard.receipt.v1";

/// Distinct multipliers keeping the per-(round, shard) signing streams and
/// the beacon signing stream decorrelated from one another and from the
/// configured base seed.
constexpr std::uint64_t kRoundSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kShardSalt = 0xd1b54a32d192ed03ULL;
constexpr std::uint64_t kBeaconSalt = 0x6d762e626561636fULL;  // "mv.beaco"

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex_u64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::uint32_t shard_of(crypto::Address addr, std::size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<std::uint32_t>(mix64(addr.value) % num_shards);
}

std::vector<LedgerState> partition_genesis(const LedgerState& genesis,
                                           std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::vector<LedgerState> out(num_shards);
  // An unordered walk: a shard's table and tree do not depend on the order
  // its accounts arrive in.
  for (const Account& a : genesis.accounts()) {
    out[shard_of(a.addr, num_shards)].put_account(a);
  }
  // Non-account sections have no per-account home; they stay on shard 0.
  // A normal genesis carries none of them.
  for (const auto& record : genesis.audit_log()) out[0].append_audit(record);
  for (const auto& [contract, store] : genesis.stores()) {
    out[0].materialize_store(contract);
    for (const auto& [key, value] : store) out[0].store_put(contract, key, value);
  }
  out[0].add_burned_fees(genesis.burned_fees());
  return out;
}

// ---------------------------------------------------------------- codecs

Bytes CrossShardReceipt::encode() const {
  ByteWriter w;
  w.str(kReceiptMagic);
  w.u64(id);
  w.u32(source_shard);
  w.u32(dest_shard);
  w.u64(from.value);
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<CrossShardReceipt> CrossShardReceipt::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.read_str() != kReceiptMagic) r.fail(errc::kXShardBadArgs, "bad receipt magic");
  CrossShardReceipt rec;
  rec.id = r.read_u64();
  rec.source_shard = r.read_u32();
  rec.dest_shard = r.read_u32();
  rec.from.value = r.read_u64();
  rec.to.value = r.read_u64();
  rec.amount = r.read_u64();
  if (rec.source_shard == rec.dest_shard || !rec.to.valid() || rec.amount == 0) {
    r.fail(errc::kXShardBadArgs, "receipt fields out of range");
  }
  return r.finish(rec, errc::kXShardBadArgs);
}

Bytes XShardLockArgs::encode() const {
  ByteWriter w;
  w.u32(dest_shard);
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

Result<XShardLockArgs> XShardLockArgs::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  XShardLockArgs a;
  a.dest_shard = r.read_u32();
  a.to.value = r.read_u64();
  a.amount = r.read_u64();
  return r.finish(a, errc::kXShardBadArgs);
}

Bytes XShardMintArgs::encode() const {
  ByteWriter w;
  w.i64(beacon_height);
  w.u32(source_shard);
  w.bytes(receipt);
  w.bytes(proof);
  return w.take();
}

Result<XShardMintArgs> XShardMintArgs::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  XShardMintArgs a;
  a.beacon_height = r.read_i64();
  a.source_shard = r.read_u32();
  a.receipt = r.read_view();
  a.proof = r.read_view();
  return r.finish(a, errc::kXShardBadArgs);
}

std::string xshard_receipt_key(std::uint64_t id) {
  return "receipt/" + hex_u64(id);
}

std::string xshard_spent_key(std::uint32_t source_shard, std::uint64_t id) {
  return "spent/" + hex_u64(source_shard) + "/" + hex_u64(id);
}

// ---------------------------------------------------------- XShardContract

Status XShardContract::call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const {
  if (method == "lock") return lock(ctx, args);
  if (method == "mint") return mint(ctx, args);
  return Status::fail(errc::kXShardUnknownMethod, method);
}

Status XShardContract::lock(CallContext& ctx, const Bytes& raw) const {
  auto args = XShardLockArgs::decode(raw);
  if (!args.ok()) return Status::fail(args.error().code, args.error().message);
  const XShardLockArgs& a = args.value();
  if (a.dest_shard >= num_shards_ || a.dest_shard == shard_id_) {
    return Status::fail(errc::kXShardBadDest,
                        "dest shard " + std::to_string(a.dest_shard));
  }
  if (!a.to.valid() || a.amount == 0) {
    return Status::fail(errc::kXShardBadArgs, "null recipient or zero amount");
  }
  // Burn first: an uncovered amount rejects the lock before any store write
  // (the nested call overlay would discard them anyway; failing early keeps
  // the error authoritative).
  if (Status s = ctx.burn(ctx.caller(), a.amount); !s.ok()) return s;
  const std::uint64_t id = ctx.bump(kXShardNextIdKey, 1);
  const CrossShardReceipt receipt{id,          shard_id_, a.dest_shard,
                                  ctx.caller(), a.to,      a.amount};
  ctx.put(xshard_receipt_key(id), receipt.encode());
  ctx.bump(kXShardLockedTotalKey, static_cast<std::int64_t>(a.amount));
  return {};
}

Status XShardContract::mint(CallContext& ctx, const Bytes& raw) const {
  auto args = XShardMintArgs::decode(raw);
  if (!args.ok()) return Status::fail(args.error().code, args.error().message);
  const XShardMintArgs& a = args.value();
  auto receipt = CrossShardReceipt::decode(a.receipt);
  if (!receipt.ok()) {
    return Status::fail(receipt.error().code, receipt.error().message);
  }
  const CrossShardReceipt& rec = receipt.value();
  if (rec.source_shard != a.source_shard) {
    return Status::fail(errc::kXShardBadArgs, "claimed source shard mismatch");
  }
  if (rec.dest_shard != shard_id_) {
    return Status::fail(errc::kXShardWrongShard,
                        "receipt destined for shard " +
                            std::to_string(rec.dest_shard));
  }
  if (rec.source_shard >= num_shards_) {
    return Status::fail(errc::kXShardBadDest, "source shard out of range");
  }
  const auto anchor = archive_->anchor(a.beacon_height, rec.source_shard);
  if (!anchor.has_value()) {
    return Status::fail(errc::kXShardUnknownBeacon,
                        "no anchor at beacon height " +
                            std::to_string(a.beacon_height));
  }
  auto proof = crypto::MerkleMapProof::decode(a.proof);
  if (!proof.ok()) return Status::fail(proof.error().code, proof.error().message);
  // The proof binds the exact receipt wire bytes (their sha256 is the leaf
  // value) to the receipt id under the source shard's beacon-anchored
  // receipts root. A receipt proven against a stale root (the tree grew and
  // the presented proof's path digests no longer match) or against another
  // shard's root fails here.
  if (!crypto::MerkleMap::verify(anchor->receipts_root, rec.id,
                                 crypto::sha256(a.receipt), proof.value())) {
    return Status::fail(errc::kXShardBadProof,
                        "receipt proof does not verify against anchored root");
  }
  const std::string spent = xshard_spent_key(rec.source_shard, rec.id);
  if (ctx.get(spent) != nullptr) {
    return Status::fail(errc::kXShardReceiptSpent,
                        "receipt already minted on this shard");
  }
  ctx.mint(rec.to, rec.amount);
  // The spent marker stores the minted amount so the invariant checker can
  // reconstruct per-source minted sums without decoding receipts.
  ctx.put(spent, store_encode(rec.amount));
  ctx.bump(kXShardMintedTotalKey, static_cast<std::int64_t>(rec.amount));
  return {};
}

// ------------------------------------------------------- composed proofs

Status verify_sharded_account_proof(const ShardedAccountProof& proof,
                                    const crypto::Digest& beacon_root) {
  if (!verify_shard_anchor(beacon_root, proof.shard, proof.anchor,
                           proof.anchor_proof)) {
    return Status::fail(errc::kXShardBadProof,
                        "shard anchor does not verify against beacon root");
  }
  return verify_account_proof(proof.account, proof.anchor.state_root);
}

Result<AccountStatement> verify_sharded_account(const BeaconFollower& beacons,
                                                const ShardedAccountProof& proof) {
  const BeaconHeader* beacon = beacons.header_at(proof.beacon_height);
  if (beacon == nullptr) {
    return make_error(errc::kLightUnknownHeight,
                      "no accepted beacon at height " +
                          std::to_string(proof.beacon_height));
  }
  if (Status s = verify_sharded_account_proof(
          proof, combine_beacon_root(beacon->shards));
      !s.ok()) {
    return s.error();
  }
  return proof.account.statement;
}

// ----------------------------------------------------------- ShardedLedger

ShardedLedger::ShardedLedger(ShardConfig config, const LedgerState& genesis,
                             std::shared_ptr<const ContractRegistry> contracts)
    : config_(std::move(config)), archive_(std::make_shared<BeaconArchive>()) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  auto genesis_states = partition_genesis(genesis, config_.num_shards);
  // Reserved up front: commit hooks hold references to shard chains.
  shards_.reserve(config_.num_shards);

  ByteWriter genesis_tag;
  genesis_tag.str("mv.beacon.genesis.v1");
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    auto registry = contracts != nullptr
                        ? std::make_shared<ContractRegistry>(*contracts)
                        : std::make_shared<ContractRegistry>();
    registry->install(std::make_shared<XShardContract>(
        s, static_cast<std::uint32_t>(config_.num_shards), archive_));

    ChainConfig chain_config;
    chain_config.validators = config_.validators;
    chain_config.max_txs_per_block = config_.max_txs_per_block;
    chain_config.state_retention = config_.state_retention;
    chain_config.validation = config_.validation;
    // The shared queue drives the cross-shard fan-out only: the shards
    // already keep its lanes busy, so a shard chain checks its blocks on the
    // committing thread, and its prove_account (called from
    // ShardedLedger::prove_account) runs inline instead of taking a
    // kClientQuery hop per shard proof.
    chain_config.validation.job_queue = nullptr;

    shards_.push_back(Shard{Replica(std::move(chain_config), registry,
                                    std::move(genesis_states[s])),
                            {},
                            0});
    genesis_tag.raw(shards_.back().replica.chain().genesis_hash());
  }
  beacon_genesis_hash_ = crypto::sha256(genesis_tag.data());
}

Status ShardedLedger::submit(Transaction tx, Tick now) {
  return shards_[shard_of(tx.sender(), shards_.size())].replica.submit(
      std::move(tx), now);
}

void ShardedLedger::refresh_receipts(Shard& shard) {
  const LedgerState& state = shard.replica.chain().state();
  const std::uint64_t next =
      store_decode<std::uint64_t>(state.store_get(kXShardContractName, kXShardNextIdKey));
  for (std::uint64_t id = shard.receipts_indexed; id < next; ++id) {
    const Bytes* bytes =
        state.store_get(kXShardContractName, xshard_receipt_key(id));
    // Ids are dense by construction (the contract is the only writer); a
    // hole would mean store corruption, which the commitment already pins.
    if (bytes != nullptr) shard.receipts.put(id, crypto::sha256(*bytes));
  }
  shard.receipts_indexed = next;
}

Result<BeaconHeader> ShardedLedger::commit_round(const crypto::Wallet& proposer,
                                                 Tick timestamp) {
  const std::int64_t round = beacon_height();
  std::vector<Status> results(shards_.size());

  const auto commit_shard = [&](std::size_t s) {
    Replica& replica = shards_[s].replica;
    // Deterministic per-(round, shard) signing stream: block hashes are
    // reproducible across runs, thread counts, and shard interleavings.
    Rng rng(config_.seed ^
            (kRoundSalt * (static_cast<std::uint64_t>(round) + 1)) ^
            (kShardSalt * (static_cast<std::uint64_t>(s) + 1)));
    results[s] = replica.commit(replica.propose(proposer, timestamp, rng));
  };

  // Shards validate concurrently on the shared queue's consensus lane and on
  // this thread; each task touches only its own shard, and run_batch is a
  // barrier, so the driver-side beacon fold below sees every shard's
  // committed tip. A one-task batch would only add bookkeeping.
  JobQueue* queue = config_.validation.threaded_queue();
  if (shards_.size() > 1 && queue != nullptr) {
    queue->run_batch(JobClass::kConsensus, shards_.size(), commit_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) commit_shard(s);
  }

  for (std::size_t s = 0; s < results.size(); ++s) {
    if (!results[s].ok()) {
      return make_error(errc::kShardRoundFailed,
                        "shard " + std::to_string(s) + " round " +
                            std::to_string(round) + ": " +
                            results[s].error().to_string());
    }
  }

  BeaconHeader header;
  header.height = round;
  const BeaconHeader* prev = beacon_at(round - 1);
  header.prev_hash = prev == nullptr ? beacon_genesis_hash_ : prev->hash();
  header.timestamp = timestamp;
  header.shards.reserve(shards_.size());
  for (Shard& sh : shards_) {
    refresh_receipts(sh);
    const Blockchain& chain = sh.replica.chain();
    ShardAnchor anchor;
    anchor.state_root = chain.commitment_at(chain.height() - 1)->root;
    anchor.receipts_root = sh.receipts.root();
    header.shards.push_back(anchor);
  }
  header.beacon_root = combine_beacon_root(header.shards);
  header.proposer_pub = proposer.public_key();
  Rng sig_rng(config_.seed ^
              (kBeaconSalt * (static_cast<std::uint64_t>(round) + 1)));
  header.proposer_sig = proposer.sign(header.signing_bytes(), sig_rng);

  archive_->push(header);
  return header;
}

Result<ReceiptProofBundle> ShardedLedger::prove_receipt(
    std::uint32_t source_shard, std::uint64_t id) const {
  if (source_shard >= shards_.size()) {
    return make_error(errc::kShardBadConfig, "source shard out of range");
  }
  if (beacon_height() == 0) {
    return make_error(errc::kShardUnknownReceipt, "no beacon committed yet");
  }
  const Shard& sh = shards_[source_shard];
  if (id >= sh.receipts_indexed) {
    return make_error(errc::kShardUnknownReceipt,
                      "receipt " + std::to_string(id) +
                          " not covered by a beacon yet");
  }
  const Bytes* bytes =
      state(source_shard).store_get(kXShardContractName, xshard_receipt_key(id));
  if (bytes == nullptr) {
    return make_error(errc::kShardUnknownReceipt, "receipt bytes missing");
  }
  ReceiptProofBundle bundle;
  bundle.beacon_height = beacon_height() - 1;
  bundle.source_shard = source_shard;
  bundle.receipt = *bytes;
  bundle.proof = sh.receipts.prove(id);
  return bundle;
}

Result<ShardedAccountProof> ShardedLedger::prove_account(
    crypto::Address addr) const {
  const BeaconHeader* tip = beacon_at(beacon_height() - 1);
  if (tip == nullptr) {
    return make_error(errc::kChainBadHeight, "no beacon committed yet");
  }
  const std::uint32_t s = shard_of(addr, shards_.size());
  const Blockchain& chain = shard(s);
  auto account = chain.prove_account(addr, chain.height() - 1);
  if (!account.ok()) return account.error();
  ShardedAccountProof proof;
  proof.shard = s;
  proof.beacon_height = tip->height;
  proof.anchor = tip->shards[s];
  proof.anchor_proof = prove_shard_anchor(tip->shards, s);
  proof.account = std::move(account).value();
  return proof;
}

// ------------------------------------------------------------- tx helpers

Transaction make_xshard_lock(const crypto::Wallet& from, std::uint64_t nonce,
                             std::uint32_t dest_shard, crypto::Address to,
                             std::uint64_t amount, std::uint64_t fee, Rng& rng) {
  return make_contract_call(from, nonce, kXShardContractName, "lock",
                            XShardLockArgs{dest_shard, to, amount}.encode(),
                            fee, rng);
}

Transaction make_xshard_mint(const crypto::Wallet& from, std::uint64_t nonce,
                             const ReceiptProofBundle& bundle,
                             std::uint64_t fee, Rng& rng) {
  const Bytes proof = bundle.proof.encode();
  const XShardMintArgs args{bundle.beacon_height, bundle.source_shard,
                            bundle.receipt, proof};
  return make_contract_call(from, nonce, kXShardContractName, "mint",
                            args.encode(), fee, rng);
}

}  // namespace mv::ledger
