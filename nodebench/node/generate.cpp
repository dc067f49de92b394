// Generator phase: seed -> encoded inputs. Everything here runs before the
// node starts and is excluded from every metric.
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "node/nodebench.h"
#include "ledger/chain.h"
#include "ledger/shard.h"
#include "scenario/harness.h"

namespace nodebench {

namespace {

using namespace mv;

constexpr std::uint32_t kInputMagic = 0x6e62696eU;  // "nbin"
constexpr std::uint32_t kInputVersion = 1;

// Independent derivation streams, all folding the workload seed.
constexpr std::uint64_t kValidatorSalt = 0x6e622e76616c2e31ULL;  // "nb.val.1"
constexpr std::uint64_t kAvatarSalt = 0x6e622e6176612e31ULL;     // "nb.ava.1"
constexpr std::uint64_t kAccountSalt = 0x6e622e6163632e31ULL;    // "nb.acc.1"
constexpr std::uint64_t kMixSalt = 0x6e622e6d69782e31ULL;        // "nb.mix.1"
constexpr std::uint64_t kSigSalt = 0x6e622e7369672e31ULL;        // "nb.sig.1"

std::vector<crypto::Wallet> derive_wallets(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<crypto::Wallet> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.emplace_back(rng);
  return out;
}

Error bad_input(const std::string& what) {
  return Error{"nodebench.bad_input", what};
}

Result<Inputs> generate_city(std::uint64_t seed) {
  scenario::ScenarioConfig config;
  config.mix = "mixed_city";
  config.seed = seed;
  config.avatars = kCityAvatars;
  config.rounds = kCityRounds;
  config.txs_per_round = kCityTxsPerRound;
  config.max_txs_per_block = kCityTxsPerRound;
  scenario::ReplayOptions opts;
  opts.check_full_rehash = false;
  auto rec = scenario::record(config, opts);
  if (!rec.ok()) return rec.error();
  if (!rec.value().run.violations.empty()) {
    return bad_input(rec.value().run.violations.front());
  }
  Inputs in;
  in.workload = Workload::kCityProposer;
  in.seed = seed;
  in.trace = std::move(rec).value().trace;
  return in;
}

/// Transfer-heavy, conflict-light blocks: each block has distinct senders
/// paying distinct recipients drawn from accounts that never send, so every
/// transaction is its own conflict group.
Result<Inputs> generate_follower(std::uint64_t seed) {
  Inputs in;
  in.workload = Workload::kTransferFollower;
  in.seed = seed;
  in.grant = kGrant;

  const auto validators = derive_validators(seed);
  const auto senders = derive_wallets(seed ^ kAvatarSalt, kFollowerSenders);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& w : senders) {
    seen.insert(w.address().value);
    in.accounts.push_back(w.address());
  }
  Rng arng(seed ^ kAccountSalt);
  while (in.accounts.size() < kFollowerAccounts) {
    const std::uint64_t v = arng.next_u64();
    if (v != 0 && seen.insert(v).second) in.accounts.push_back({v});
  }
  ledger::LedgerState genesis;
  for (const auto a : in.accounts) genesis.credit(a, in.grant);

  ledger::ChainConfig cc;
  cc.validators = validator_keys(validators);
  cc.max_txs_per_block = kFollowerTxsPerBlock;
  cc.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  ledger::Blockchain chain(cc, std::make_shared<ledger::ContractRegistry>(),
                           std::move(genesis));

  std::vector<std::size_t> order(senders.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng mix(seed ^ kMixSalt);
  mix.shuffle(order);
  Rng sig(seed ^ kSigSalt);
  std::vector<std::uint64_t> nonces(senders.size(), 0);
  std::size_t cursor = 0;
  const std::size_t recipients = in.accounts.size() - senders.size();

  for (std::uint32_t h = 0; h < kFollowerBlocks; ++h) {
    std::vector<ledger::Transaction> txs;
    std::unordered_set<std::size_t> to_used;
    while (txs.size() < kFollowerTxsPerBlock) {
      const std::size_t s = order[cursor++ % order.size()];
      std::size_t to = 0;
      do {
        to = senders.size() + mix.next_below(recipients);
      } while (!to_used.insert(to).second);
      txs.push_back(ledger::make_transfer(senders[s], nonces[s]++,
                                          in.accounts[to],
                                          1 + mix.next_below(100), 1, sig));
    }
    ledger::Block block = chain.assemble(validators[h % validators.size()],
                                         txs, static_cast<Tick>(h), sig);
    if (block.txs.size() != txs.size()) {
      return bad_input("follower block dropped a tx");
    }
    if (Status s = chain.append(block); !s.ok()) return s.error();
    in.roots.push_back(chain.commitment_at(h)->root);
    in.blocks.push_back(std::move(block));
  }
  return in;
}

/// Intra-world transfers plus cross-world lock -> mint pairs: locks land in
/// round r and the mints carrying their receipt proofs in round r + 1. One
/// transaction per sender per round, except a recipient minting several
/// receipts, whose nonces the mempool orders.
Result<Inputs> generate_multi(std::uint64_t seed) {
  Inputs in;
  in.workload = Workload::kMultiWorld;
  in.seed = seed;
  in.grant = kGrant;

  const auto validators = derive_validators(seed);
  const auto avatars = derive_wallets(seed ^ kAvatarSalt, kMultiAvatars);
  ledger::LedgerState genesis;
  for (const auto& w : avatars) {
    in.accounts.push_back(w.address());
    genesis.credit(w.address(), in.grant);
  }

  ledger::ShardConfig sc;
  sc.num_shards = kMultiShards;
  sc.validators = validator_keys(validators);
  sc.max_txs_per_block = kMultiMaxTxsPerShardBlock;
  sc.seed = seed;
  sc.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  ledger::ShardedLedger ledger(sc, genesis);

  std::vector<std::uint32_t> home(avatars.size());
  std::vector<std::vector<std::size_t>> by_shard(kMultiShards);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < avatars.size(); ++i) {
    home[i] = ledger::shard_of(avatars[i].address(), kMultiShards);
    by_shard[home[i]].push_back(i);
    index_of[avatars[i].address().value] = i;
  }

  Rng mix(seed ^ kMixSalt);
  Rng sig(seed ^ kSigSalt);
  std::vector<std::uint64_t> nonces(avatars.size(), 0);
  std::vector<std::uint64_t> minted_next(kMultiShards, 0);
  std::vector<ledger::Transaction> mints;
  std::unordered_set<std::size_t> mint_senders;

  const auto pick_unused = [&](const std::vector<std::size_t>& pool,
                               const std::unordered_set<std::size_t>& used)
      -> std::optional<std::size_t> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t c = pool[mix.next_below(pool.size())];
      if (!used.contains(c)) return c;
    }
    return std::nullopt;
  };
  std::vector<std::size_t> everyone(avatars.size());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;

  for (std::uint32_t round = 0; round < kMultiRounds; ++round) {
    std::vector<ledger::Transaction> txs = std::move(mints);
    std::unordered_set<std::size_t> used = std::move(mint_senders);
    mints.clear();
    mint_senders.clear();

    for (std::uint32_t t = 0; t < kMultiIntraPerRound; ++t) {
      const auto& group = by_shard[mix.next_below(kMultiShards)];
      const auto from = pick_unused(group, used);
      if (!from) continue;
      std::size_t to = *from;
      while (to == *from) to = group[mix.next_below(group.size())];
      used.insert(*from);
      txs.push_back(ledger::make_transfer(avatars[*from], nonces[*from]++,
                                          avatars[to].address(),
                                          1 + mix.next_below(64), 1, sig));
    }
    for (std::uint32_t t = 0; t < kMultiCrossPerRound; ++t) {
      const auto from = pick_unused(everyone, used);
      if (!from) continue;
      std::size_t to = *from;
      while (home[to] == home[*from]) to = mix.next_below(avatars.size());
      used.insert(*from);
      txs.push_back(ledger::make_xshard_lock(
          avatars[*from], nonces[*from]++, home[to], avatars[to].address(),
          1 + mix.next_below(64), 1, sig));
    }

    for (const auto& tx : txs) {
      if (Status s = ledger.submit(tx); !s.ok()) return s.error();
    }
    const auto& proposer = validators[round % validators.size()];
    auto beacon = ledger.commit_round(proposer, static_cast<Tick>(round + 1));
    if (!beacon.ok()) return beacon.error();
    for (std::uint32_t s = 0; s < kMultiShards; ++s) {
      if (!ledger.mempool(s).empty()) return bad_input("a shard dropped a tx");
    }
    in.roots.push_back(beacon.value().beacon_root);
    in.rounds.push_back(std::move(txs));

    for (std::uint32_t s = 0; s < kMultiShards; ++s) {
      for (std::uint64_t id = minted_next[s]; id < ledger.receipt_count(s);
           ++id) {
        auto bundle = ledger.prove_receipt(s, id);
        if (!bundle.ok()) return bundle.error();
        auto receipt = ledger::CrossShardReceipt::decode(bundle.value().receipt);
        if (!receipt.ok()) return receipt.error();
        const std::size_t to = index_of.at(receipt.value().to.value);
        mints.push_back(ledger::make_xshard_mint(avatars[to], nonces[to]++,
                                                 bundle.value(), 1, sig));
        mint_senders.insert(to);
      }
      minted_next[s] = ledger.receipt_count(s);
    }
  }
  return in;
}

}  // namespace

Result<Workload> parse_workload(const std::string& name) {
  for (auto w : {Workload::kCityProposer, Workload::kTransferFollower,
                 Workload::kMultiWorld}) {
    if (name == workload_name(w)) return w;
  }
  return bad_input("unknown workload: " + name);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCityProposer:
      return "city_proposer";
    case Workload::kTransferFollower:
      return "transfer_follower";
    case Workload::kMultiWorld:
      return "multi_world";
  }
  return "?";
}

std::vector<crypto::Wallet> derive_validators(std::uint64_t seed) {
  return derive_wallets(seed ^ kValidatorSalt, kValidators);
}

std::vector<crypto::PublicKey> validator_keys(
    const std::vector<crypto::Wallet>& validators) {
  std::vector<crypto::PublicKey> keys;
  keys.reserve(validators.size());
  for (const auto& v : validators) keys.push_back(v.public_key());
  return keys;
}

Result<Inputs> generate(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kCityProposer:
      return generate_city(seed);
    case Workload::kTransferFollower:
      return generate_follower(seed);
    case Workload::kMultiWorld:
      return generate_multi(seed);
  }
  return bad_input("unknown workload");
}

Bytes Inputs::encode() const {
  ByteWriter w;
  w.u32(kInputMagic);
  w.u32(kInputVersion);
  w.u8(static_cast<std::uint8_t>(workload));
  w.u64(seed);
  if (workload == Workload::kCityProposer) {
    w.bytes(trace.encode());
    return w.take();
  }
  w.u64(grant);
  w.u32(static_cast<std::uint32_t>(accounts.size()));
  for (const auto a : accounts) w.u64(a.value);
  w.u32(static_cast<std::uint32_t>(roots.size()));
  for (std::size_t r = 0; r < roots.size(); ++r) {
    if (workload == Workload::kTransferFollower) {
      w.bytes(blocks[r].encode());
    } else {
      w.u32(static_cast<std::uint32_t>(rounds[r].size()));
      for (const auto& tx : rounds[r]) w.bytes(tx.encode());
    }
    w.raw(roots[r]);
  }
  return w.take();
}

Result<Inputs> Inputs::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  const auto magic = r.u32();
  const auto version = r.u32();
  const auto kind = r.u8();
  const auto seed = r.u64();
  if (!magic.ok() || magic.value() != kInputMagic || !version.ok() ||
      version.value() != kInputVersion || !kind.ok() || kind.value() > 2 ||
      !seed.ok()) {
    return bad_input("bad input header");
  }
  Inputs in;
  in.workload = static_cast<Workload>(kind.value());
  in.seed = seed.value();
  if (in.workload == Workload::kCityProposer) {
    auto body = r.bytes();
    if (!body.ok()) return body.error();
    auto trace = scenario::Trace::decode(body.value());
    if (!trace.ok()) return trace.error();
    in.trace = std::move(trace).value();
    return r.exhausted() ? Result<Inputs>(std::move(in))
                         : Result<Inputs>(bad_input("trailing bytes"));
  }
  const auto grant = r.u64();
  const auto n_accounts = r.u32();
  if (!grant.ok() || !n_accounts.ok() ||
      n_accounts.value() > r.remaining() / 8) {
    return bad_input("bad genesis");
  }
  in.grant = grant.value();
  in.accounts.reserve(n_accounts.value());
  for (std::uint32_t i = 0; i < n_accounts.value(); ++i) {
    in.accounts.push_back({r.u64().value()});
  }
  const auto n_rounds = r.u32();
  if (!n_rounds.ok() || n_rounds.value() > r.remaining()) {
    return bad_input("bad round count");
  }
  for (std::uint32_t i = 0; i < n_rounds.value(); ++i) {
    if (in.workload == Workload::kTransferFollower) {
      auto raw = r.bytes();
      if (!raw.ok()) return raw.error();
      auto block = ledger::Block::decode(raw.value());
      if (!block.ok()) return block.error();
      in.blocks.push_back(std::move(block).value());
    } else {
      const auto n_txs = r.u32();
      if (!n_txs.ok() || n_txs.value() > r.remaining()) {
        return bad_input("bad tx count");
      }
      std::vector<ledger::Transaction> txs;
      txs.reserve(n_txs.value());
      for (std::uint32_t t = 0; t < n_txs.value(); ++t) {
        auto raw = r.bytes();
        if (!raw.ok()) return raw.error();
        auto tx = ledger::Transaction::decode(raw.value());
        if (!tx.ok()) return tx.error();
        txs.push_back(std::move(tx).value());
      }
      in.rounds.push_back(std::move(txs));
    }
    auto root = r.raw(32);
    if (!root.ok()) return root.error();
    crypto::Digest d{};
    std::copy(root.value().begin(), root.value().end(), d.begin());
    in.roots.push_back(d);
  }
  if (!r.exhausted()) return bad_input("trailing bytes");
  return in;
}

}  // namespace nodebench
