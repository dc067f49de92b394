// E7 — ledger throughput and the on-chain audit registry (§II-D, §III-B).
//
// "A distributed ledger (Blockchain) can register any party's data collection
// and processing activities in the metaverse." Feasibility = the BFT
// committee sustains audit-record throughput comparable to plain transfers,
// and inclusion proofs stay logarithmic. Swept over committee size and tx mix.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/job_queue.h"
#include "ledger/audit.h"
#include "ledger/consensus.h"
#include "ledger/light_client.h"
#include "ledger/shard.h"
#include "ledger/snapshot.h"
#include "ledger/snapshot_sync.h"
#include "net/snapshot_transfer.h"
#include "net/subscription.h"

namespace {

using namespace mv;
using namespace mv::ledger;

struct Row {
  double txs_per_round = 0.0;
  double commit_ticks = 0.0;
  double failed = 0.0;
};

Row run(std::size_t validators, double audit_fraction, std::size_t rounds) {
  Rng rng(2024);
  SimClock clock;
  net::Network network(clock, Rng(77),
                       net::LinkParams{.base_latency = 1.0, .jitter = 2.0, .drop_rate = 0.0});
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet alice(rng);
  crypto::Wallet device(rng);
  LedgerState genesis;
  genesis.credit(alice.address(), 100'000'000);
  genesis.credit(device.address(), 100'000'000);  // audit fees
  ValidatorCommittee committee(network, validators, contracts, genesis, 256, rng);

  std::uint64_t alice_nonce = 0, device_nonce = 0;
  AuditClient audit_client(device, rng);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 200; ++i) {
      if (rng.uniform() < audit_fraction) {
        committee.submit(make_audit_record(
            device, device_nonce++,
            AuditRecordBody{"gaze", "render", 7, "laplace(eps=1.0)"}, 1, rng));
      } else {
        committee.submit(
            make_transfer(alice, alice_nonce++, crypto::Address{9}, 1, 1, rng));
      }
    }
    (void)committee.run_round();
  }
  Row row;
  const auto& stats = committee.stats();
  row.txs_per_round = stats.committed_blocks
                          ? static_cast<double>(stats.committed_txs) /
                                static_cast<double>(stats.committed_blocks)
                          : 0.0;
  row.commit_ticks = stats.avg_commit_ticks();
  row.failed = static_cast<double>(stats.failed_rounds);
  return row;
}

void print_table() {
  std::printf("=== E7: BFT ledger throughput & audit-record overhead ===\n");
  std::printf("200 txs submitted per round, 10 rounds, block cap 256\n\n");
  std::printf("%12s %12s %16s %14s %8s\n", "validators", "audit mix",
              "txs/block", "commit ticks", "failed");
  for (const std::size_t v : {4u, 7u, 10u, 16u}) {
    for (const double mix : {0.0, 0.5, 1.0}) {
      const Row row = run(v, mix, 10);
      std::printf("%12zu %11.0f%% %16.1f %14.1f %8.0f\n", v, mix * 100,
                  row.txs_per_round, row.commit_ticks, row.failed);
    }
  }
  std::printf("\nshape: throughput is flat in the audit mix (audit records cost\n"
              "what transfers cost); commit latency grows mildly with committee\n"
              "size (quorum fan-in), not with the record type.\n\n");
}

void BM_Sha256_1KiB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB)->UseRealTime();

void BM_SchnorrSign(benchmark::State& state) {
  Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  const Bytes msg(64, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(kp.priv, msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign)->UseRealTime();

void BM_SchnorrVerify(benchmark::State& state) {
  Rng rng(2);
  const auto kp = crypto::generate_keypair(rng);
  const Bytes msg(64, 0x11);
  const auto sig = crypto::sign(kp.priv, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify)->UseRealTime();

void BM_TxApplyTransfer(benchmark::State& state) {
  Rng rng(3);
  ContractRegistry contracts;
  crypto::Wallet alice(rng);
  LedgerState ledger_state;
  ledger_state.credit(alice.address(), 1'000'000'000);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const auto tx = make_transfer(alice, nonce++, crypto::Address{5}, 1, 0, rng);
    benchmark::DoNotOptimize(ledger_state.apply(tx, contracts, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TxApplyTransfer)->UseRealTime();

// Hot path of block production: assemble a 256-tx block on top of a ledger
// with `range(0)` funded accounts, then fully validate it. The per-block cost
// must track block size, not world size (the seed deep-copied the whole
// account map twice per block).
void BM_BlockAssembleValidate(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTxs = 256;
  Rng rng(9);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet validator(rng);
  LedgerState genesis;
  for (std::size_t i = 0; i < accounts; ++i) {
    genesis.credit(crypto::Address{0x100000 + i}, 1);
  }
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxs);
  std::vector<Transaction> candidates;
  candidates.reserve(kTxs);
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000);
    candidates.push_back(
        make_transfer(senders.back(), 0, crypto::Address{7}, 1, 1, rng));
  }
  ChainConfig config;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxs;
  Blockchain chain(config, contracts, genesis);
  for (auto _ : state) {
    const Block block = chain.assemble(validator, candidates, 0, rng);
    benchmark::DoNotOptimize(chain.validate(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_BlockAssembleValidate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Block validation: fully validate a 512-tx low-conflict block (distinct
// senders, distinct recipients) over a world of `range(0)` funded accounts.
// The candidate set and the block are built once outside the timed loop, so
// the measurement isolates validation: header checks, signature checks and
// the serial apply loop, plus the overlay commitment.
void BM_BlockValidate(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTxs = 512;
  Rng rng(13);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet validator(rng);
  LedgerState genesis;
  for (std::size_t i = 0; i < accounts; ++i) {
    genesis.credit(crypto::Address{0x100000 + i}, 1);
  }
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxs);
  std::vector<Transaction> candidates;
  candidates.reserve(kTxs);
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000);
    candidates.push_back(make_transfer(senders.back(), 0,
                                       crypto::Address{0x900000 + i}, 1, 1, rng));
  }
  ChainConfig config;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxs;
  Blockchain chain(config, contracts, genesis);
  const Block block = chain.assemble(validator, candidates, 0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.validate(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_BlockValidate)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Follower commit: the unsealed append() of a 512-transfer block over 10^5
// funded accounts — header checks, execution with a cold signature cache,
// the commit into the ledger state and the committed-state root check,
// which is where state layout shows. Blocks come from a proposer chain
// built before the timed loop; each block moves 512 distinct senders to 512
// distinct recipients. When the pre-built blocks run out, a fresh follower
// (a copy of the genesis and a fresh signature cache) is set up untimed.
// `range(0)` is the follower's queue workers: 0 runs the serial block check,
// workers spread its signature checks and accounts re-hash over the queue
// (the calling thread helping).
void BM_FollowerAppend(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAccounts = 100'000;
  constexpr std::size_t kTxs = 512;
  constexpr std::size_t kBlocks = 24;
  Rng rng(19);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet validator(rng);
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxs);
  LedgerState genesis;
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000);
  }
  std::vector<crypto::Address> recipients;
  while (genesis.account_count() < kAccounts) {
    const crypto::Address a{rng.next_u64() | 1};
    if (genesis.has_account(a)) continue;
    genesis.credit(a, 1'000);
    recipients.push_back(a);
  }
  (void)genesis.commitment();  // settled once: every chain copies a built tree
  ChainConfig config;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxs;
  std::vector<Block> blocks;
  {
    Blockchain proposer(config, contracts, genesis);
    for (std::size_t h = 0; h < kBlocks; ++h) {
      std::vector<Transaction> txs;
      txs.reserve(kTxs);
      for (std::size_t i = 0; i < kTxs; ++i) {
        txs.push_back(make_transfer(senders[i], h,
                                    recipients[(h * kTxs + i) % recipients.size()],
                                    1 + i % 100, 1, rng));
      }
      blocks.push_back(proposer.assemble(validator, txs, static_cast<Tick>(h), rng));
      if (!proposer.append(blocks.back()).ok()) {
        state.SkipWithError("proposer rejected its own block");
        return;
      }
    }
  }
  const auto queue = std::make_shared<JobQueue>(JobQueueConfig{.threads = workers});
  const auto fresh_follower = [&] {
    ChainConfig fc = config;
    fc.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    fc.validation.job_queue = queue;
    return std::make_unique<Blockchain>(fc, contracts, genesis);
  };
  std::unique_ptr<Blockchain> follower = fresh_follower();
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kBlocks) {
      state.PauseTiming();
      follower = fresh_follower();
      next = 0;
      state.ResumeTiming();
    }
    if (!follower->append(blocks[next++]).ok()) {
      state.SkipWithError("follower rejected a block");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_FollowerAppend)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Proposer round: assemble() of a 512-transfer block over `range(0)` funded
// accounts, then the sealed append() that commits it — the proposer's
// counterpart of BM_FollowerAppend. The append hashes nothing that assemble
// hashed (no tx digest, tx_root, account leaf or tree node again): it
// adopts the seal's staged digests. Each block moves 512 distinct senders
// to distinct recipients; the candidate lists are signed before the timed
// loop, and when they run out a fresh chain over the genesis is set up
// untimed.
void BM_ProposerRound(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTxs = 512;
  constexpr std::size_t kBlocks = 24;
  Rng rng(23);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet validator(rng);
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxs);
  LedgerState genesis;
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000);
  }
  std::vector<crypto::Address> recipients;
  while (genesis.account_count() < accounts) {
    const crypto::Address a{rng.next_u64() | 1};
    if (genesis.has_account(a)) continue;
    genesis.credit(a, 1'000);
    recipients.push_back(a);
  }
  (void)genesis.commitment();  // settled once: every chain copies a built tree
  ChainConfig config;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxs;
  std::vector<std::vector<Transaction>> rounds(kBlocks);
  for (std::size_t h = 0; h < kBlocks; ++h) {
    rounds[h].reserve(kTxs);
    for (std::size_t i = 0; i < kTxs; ++i) {
      rounds[h].push_back(make_transfer(senders[i], h,
                                        recipients[(h * kTxs + i) % recipients.size()],
                                        1 + i % 100, 1, rng));
    }
  }
  auto chain = std::make_unique<Blockchain>(config, contracts, genesis);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kBlocks) {
      state.PauseTiming();
      chain = std::make_unique<Blockchain>(config, contracts, genesis);
      next = 0;
      state.ResumeTiming();
    }
    const Block block =
        chain->assemble(validator, rounds[next], static_cast<Tick>(next), rng);
    ++next;
    if (block.txs.size() != kTxs || !chain->append(block).ok()) {
      state.SkipWithError("proposer rejected its own block");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_ProposerRound)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Genesis to first block at `range(0)` accounts, as a node joining a world
// builds it: credit every account into a fresh state, hand the state to a
// chain by value and append one sealed block. The chain adopts the state it
// is given, so the state is built (and its accounts tree loaded from the
// credits' pending leaves by one MerkleMap::update) once and never copied;
// the chain's teardown is inside the timing.
void BM_GenesisBuild(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  Rng rng(4242);
  crypto::Wallet validator(rng);
  ChainConfig config;
  config.validators = {validator.public_key()};
  const auto contracts = std::make_shared<ContractRegistry>();
  std::vector<crypto::Address> addrs(accounts);
  for (crypto::Address& a : addrs) a = crypto::Address{rng.next_u64() | 1};
  for (auto _ : state) {
    LedgerState genesis;
    for (const crypto::Address a : addrs) genesis.credit(a, 1'000);
    Blockchain chain(config, contracts, std::move(genesis));
    if (!chain.append(chain.assemble(validator, {}, 0, rng)).ok()) {
      state.SkipWithError("first block append failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(accounts));
}
BENCHMARK(BM_GenesisBuild)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Incremental commitment after touching a handful of accounts in a world of
// `range(0)`: cost must track the touched set (O(touched · log n)), not the
// world ("the seed re-hashed every account, store entry, and audit record
// per state_root() call").
void BM_CommitmentAfterTouch(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  LedgerState ledger_state;
  for (std::size_t i = 0; i < accounts; ++i) {
    ledger_state.credit(crypto::Address{0x100000 + i}, 1);
  }
  benchmark::DoNotOptimize(ledger_state.commitment());  // warm the tree
  std::uint64_t tick = 0;
  for (auto _ : state) {
    auto scratch = LedgerStateOverlay::reader(ledger_state);
    for (std::uint64_t i = 0; i < 16; ++i) {
      scratch.credit(crypto::Address{0x100000 + (tick * 16 + i) % accounts}, 1);
    }
    ++tick;
    benchmark::DoNotOptimize(ledger_state.stage(scratch).commitment);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_CommitmentAfterTouch)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Mempool admission/selection/eviction at pool size `range(0)`: select a
// 256-tx block worth and evict it. Cost must scale with the selected txs,
// not with the pool size.
void BM_MempoolSelectRemove(benchmark::State& state) {
  const auto pool_size = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 256;
  Rng rng(11);
  LedgerState ledger_state;
  // Few senders with deep nonce queues plus many one-shot senders.
  std::vector<crypto::Wallet> wallets;
  const std::size_t deep = 16;
  for (std::size_t i = 0; i < deep; ++i) {
    wallets.emplace_back(rng);
    ledger_state.credit(wallets.back().address(), 1'000'000);
  }
  std::vector<Transaction> txs;
  txs.reserve(pool_size);
  const std::size_t per_sender = pool_size / 2 / deep;
  for (std::size_t i = 0; i < deep; ++i) {
    for (std::size_t n = 0; n < per_sender; ++n) {
      txs.push_back(make_transfer(wallets[i], n, crypto::Address{3}, 1,
                                  1 + (i + n) % 7, rng));
    }
  }
  while (txs.size() < pool_size) {
    wallets.emplace_back(rng);
    ledger_state.credit(wallets.back().address(), 1'000'000);
    txs.push_back(make_transfer(wallets.back(), 0, crypto::Address{3}, 1,
                                1 + txs.size() % 7, rng));
  }
  Mempool pool;
  for (const auto& tx : txs) (void)pool.add(tx, ledger_state);
  for (auto _ : state) {
    const auto picked = pool.select(kBlock, ledger_state);
    pool.remove_included(picked);
    state.PauseTiming();
    for (const auto& tx : picked) (void)pool.add(tx, ledger_state);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_MempoolSelectRemove)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Account proof round trip at a `range(0)`-account tip: full node builds the
// proof (prove_account), light client checks it against the header's state
// root. Both sides must stay logarithmic in the account count.
void BM_AccountProofRoundTrip(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  Rng rng(31337);
  LedgerState genesis;
  std::vector<std::uint64_t> addrs;
  addrs.reserve(accounts);
  for (std::size_t i = 0; i < accounts; ++i) {
    const std::uint64_t a = 0x100000 + i;
    genesis.credit(crypto::Address{a}, 1 + i % 997);
    addrs.push_back(a);
  }
  crypto::Wallet validator(rng);
  ChainConfig config;
  config.validators = {validator.public_key()};
  Blockchain chain(config, std::make_shared<ContractRegistry>(), genesis);
  if (!chain.append(chain.assemble(validator, {}, 0, rng)).ok()) {
    state.SkipWithError("genesis block append failed");
    return;
  }
  const crypto::Digest state_root = chain.blocks()[0].header.state_root;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto ap = chain.prove_account(crypto::Address{addrs[i++ % accounts]}, 0);
    if (!ap.ok() || !verify_account_proof(ap.value(), state_root).ok()) {
      state.SkipWithError("account proof did not verify");
      return;
    }
    benchmark::DoNotOptimize(ap);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountProofRoundTrip)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The same round trip across the wire, as a light client sees it: the full
// node proves and encodes, the client decodes the bytes and verifies them.
// Measures the strict AccountProof/MerkleMapProof decoders on top of the
// proof work BM_AccountProofRoundTrip covers.
void BM_AccountProofWire(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  Rng rng(31337);
  LedgerState genesis;
  for (std::size_t i = 0; i < accounts; ++i) {
    genesis.credit(crypto::Address{0x100000 + i}, 1 + i % 997);
  }
  crypto::Wallet validator(rng);
  ChainConfig config;
  config.validators = {validator.public_key()};
  Blockchain chain(config, std::make_shared<ContractRegistry>(), genesis);
  if (!chain.append(chain.assemble(validator, {}, 0, rng)).ok()) {
    state.SkipWithError("genesis block append failed");
    return;
  }
  const crypto::Digest state_root = chain.blocks()[0].header.state_root;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto ap =
        chain.prove_account(crypto::Address{0x100000 + i++ % accounts}, 0);
    if (!ap.ok()) {
      state.SkipWithError("prove_account failed");
      return;
    }
    const Bytes wire = ap.value().encode();
    const auto decoded = AccountProof::decode(wire);
    if (!decoded.ok() || !verify_account_proof(decoded.value(), state_root).ok()) {
      state.SkipWithError("decoded account proof did not verify");
      return;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccountProofWire)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// ---- snapshot sync: O(state) catch-up vs O(history) replay ----

// A committed source chain, built once per (accounts, history) combination
// and cached across benchmark registrations: constructing a 100k-account,
// 1000-block history dominates the wall clock otherwise.
struct CatchUpFixture {
  ChainConfig config;
  std::shared_ptr<ContractRegistry> contracts =
      std::make_shared<ContractRegistry>();
  /// Every replica starts from a copy of it, taken outside the timing: an
  /// O(state) genesis clone would otherwise dwarf the catch-up path under
  /// measurement at 100k accounts.
  LedgerState genesis;
  std::unique_ptr<Blockchain> source;
  /// Serving side of the suffix bench: a real server exports once and then
  /// answers every replica from the pinned entry, so iterations measure the
  /// replica's install + replay, not a per-sync re-export.
  SnapshotExportCache export_cache;
};

CatchUpFixture& catchup_fixture(std::size_t accounts, std::size_t history) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<CatchUpFixture>>
      cache;
  auto& slot = cache[{accounts, history}];
  if (slot != nullptr) return *slot;

  auto f = std::make_unique<CatchUpFixture>();
  Rng rng(71);
  crypto::Wallet validator(rng);
  f->config.validators = {validator.public_key()};
  f->config.max_txs_per_block = 64;
  // Retain enough history to export the snapshot the suffix bench needs.
  f->config.state_retention = history / 10 + 1;
  LedgerState genesis;
  for (std::size_t i = 0; i < accounts; ++i) {
    genesis.credit(crypto::Address{0x100000 + i}, 1 + i % 97);
  }
  constexpr std::size_t kSenders = 32;
  std::vector<crypto::Wallet> senders;
  senders.reserve(kSenders);
  for (std::size_t i = 0; i < kSenders; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 100'000'000);
  }
  (void)genesis.commitment();  // settled once: every replica copies a built tree
  f->genesis = std::move(genesis);
  f->source = std::make_unique<Blockchain>(f->config, f->contracts, f->genesis);
  std::vector<std::uint64_t> nonces(kSenders, 0);
  for (std::size_t h = 0; h < history; ++h) {
    std::vector<Transaction> txs;
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t s = (h * 4 + j) % kSenders;
      txs.push_back(make_transfer(senders[s], nonces[s]++,
                                  crypto::Address{0x100000 + (h + j) % accounts},
                                  1, 1, rng));
    }
    if (!f->source->append(f->source->assemble(validator, txs,
                                               static_cast<Tick>(h), rng))
             .ok()) {
      std::abort();  // fixture invariant, not a measured failure
    }
  }
  slot = std::move(f);
  return *slot;
}

// Baseline: a fresh replica catches up by replaying the full block history.
// O(history · txs) signature checks and applies.
void BM_CatchUpFullReplay(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  const auto history = static_cast<std::size_t>(state.range(1));
  CatchUpFixture& f = catchup_fixture(accounts, history);
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain replica(f.config, f.contracts, f.genesis);
    state.ResumeTiming();
    const auto n = replica.import_blocks(f.source->export_blocks_from(0));
    if (!n.ok() || replica.tip_hash() != f.source->tip_hash()) {
      state.SkipWithError("full replay did not converge");
      return;
    }
    benchmark::DoNotOptimize(replica.state().commitment());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(history));
}
BENCHMARK(BM_CatchUpFullReplay)
    ->ArgsProduct({{1000, 100000}, {100, 1000}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Snapshot sync: the source exports a verified snapshot at tip − history/10,
// the replica installs it and replays only the suffix. O(state) for the
// snapshot plus O(suffix · txs) for the tail — the tentpole claim is the
// gap to BM_CatchUpFullReplay at deep histories.
void BM_CatchUpSnapshotSuffix(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  const auto history = static_cast<std::size_t>(state.range(1));
  CatchUpFixture& f = catchup_fixture(accounts, history);
  const std::int64_t suffix = static_cast<std::int64_t>(history) / 10;
  const std::int64_t snap_height = f.source->height() - 1 - suffix;
  for (auto _ : state) {
    const auto snap =
        f.export_cache.get_or_export(*f.source, snap_height, kSnapshotChunkSize);
    if (snap == nullptr) {
      state.SkipWithError("snapshot export failed");
      return;
    }
    state.PauseTiming();
    Blockchain replica(f.config, f.contracts, f.genesis);
    state.ResumeTiming();
    if (!replica
             .init_from_snapshot(snap->manifest, snap->chunks,
                                 f.source->block_at(snap_height)->header)
             .ok()) {
      state.SkipWithError("snapshot install failed");
      return;
    }
    const auto n =
        replica.import_blocks(f.source->export_blocks_from(replica.height()));
    if (!n.ok() || replica.tip_hash() != f.source->tip_hash()) {
      state.SkipWithError("suffix replay did not converge");
      return;
    }
    benchmark::DoNotOptimize(replica.state().commitment());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(history));
}
BENCHMARK(BM_CatchUpSnapshotSuffix)
    ->ArgsProduct({{1000, 100000}, {100, 1000}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- swarm catch-up: striped multi-peer transfer and diff snapshots ----

// Source chain + per-replica export caches for the simulated-network catch-up
// benches. Built once; the measured quantity is simulated ticks, which are
// deterministic and independent of wall-clock noise.
struct SwarmBenchFixture {
  static constexpr std::size_t kAccounts = 1000;
  static constexpr std::size_t kChunkSize = 256;
  static constexpr std::size_t kHistory = 24;

  Rng rng{911};
  crypto::Wallet validator{rng};
  ChainConfig config;
  std::shared_ptr<ContractRegistry> contracts =
      std::make_shared<ContractRegistry>();
  LedgerState genesis;
  std::unique_ptr<Blockchain> source;
  std::vector<std::unique_ptr<SnapshotExportCache>> caches;

  SwarmBenchFixture() {
    config.validators = {validator.public_key()};
    config.max_txs_per_block = 64;
    config.state_retention = 8;
    LedgerState g;
    for (std::size_t i = 0; i < kAccounts; ++i) {
      g.credit(crypto::Address{0x100000 + i}, 1 + i % 97);
    }
    crypto::Wallet sender(rng);
    g.credit(sender.address(), 100'000'000);
    genesis = std::move(g);
    source = std::make_unique<Blockchain>(config, contracts, genesis);
    std::uint64_t nonce = 0;
    for (std::size_t h = 0; h < kHistory; ++h) {
      std::vector<Transaction> txs;
      for (std::size_t j = 0; j < 4; ++j) {
        txs.push_back(make_transfer(
            sender, nonce++, crypto::Address{0x100000 + (h * 4 + j) % kAccounts},
            1, 1, rng));
      }
      if (!source->append(
                 source->assemble(validator, txs, static_cast<Tick>(h), rng))
               .ok()) {
        std::abort();  // fixture invariant, not a measured failure
      }
    }
    for (std::size_t i = 0; i < 8; ++i) {
      caches.push_back(std::make_unique<SnapshotExportCache>());
    }
  }
};

SwarmBenchFixture& swarm_fixture() {
  static SwarmBenchFixture f;
  return f;
}

/// One full simulated catch-up; returns the tick count, or 0 on failure
/// (reported via SkipWithError by the caller). `diff_base`, when non-null,
/// is installed as the replica's local diff base before starting.
Tick run_swarm_sync(benchmark::State& state, std::size_t n_peers,
                    net::SnapshotTransferConfig cfg, const Snapshot* diff_base,
                    std::uint64_t* chunks_fetched, std::uint64_t* chunks_reused,
                    std::uint64_t* chunks_received) {
  SwarmBenchFixture& f = swarm_fixture();
  const std::int64_t snap_height = f.source->height() - 2;
  SimClock clock;
  net::Network net(clock, Rng(7), net::LinkParams{2.0, 0.0, 0.0});
  std::vector<std::unique_ptr<net::SnapshotServer>> servers;
  std::vector<NodeId> server_nodes;
  for (std::size_t i = 0; i < n_peers; ++i) {
    servers.push_back(std::make_unique<net::SnapshotServer>(
        net, make_snapshot_source(*f.source, SwarmBenchFixture::kChunkSize,
                                  f.caches[i].get())));
    net::SnapshotServer& server = *servers.back();
    server_nodes.push_back(
        net.add_node([&server](const net::Message& m) { server.handle(m); }));
    servers.back()->bind(server_nodes.back());
  }
  LightClient lc(LightClientConfig{{f.validator.public_key()},
                                   f.source->genesis_hash()});
  for (const Block& b : f.source->blocks()) {
    if (!lc.accept_header(b.header).ok()) {
      state.SkipWithError("header rejected");
      return 0;
    }
  }
  Blockchain replica(f.config, f.contracts, f.genesis);
  SnapshotCatchup catchup(net, replica, lc, cfg);
  const NodeId client =
      net.add_node([&](const net::Message& m) { catchup.handle(m); });
  catchup.bind(client);
  if (diff_base != nullptr) catchup.set_diff_base(*diff_base);
  if (!catchup.start(server_nodes, snap_height).ok()) {
    state.SkipWithError("catch-up start failed");
    return 0;
  }
  Tick ticks = 0;
  while (!catchup.done() && !catchup.failed() && ticks < 100000) {
    clock.advance(1);
    net.step();
    catchup.tick();
    ++ticks;
  }
  if (!catchup.done() || replica.tip_hash() != f.source->tip_hash()) {
    state.SkipWithError("simulated catch-up did not converge");
    return 0;
  }
  const net::NetworkStats stats = net.stats();
  if (chunks_fetched != nullptr) *chunks_fetched = stats.snapshot_chunks_served;
  if (chunks_reused != nullptr) *chunks_reused = stats.snapshot_diff_chunks_reused;
  if (chunks_received != nullptr) *chunks_received = catchup.chunks_received();
  return ticks;
}

// Striped swarm catch-up over a lossless simulated network with a fixed
// per-hop latency. Reported (manual) time is simulated ticks, 1 tick = 1µs
// of reported time: with a 32-request window capped at 4 per peer, in-flight
// capacity scales with the peer set, so more replicas = a deeper transfer
// pipeline and fewer round-trip serializations.
void BM_CatchUpStriped(benchmark::State& state) {
  const auto n_peers = static_cast<std::size_t>(state.range(0));
  net::SnapshotTransferConfig cfg;
  cfg.window = 32;
  cfg.per_peer_inflight = 4;
  std::uint64_t chunks = 0;
  for (auto _ : state) {
    const Tick ticks =
        run_swarm_sync(state, n_peers, cfg, nullptr, nullptr, nullptr, &chunks);
    if (ticks == 0) return;
    state.SetIterationTime(static_cast<double>(ticks) * 1e-6);
  }
  state.counters["chunks"] = static_cast<double>(chunks);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunks));
}
BENCHMARK(BM_CatchUpStriped)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(5)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Diff snapshot vs full fetch, same simulated network. Arg(0) fetches every
// chunk; Arg(1) holds a snapshot from four blocks earlier and prefills the
// chunks whose digests still match, so only the changed ones cross the wire.
void BM_DiffSnapshot(benchmark::State& state) {
  const bool use_diff = state.range(0) != 0;
  SwarmBenchFixture& f = swarm_fixture();
  const std::int64_t snap_height = f.source->height() - 2;
  const auto base =
      f.source->export_snapshot(snap_height - 4, SwarmBenchFixture::kChunkSize);
  if (!base.ok()) {
    state.SkipWithError("base export failed");
    return;
  }
  net::SnapshotTransferConfig cfg;
  cfg.window = 16;
  std::uint64_t fetched = 0;
  std::uint64_t reused = 0;
  std::uint64_t received = 0;
  for (auto _ : state) {
    const Tick ticks =
        run_swarm_sync(state, 1, cfg, use_diff ? &base.value() : nullptr,
                       &fetched, &reused, &received);
    if (ticks == 0) return;
    state.SetIterationTime(static_cast<double>(ticks) * 1e-6);
  }
  state.counters["chunks_fetched"] = static_cast<double>(fetched);
  state.counters["chunks_reused"] = static_cast<double>(reused);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(received));
}
BENCHMARK(BM_DiffSnapshot)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(5)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Snapshot codec round trip in isolation: encode + chunk + digest a
// `range(0)`-account state, then verify + reassemble + decode it.
void BM_SnapshotExportImport(benchmark::State& state) {
  const auto accounts = static_cast<std::size_t>(state.range(0));
  LedgerState ledger_state;
  for (std::size_t i = 0; i < accounts; ++i) {
    ledger_state.credit(crypto::Address{0x100000 + i}, 1 + i % 97);
  }
  benchmark::DoNotOptimize(ledger_state.commitment());  // warm the tree
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const Snapshot snap = build_snapshot(ledger_state, 0);
    auto decoded = assemble_snapshot(snap.manifest, snap.chunks);
    if (!decoded.ok()) {
      state.SkipWithError("snapshot round trip failed");
      return;
    }
    bytes += snap.manifest.total_bytes;
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotExportImport)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Steady-state block validation with the verified-signature cache off
// (range(0) == 0) vs on (1). With the cache, every signature in a re-validated
// block is a digest-keyed hit, so the per-block cost drops to the apply path.
void BM_BlockValidateSigCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  constexpr std::size_t kTxs = 256;
  Rng rng(17);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet validator(rng);
  LedgerState genesis;
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxs);
  std::vector<Transaction> candidates;
  candidates.reserve(kTxs);
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000);
    candidates.push_back(
        make_transfer(senders.back(), 0, crypto::Address{7}, 1, 1, rng));
  }
  ChainConfig config;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxs;
  if (cached) config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  Blockchain chain(config, contracts, genesis);
  const Block block = chain.assemble(validator, candidates, 0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.validate(block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_BlockValidateSigCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One sharded commit round — per-shard select/assemble/append fanned out on
// a JobQueue, then receipt-tree refresh and beacon assembly — over
// `range(0)` shards, 10k background accounts, 256 transfers per round.
// Client-side work (signing, mempool admission) is untimed: the measured
// region is exactly the pipeline the shard split parallelizes. The fan-out
// is caller-helps (the committing thread runs shards too), so the queue gets
// min(shards, cores) - 1 workers: one thread per core at most, and more
// shards than cores price the fan-out bookkeeping rather than speedup.
void BM_ShardedPipeline(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAccounts = 10'000;
  constexpr std::size_t kTxsPerRound = 256;
  Rng rng(23);
  crypto::Wallet validator(rng);
  LedgerState genesis;
  for (std::size_t i = 0; i < kAccounts; ++i) {
    genesis.credit(crypto::Address{0x200000 + i}, 1);
  }
  std::vector<crypto::Wallet> senders;
  senders.reserve(kTxsPerRound);
  for (std::size_t i = 0; i < kTxsPerRound; ++i) {
    senders.emplace_back(rng);
    genesis.credit(senders.back().address(), 1'000'000'000);
  }
  ShardConfig config;
  config.num_shards = shards;
  config.validators = {validator.public_key()};
  config.max_txs_per_block = kTxsPerRound;
  config.seed = 23;
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  JobQueueConfig qc;
  qc.threads = std::min(shards, cores) - 1;
  config.validation.job_queue = std::make_shared<JobQueue>(qc);
  ShardedLedger ledger(config, genesis);
  std::vector<std::uint64_t> nonces(kTxsPerRound, 0);
  Tick tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < kTxsPerRound; ++i) {
      const auto status = ledger.submit(make_transfer(
          senders[i], nonces[i]++, crypto::Address{0x200000 + i}, 1, 1, rng));
      if (!status.ok()) {
        state.SkipWithError(status.error().to_string().c_str());
        return;
      }
    }
    state.ResumeTiming();
    const auto beacon = ledger.commit_round(validator, ++tick);
    if (!beacon.ok()) {
      state.SkipWithError(beacon.error().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(beacon.value().beacon_root);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTxsPerRound));
}
BENCHMARK(BM_ShardedPipeline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Raw job-queue dispatch cost: a 256-task batch of near-empty jobs through
// `range(0)` workers. 0 = inline mode (the floor: admission + telemetry,
// no synchronization hop); higher counts price the queue/wake/complete
// round-trip. The calling thread helps, so worker counts of the core count
// or more measure contention, not speedup.
void BM_JobQueueDispatch(benchmark::State& state) {
  JobQueueConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  JobQueue queue(config);
  constexpr std::size_t kJobs = 256;
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    queue.run_batch(JobClass::kValidation, kJobs, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_JobQueueDispatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The blocking run() a client proof query pays: one near-empty job on an
// idle queue with `range(0)` workers. 0 = inline mode. With workers, nothing
// is queued ahead of the job, so its caller runs it (caller-runs run()) and
// every worker count should read close to inline; a queue that handed the
// job to a worker would pay a wake-up and a completion wait here.
void BM_JobQueueRun(benchmark::State& state) {
  JobQueueConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  JobQueue queue(config);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    queue.run(JobClass::kClientQuery, [&] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JobQueueRun)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Mixed-priority overload: each iteration floods the three lowest classes
// past their depth ceilings while a consensus batch pushes through, the
// shape the admission shedding exists for. Emits the shed rate and
// per-class p50/p99 queue-waits as counters (into BENCH_ledger.json):
// consensus wait must stay near the front of the line while the flooded
// classes absorb the shedding.
void BM_JobQueueMixedOverload(benchmark::State& state) {
  JobQueueConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.limit(JobClass::kGossipRelay).max_depth = 64;
  config.limit(JobClass::kSnapshotServe).max_depth = 32;
  config.limit(JobClass::kClientQuery).max_depth = 16;
  JobQueue queue(config);
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 400; ++i) x = x * 0x2545f4914f6cdd1dULL + 1;
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::uint64_t attempts = 0;
  for (auto _ : state) {
    for (int i = 0; i < 48; ++i) {
      queue.submit(JobClass::kGossipRelay, spin);
      queue.submit(JobClass::kSnapshotServe, spin);
      queue.submit(JobClass::kClientQuery, spin);
      attempts += 3;
    }
    queue.run_batch(JobClass::kConsensus, 16, [&](std::size_t) { spin(); });
    attempts += 16;
  }
  queue.drain();
  const JobQueueStats stats = queue.stats();
  state.counters["shed_rate"] =
      attempts ? static_cast<double>(stats.shed()) / static_cast<double>(attempts)
               : 0.0;
  const auto wait_counters = [&](JobClass cls, const char* tag) {
    const JobClassStats& cs = stats.of(cls);
    state.counters[std::string(tag) + "_wait_p50_us"] = cs.wait_p50_us;
    state.counters[std::string(tag) + "_wait_p99_us"] = cs.wait_p99_us;
  };
  wait_counters(JobClass::kConsensus, "consensus");
  wait_counters(JobClass::kGossipRelay, "gossip");
  wait_counters(JobClass::kClientQuery, "client");
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.completed()));
}
BENCHMARK(BM_JobQueueMixedOverload)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Streaming fan-out: one commit push, serialized once, shared by pointer
// across N subscribers — the zero-copy claim the subscription read path
// makes. Each iteration publishes one commit and delivers every resulting
// push; the counters surface the server's per-commit fan-out wall time
// (mean/p50/p99/max over recent commits). Cost must scale linearly in
// subscriber count with no per-subscriber re-encoding anywhere.
void BM_SubscriptionFanout(benchmark::State& state) {
  const std::size_t subscribers = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  net::Network network(clock, Rng(99),
                       net::LinkParams{.base_latency = 1.0,
                                       .jitter = 0.0,
                                       .drop_rate = 0.0});
  // Unlimited per-client backlog: subscribers here are sinks that never ack,
  // and eviction is not what this benchmark measures.
  net::SubscriptionServer server(
      network, net::SubscriptionConfig{.per_client_cap = 0, .retain = 4});
  const NodeId server_node =
      network.add_node([&](const net::Message& m) { server.handle(m); });
  server.bind(server_node);

  std::uint64_t received = 0;
  std::vector<NodeId> nodes;
  nodes.reserve(subscribers);
  for (std::size_t i = 0; i < subscribers; ++i) {
    nodes.push_back(network.add_node([&](const net::Message& m) {
      received += m.topic == net::kSubPush ? 1 : 0;
    }));
  }
  net::SubscriptionRequest req;
  req.headers = true;
  const Bytes req_bytes = req.encode();
  for (const NodeId n : nodes) {
    (void)network.send(n, server_node, net::kSubSubscribeReq, req_bytes);
  }
  network.run_until_idle();

  // Sized like a small CommitPush (header + one account proof).
  const auto payload = std::make_shared<const Bytes>(Bytes(512, 0x5A));
  std::int64_t height = 0;
  for (auto _ : state) {
    server.publish(height++, payload);
    network.run_until_idle();
  }

  const net::SubscriptionStats stats = server.stats();
  if (received != stats.pushes_sent) state.SkipWithError("pushes lost");
  state.counters["push_mean_us"] = stats.fanout_mean_us;
  state.counters["push_p50_us"] = stats.fanout_p50_us;
  state.counters["push_p99_us"] = stats.fanout_p99_us;
  state.counters["push_max_us"] = stats.fanout_max_us;
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.pushes_sent));
}
BENCHMARK(BM_SubscriptionFanout)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The committee sweep takes far longer than the microbenchmarks; CI runs
  // (scripts/check.sh) skip it to keep the timed JSON emission fast.
  if (std::getenv("MV_BENCH_NO_TABLE") == nullptr) print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
