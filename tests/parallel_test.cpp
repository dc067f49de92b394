// Block application tests: apply_block is one serial loop, so every queue
// configuration must reproduce the queue-less serial oracle byte for byte —
// a conflict-heavy differential (including contract payouts to accounts the
// transactions never name) against the serial chain and
// full_rehash_commitment(), commitment equality across queue worker counts,
// error parity on invalid blocks, the parallel block check (signature
// look-ahead against the serial loop's cache behaviour, follower appends at
// every worker count), and consensus committees whose replicas run threaded
// queues.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ledger/chain.h"
#include "ledger/consensus.h"
#include "ledger/parallel.h"

namespace mv::ledger {
namespace {

Bytes key_args(std::string_view key) {
  ByteWriter w;
  w.str(key);
  return w.take();
}

Bytes pay_args(crypto::Address to, std::uint64_t amount) {
  ByteWriter w;
  w.u64(to.value);
  w.u64(amount);
  return w.take();
}

/// Test contract covering three access patterns: read-modify-write on
/// colliding store keys ("bump"), payouts to accounts named only in the
/// arguments ("pay"), and erases ("drop").
class ScratchpadContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "pad"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const override {
    ByteReader r(args);
    if (method == "bump") {
      auto key = r.str();
      if (!key.ok()) return key.error();
      std::uint64_t counter = 0;
      if (const Bytes* cur = ctx.get(key.value())) {
        ByteReader vr(*cur);
        auto v = vr.u64();
        if (!v.ok()) return v.error();
        counter = v.value();
      }
      ByteWriter w;
      w.u64(counter + 1);
      ctx.put(key.value(), w.take());
      return {};
    }
    if (method == "pay") {
      auto to = r.u64();
      if (!to.ok()) return to.error();
      auto amount = r.u64();
      if (!amount.ok()) return amount.error();
      return ctx.transfer(ctx.caller(), crypto::Address{to.value()},
                          amount.value());
    }
    if (method == "drop") {
      auto key = r.str();
      if (!key.ok()) return key.error();
      ctx.erase(key.value());
      return {};
    }
    return Status::fail("pad.bad_method", method);
  }
};

/// Queue worker counts every test sweeps; 0 is the inline queue.
constexpr std::size_t kWorkerCounts[] = {0, 1, 2, 4, 8};

/// Validation on a JobQueue of `workers` threads (0 = inline), no sig cache.
ValidationConfig on_queue(std::size_t workers) {
  ValidationConfig config;
  config.job_queue = std::make_shared<JobQueue>(JobQueueConfig{.threads = workers});
  return config;
}

struct BlockFixture {
  Rng rng{2026};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet proposer{rng};
  std::vector<crypto::Wallet> wallets;
  std::vector<std::uint64_t> nonces;
  LedgerState genesis;

  explicit BlockFixture(std::size_t n) {
    contracts->install(std::make_shared<ScratchpadContract>());
    wallets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wallets.emplace_back(rng);
      genesis.credit(wallets.back().address(), 10'000'000);
    }
    nonces.assign(n, 0);
  }

  /// The serial oracle: no queue, no sig cache.
  [[nodiscard]] Blockchain serial_chain() const {
    ChainConfig config;
    config.validators = {proposer.public_key()};
    return Blockchain(config, contracts, genesis);
  }

  /// A chain on a JobQueue of `workers` threads with its own sig cache, so
  /// the cache's skip path is differentially checked too.
  [[nodiscard]] Blockchain queue_chain(std::size_t workers) const {
    ChainConfig config;
    config.validators = {proposer.public_key()};
    config.validation = on_queue(workers);
    config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    return Blockchain(config, contracts, genesis);
  }

  /// Conflict-heavy candidate mix: self-transfers, shared hot recipients,
  /// colliding store keys, dynamic contract payouts, and a sprinkle of
  /// invalid transactions that assembly must drop identically everywhere.
  /// Invalid candidates reuse the sender's current nonce without advancing
  /// it, so the sender's next valid transaction still applies.
  std::vector<Transaction> make_candidates(std::size_t count, Rng& r) {
    std::vector<Transaction> txs;
    txs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t w = r.next_below(wallets.size());
      const crypto::Wallet& sender = wallets[w];
      const std::uint64_t roll = r.next_below(100);
      if (roll < 40) {
        crypto::Address to;
        const std::uint64_t pick = r.next_below(10);
        if (pick < 3) {
          to = sender.address();  // self-transfer: sender == recipient key
        } else if (pick < 6) {
          to = wallets[r.next_below(4)].address();  // hot shared recipients
        } else {
          to = wallets[r.next_below(wallets.size())].address();
        }
        txs.push_back(make_transfer(sender, nonces[w]++, to,
                                    1 + r.next_below(50), 1 + r.next_below(4), r));
      } else if (roll < 52) {
        txs.push_back(make_audit_record(
            sender, nonces[w]++,
            AuditRecordBody{"gaze", "presence", r.next_below(1000), "none"}, 1,
            r));
      } else if (roll < 70) {
        const std::string key = "k" + std::to_string(r.next_below(8));
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "bump",
                                         key_args(key), 1, r));
      } else if (roll < 78) {
        const crypto::Address to = wallets[r.next_below(wallets.size())].address();
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "pay",
                                         pay_args(to, 1 + r.next_below(20)), 1,
                                         r));
      } else if (roll < 84) {
        const std::string key = "k" + std::to_string(r.next_below(8));
        txs.push_back(make_contract_call(sender, nonces[w]++, "pad", "drop",
                                         key_args(key), 1, r));
      } else if (roll < 92) {
        // Overdraft: valid signature, impossible amount.
        txs.push_back(make_transfer(sender, nonces[w], wallets[0].address(),
                                    1'000'000'000'000ULL, 1, r));
      } else {
        Transaction tx = make_transfer(sender, nonces[w], wallets[0].address(),
                                       1, 1, r);
        tx.sig.s ^= 1;  // corrupted signature
        txs.push_back(tx);
      }
    }
    return txs;
  }

  /// Appends contract payouts from wallets 16..19 to the hot recipients
  /// 0..3: credits to accounts the transactions never name.
  void add_dynamic_payouts(std::vector<Transaction>& txs, Rng& r) {
    for (std::size_t extra = 0; extra < 4; ++extra) {
      const std::size_t payer = extra + 16;
      txs.push_back(make_contract_call(
          wallets[payer], nonces[payer]++, "pad", "pay",
          pay_args(wallets[extra].address(), 10 + extra), 1, r));
    }
  }
};

// ----------------------------------------------------------- differential

TEST(ParallelValidation, DifferentialManyBlocksMatchSerialOracle) {
  BlockFixture f(24);
  Blockchain serial = f.serial_chain();
  std::vector<Blockchain> queued;
  for (const std::size_t workers : kWorkerCounts) {
    queued.push_back(f.queue_chain(workers));
  }

  Rng workload(424242);
  std::size_t total_candidates = 0;
  for (std::int64_t b = 0; b < 50; ++b) {
    auto candidates = f.make_candidates(110, workload);
    // Every other block also carries payouts to hot recipients that reach
    // their accounts only through the contract's arguments.
    if (b % 2 == 1) f.add_dynamic_payouts(candidates, workload);
    total_candidates += candidates.size();
    // Identically seeded per-chain assembly RNGs: the proposer signatures —
    // and so the full block encodings — must come out byte-identical.
    Rng serial_rng(7000 + static_cast<std::uint64_t>(b));
    const Block block =
        serial.assemble(f.proposer, candidates, static_cast<Tick>(b), serial_rng);
    ASSERT_GE(block.txs.size(), 80u) << "block " << b;
    for (auto& chain : queued) {
      Rng pr(7000 + static_cast<std::uint64_t>(b));
      const Block pblock =
          chain.assemble(f.proposer, candidates, static_cast<Tick>(b), pr);
      ASSERT_EQ(pblock.encode(), block.encode()) << "block " << b;
    }
    ASSERT_TRUE(serial.append(block).ok()) << "block " << b;
    const StateCommitment want = serial.state().commitment();
    for (auto& chain : queued) {
      ASSERT_TRUE(chain.append(block).ok()) << "block " << b;
      ASSERT_EQ(chain.state().commitment(), want) << "block " << b;
    }
  }
  EXPECT_GE(total_candidates, 5000u);

  // Incremental commitments on every replica agree with the from-scratch
  // oracle.
  EXPECT_EQ(serial.state().commitment(), serial.state().full_rehash_commitment());
  for (auto& chain : queued) {
    EXPECT_EQ(chain.state().commitment(), chain.state().full_rehash_commitment());
  }
}

// ----------------------------------------------------------- determinism

TEST(ParallelValidation, CommitmentsBitIdenticalAcrossThreadsAndSeeds) {
  // Blocks from several workload seeds; queue worker count and run
  // repetition must be invisible in the result: every section digest,
  // including the order-sensitive audit chain hash, is bit-identical to
  // serial.
  for (const std::uint64_t seed : {5150u, 77u, 9001u}) {
    BlockFixture f(16);
    Rng workload(seed);
    const auto candidates = f.make_candidates(120, workload);
    Blockchain serial = f.serial_chain();
    Rng assemble_rng(31);
    const Block block = serial.assemble(f.proposer, candidates, 0, assemble_rng);
    ASSERT_GE(block.txs.size(), 80u) << "seed " << seed;
    ASSERT_TRUE(serial.append(block).ok());
    const StateCommitment want = serial.state().commitment();
    ASSERT_EQ(want, serial.state().full_rehash_commitment());

    for (const std::size_t workers : kWorkerCounts) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        Blockchain chain = f.queue_chain(workers);
        ASSERT_TRUE(chain.append(block).ok())
            << workers << " workers, seed " << seed << ", run " << repeat;
        const StateCommitment got = chain.state().commitment();
        EXPECT_EQ(got.audit_digest, want.audit_digest)
            << workers << " workers, seed " << seed;
        EXPECT_EQ(got, want) << workers << " workers, seed " << seed;
      }
    }
  }
}

// ----------------------------------------------------------- error parity

TEST(ParallelValidation, InvalidBlockErrorsMatchSerialExactly) {
  BlockFixture f(10);
  Blockchain serial = f.serial_chain();
  // Hand-built blocks whose tx 5 carries a bad nonce, or a corrupted
  // signature (which a sig cache must not vouch for). Every queue
  // configuration must report the serial chain's error code and message.
  for (const bool bad_sig : {false, true}) {
    std::vector<Transaction> txs;
    for (std::size_t i = 0; i < 10; ++i) {
      const std::uint64_t nonce = (i == 5 && !bad_sig) ? 3 : 0;
      txs.push_back(make_transfer(f.wallets[i], nonce,
                                  f.wallets[(i + 1) % 10].address(), 5, 1, f.rng));
    }
    if (bad_sig) txs[5].sig.s ^= 1;
    Block block;
    block.txs = txs;
    block.header.height = 0;
    block.header.prev_hash = serial.tip_hash();
    block.header.tx_root = Block::compute_tx_root(Block::tx_digests(txs));
    block.header.state_root = {};  // never reached: the bad tx fails first
    block.header.timestamp = 0;
    block.header.proposer_pub = f.proposer.public_key();
    block.header.proposer_sig =
        f.proposer.sign(block.header.signing_bytes(), f.rng);

    const Status want = serial.validate(block);
    ASSERT_FALSE(want.ok());
    for (const std::size_t workers : kWorkerCounts) {
      Blockchain chain = f.queue_chain(workers);
      const Status got = chain.validate(block);
      ASSERT_FALSE(got.ok()) << workers << " workers";
      EXPECT_EQ(got.error().code, want.error().code) << workers << " workers";
      EXPECT_EQ(got.error().message, want.error().message)
          << workers << " workers";
      EXPECT_FALSE(chain.append(block).ok()) << workers << " workers";
      // Rejection left the chain untouched and consistent with serial.
      EXPECT_EQ(chain.height(), 0);
      EXPECT_EQ(chain.state().commitment(), serial.state().commitment());
    }
    EXPECT_EQ(serial.height(), 0);
  }
}

// ------------------------------------------------ parallel block check

/// The cache's entries among `candidates`, least recently used first: fresh
/// inserts (one per capacity slot) evict them in LRU order. Consumes the
/// cache's contents.
std::vector<crypto::Digest> lru_order(crypto::DigestLruSet& cache,
                                      const std::vector<crypto::Digest>& candidates) {
  std::vector<crypto::Digest> order;
  std::vector<crypto::Digest> live;
  for (const auto& d : candidates) {
    if (cache.contains(d)) live.push_back(d);
  }
  for (std::size_t n = 0; n < cache.capacity() && !live.empty(); ++n) {
    cache.insert(crypto::sha256(std::to_string(n) + "-fresh"));
    for (auto it = live.begin(); it != live.end();) {
      if (cache.contains(*it)) {
        ++it;
      } else {
        order.push_back(*it);
        it = live.erase(it);
      }
    }
  }
  return order;
}

TEST(ParallelBlockCheck, SigPreverifyMatchesSerialLoop) {
  // On a threaded queue apply_block verifies the cache misses it foresees as
  // one parallel batch before the loop. Every observable of the serial loop
  // must survive that: status, failed index and error (which make execute()'s
  // "tx k" message), applied indices, hit and miss counts, the post-state and
  // the cache's contents and LRU order. Tiny caches make the loop's own
  // inserts evict prewarmed entries the look-ahead counted as hits, so those
  // misses take the inline fallback.
  BlockFixture f(12);
  std::vector<Transaction> valid;
  for (std::size_t i = 0; i < 12; ++i) {
    valid.push_back(make_transfer(f.wallets[i], 0,
                                  f.wallets[(i + 1) % 12].address(), 5, 1, f.rng));
  }
  struct Case {
    std::string name;
    std::vector<Transaction> txs;
    std::vector<std::size_t> prewarm;  ///< indices whose digests start cached
  };
  std::vector<Case> cases = {
      {"all misses", valid, {}},
      {"prewarmed hits", valid, {2, 5, 9, 11}},
      {"duplicate tx", {valid[0], valid[1], valid[2], valid[1], valid[3]}, {0}},
  };
  for (const std::size_t k : {0u, 4u, 11u}) {
    Case c{"bad signature at " + std::to_string(k), valid, {1, k, 7}};
    c.txs[k].sig.s ^= 1;  // tampering also changes the digest: never cached
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    const std::vector<crypto::Digest> digests = Block::tx_digests(c.txs);
    std::vector<crypto::Digest> candidates = digests;
    for (const std::size_t i : c.prewarm) candidates.push_back(valid[i].digest());
    for (const std::size_t capacity :
         {std::size_t{1}, std::size_t{2}, crypto::DigestLruSet().capacity()}) {
      // Run the block on a fresh, prewarmed cache of `capacity`.
      const auto run = [&](ValidationConfig config) {
        config.sig_cache = std::make_shared<crypto::DigestLruSet>(capacity);
        for (const std::size_t i : c.prewarm) config.sig_cache->insert(valid[i].digest());
        auto scratch = LedgerStateOverlay::reader(f.genesis);
        const BlockApplyOutcome out =
            apply_block(scratch, c.txs, digests, *f.contracts, 0, config,
                        ApplyMode::kAllOrNothing);
        return std::tuple(out, f.genesis.stage(scratch).commitment, config.sig_cache);
      };
      const auto [want, want_state, want_cache] = run({});
      const std::size_t want_size = want_cache->size();
      std::vector<bool> want_members;
      for (const auto& d : candidates) want_members.push_back(want_cache->contains(d));
      const std::vector<crypto::Digest> want_order =
          capacity <= 2 ? lru_order(*want_cache, candidates)
                        : std::vector<crypto::Digest>{};
      for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << c.name << ", capacity " << capacity
                                        << ", " << workers << " workers");
        const auto [got, got_state, got_cache] = run(on_queue(workers));
        ASSERT_EQ(got.status.ok(), want.status.ok());
        if (!want.status.ok()) {
          EXPECT_EQ(got.failed_index, want.failed_index);
          EXPECT_EQ(got.status.error().to_string(), want.status.error().to_string());
        }
        EXPECT_EQ(got.applied, want.applied);
        EXPECT_EQ(got.sig_hits, want.sig_hits);
        EXPECT_EQ(got.sig_misses, want.sig_misses);
        EXPECT_EQ(got_state, want_state);
        EXPECT_EQ(got_cache->size(), want_size);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(got_cache->contains(candidates[i]), want_members[i]) << "digest " << i;
        }
        if (capacity <= 2) {
          EXPECT_EQ(lru_order(*got_cache, candidates), want_order);
        }
      }
    }
  }
}

/// Digest-level equality of two undos (StateUndo has no operator==).
void expect_same_undo(const StateUndo& a, const StateUndo& b) {
  EXPECT_EQ(a.accounts, b.accounts);
  EXPECT_EQ(a.audit_count, b.audit_count);
  EXPECT_EQ(a.audit_digest, b.audit_digest);
  EXPECT_EQ(a.burned_delta, b.burned_delta);
  ASSERT_EQ(a.stores.size(), b.stores.size());
  for (auto ia = a.stores.begin(), ib = b.stores.begin(); ia != a.stores.end();
       ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.existed, ib->second.existed);
    EXPECT_EQ(ia->second.entries, ib->second.entries);
  }
}

TEST(ParallelBlockCheck, UnsealedFollowerAppendsMatchAcrossWorkerCounts) {
  // Followers appending a proposer's blocks unsealed: with enough accounts
  // that every block dirties many depth-2 subtrees, the parallel signature
  // batch and the parallel re-hash must leave every worker count with the
  // serial roots and byte-identical undos.
  BlockFixture f(1200);
  Blockchain proposer = f.serial_chain();
  std::vector<StateUndo> want_undos;
  proposer.set_commit_hook(
      [&](const Block&, const StateUndo& undo) { want_undos.push_back(undo); });
  Rng workload(8080);
  std::vector<Block> blocks;
  for (std::int64_t b = 0; b < 4; ++b) {
    std::vector<Transaction> txs;
    for (int t = 0; t < 250; ++t) {  // within max_txs_per_block
      const std::size_t w = workload.next_below(f.wallets.size());
      // A few transfers create fresh accounts (new leaves, node splits).
      const crypto::Address to =
          workload.chance(0.05)
              ? crypto::Address{workload.next_u64()}
              : f.wallets[workload.next_below(f.wallets.size())].address();
      txs.push_back(make_transfer(f.wallets[w], f.nonces[w]++, to,
                                  1 + workload.next_below(100), 1, workload));
    }
    Rng assemble_rng(900 + static_cast<std::uint64_t>(b));
    blocks.push_back(
        proposer.assemble(f.proposer, txs, static_cast<Tick>(b), assemble_rng));
    ASSERT_EQ(blocks.back().txs.size(), txs.size()) << "block " << b;
    ASSERT_TRUE(proposer.append(blocks.back()).ok()) << "block " << b;
  }

  for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    Blockchain follower = f.queue_chain(workers);
    std::vector<StateUndo> undos;
    follower.set_commit_hook(
        [&](const Block&, const StateUndo& undo) { undos.push_back(undo); });
    for (const Block& block : blocks) {
      ASSERT_TRUE(follower.append(block).ok()) << "height " << block.header.height;
      const std::int64_t h = block.header.height;
      EXPECT_EQ(*follower.commitment_at(h), *proposer.commitment_at(h)) << "height " << h;
    }
    ASSERT_EQ(undos.size(), want_undos.size());
    for (std::size_t i = 0; i < undos.size(); ++i) expect_same_undo(undos[i], want_undos[i]);
    EXPECT_EQ(follower.state().commitment(), follower.state().full_rehash_commitment());
    EXPECT_EQ(follower.validation_stats().sig_cache_misses,
              blocks.size() * blocks.front().txs.size());
    // With workers both stages ran as queue batches; inline, neither did.
    const JobClassStats v =
        follower.config().validation.job_queue->stats().of(JobClass::kValidation);
    if (workers == 0) {
      EXPECT_EQ(v.completed, 0u);
    } else {
      EXPECT_GT(v.completed, blocks.size() * 2);
    }
  }
}

// ----------------------------------------------------------- consensus

TEST(ParallelValidation, CommitteeWithParallelReplicasStaysConsistent) {
  Rng rng{909};
  SimClock clock;
  net::Network network{clock, Rng(303),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}};
  auto contracts = std::make_shared<ContractRegistry>();
  contracts->install(std::make_shared<ScratchpadContract>());
  std::vector<crypto::Wallet> wallets;
  LedgerState genesis;
  for (int i = 0; i < 12; ++i) {
    wallets.emplace_back(rng);
    genesis.credit(wallets.back().address(), 1'000'000);
  }
  ValidatorCommittee committee(
      network, 4, contracts, genesis, 128, rng,
      on_queue(4));

  // Distinct senders paying fresh addresses, with store bumps riding along.
  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      const std::size_t w = static_cast<std::size_t>(i) % wallets.size();
      if (i % 5 == 0) {
        committee.submit(make_contract_call(
            wallets[w], nonces[w]++, "pad", "bump",
            key_args("k" + std::to_string(i % 3)), 1, rng));
      } else {
        const crypto::Address fresh{50'000u + static_cast<std::uint64_t>(round) * 100u +
                                    static_cast<std::uint64_t>(i)};
        committee.submit(
            make_transfer(wallets[w], nonces[w]++, fresh, 10, 1, rng));
      }
    }
    ASSERT_TRUE(committee.run_round()) << "round " << round;
  }
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(0).height(), 3);
  for (std::size_t i = 0; i < committee.size(); ++i) {
    EXPECT_EQ(committee.chain(i).state().commitment(),
              committee.chain(i).state().full_rehash_commitment());
  }
}

TEST(ParallelValidation, CommitteeReplicasCommitTheirValidatedSeal) {
  // A non-leader replica validates the proposal before voting; that
  // validation's post-state is the seal its append commits, so every replica
  // executes each block once, and the roots equal a plain follower's.
  Rng rng{4040};
  SimClock clock;
  net::Network network{clock, Rng(505),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}};
  auto contracts = std::make_shared<ContractRegistry>();
  contracts->install(std::make_shared<ScratchpadContract>());
  std::vector<crypto::Wallet> wallets;
  LedgerState genesis;
  for (int i = 0; i < 8; ++i) {
    wallets.emplace_back(rng);
    genesis.credit(wallets.back().address(), 1'000'000);
  }
  ValidatorCommittee committee(
      network, 4, contracts, genesis, 128, rng,
      on_queue(2));
  constexpr int kRounds = 4;
  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 16; ++i) {
      const std::size_t w = static_cast<std::size_t>(i) % wallets.size();
      if (i % 4 == 0) {
        committee.submit(make_contract_call(wallets[w], nonces[w]++, "pad", "bump",
                                            key_args("k" + std::to_string(i % 3)), 1,
                                            rng));
      } else {
        const crypto::Address fresh{70'000u + static_cast<std::uint64_t>(round) * 100u +
                                    static_cast<std::uint64_t>(i)};
        committee.submit(make_transfer(wallets[w], nonces[w]++, fresh, 10, 1, rng));
      }
    }
    ASSERT_TRUE(committee.run_round()) << "round " << round;
  }
  ASSERT_TRUE(committee.replicas_consistent());

  ChainConfig plain = committee.chain(0).config();
  plain.validation = {};
  Blockchain follower(plain, contracts, genesis);
  for (const Block& block : committee.chain(0).blocks()) {
    ASSERT_TRUE(follower.append(block).ok());
  }
  EXPECT_EQ(follower.validation_stats().sealed_commits, 0u);

  std::uint64_t applies = 0;
  for (std::size_t i = 0; i < committee.size(); ++i) {
    const Blockchain& replica = committee.chain(i);
    ASSERT_EQ(replica.height(), kRounds);
    // Leaders commit their assembled seal, everyone else its validated one.
    EXPECT_EQ(replica.validation_stats().sealed_commits,
              static_cast<std::uint64_t>(kRounds))
        << "replica " << i;
    applies += replica.validation_stats().applies;
    for (std::int64_t h = 0; h < kRounds; ++h) {
      EXPECT_EQ(*replica.commitment_at(h), *follower.commitment_at(h))
          << "replica " << i << " height " << h;
    }
    EXPECT_EQ(replica.state().commitment(), replica.state().full_rehash_commitment());
  }
  // Per round: one validation on each replica plus the leader's assembly;
  // no append re-executes.
  EXPECT_EQ(applies, static_cast<std::uint64_t>(kRounds) * (committee.size() + 1));
}

}  // namespace
}  // namespace mv::ledger
