// Parallel block validation tests: partitioner invariants over randomized
// transaction sets, differential equivalence against the serial oracle and
// full_rehash_commitment(), scheduling determinism across thread counts and
// seeds, dynamic-conflict serial fallback, error parity on invalid blocks,
// and a consensus committee running every replica in parallel mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
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

/// Test contract covering the three access patterns the parallel engine must
/// get right: read-modify-write on colliding store keys ("bump"), payouts to
/// accounts named only in the arguments — invisible to the static conflict
/// footprint ("pay") — and erases ("drop").
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

struct ParallelFixture {
  Rng rng{2026};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet proposer{rng};
  std::vector<crypto::Wallet> wallets;
  std::vector<std::uint64_t> nonces;
  LedgerState genesis;

  explicit ParallelFixture(std::size_t n) {
    contracts->install(std::make_shared<ScratchpadContract>());
    wallets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wallets.emplace_back(rng);
      genesis.credit(wallets.back().address(), 10'000'000);
    }
    nonces.assign(n, 0);
  }

  [[nodiscard]] Blockchain chain(std::size_t threads, std::uint64_t seed = 0,
                                 std::size_t max_txs = 256) const {
    ChainConfig config;
    config.validators = {proposer.public_key()};
    config.max_txs_per_block = max_txs;
    config.validation = ValidationConfig{
        .min_parallel_txs = 8,
        .schedule_seed = seed,
        .job_queue = threads > 1 ? std::make_shared<JobQueue>(
                                       JobQueueConfig{.threads = threads})
                                 : nullptr};
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
};

// ----------------------------------------------------------- partitioner

TEST(ParallelPartitioner, RandomizedPartitionInvariants) {
  Rng rng(8080);
  std::vector<crypto::Wallet> wallets;
  for (int i = 0; i < 6; ++i) wallets.emplace_back(rng);
  const char* contracts[] = {"pad", "dao", "nft"};
  for (int iter = 0; iter < 1200; ++iter) {
    const std::size_t n = rng.next_below(40);
    std::vector<Transaction> txs;
    txs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Transaction tx;  // partitioning never checks signatures; leave unsigned
      tx.sender_pub = wallets[rng.next_below(wallets.size())].public_key();
      tx.nonce = rng.next_below(4);
      const std::uint64_t roll = rng.next_below(10);
      if (roll < 5) {
        tx.kind = TxKind::kTransfer;
        tx.payload =
            TransferBody{wallets[rng.next_below(wallets.size())].address(), 1}
                .encode();
      } else if (roll < 7) {
        tx.kind = TxKind::kAuditRecord;
        tx.payload = AuditRecordBody{"gaze", "presence", 1, "none"}.encode();
      } else {
        tx.kind = TxKind::kContractCall;
        tx.contract = contracts[rng.next_below(3)];
        tx.method = "m";
      }
      txs.push_back(std::move(tx));
    }

    const auto groups = partition_conflicts(txs);

    // Exact cover: every index appears in exactly one group, groups are
    // ordered by smallest member, and each group's indices are ascending.
    std::vector<std::size_t> seen;
    std::size_t prev_front = 0;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      ASSERT_FALSE(groups[gi].empty()) << "iter " << iter;
      EXPECT_TRUE(std::is_sorted(groups[gi].begin(), groups[gi].end()));
      if (gi > 0) {
        EXPECT_GT(groups[gi].front(), prev_front) << "iter " << iter;
      }
      prev_front = groups[gi].front();
      seen.insert(seen.end(), groups[gi].begin(), groups[gi].end());
    }
    std::sort(seen.begin(), seen.end());
    std::vector<std::size_t> want(n);
    std::iota(want.begin(), want.end(), 0);
    ASSERT_EQ(seen, want) << "iter " << iter;

    // No conflict key spans two groups: a shared account or store — even
    // transitively shared — forces co-residence.
    std::map<ConflictKey, std::size_t> owner;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (const std::size_t idx : groups[gi]) {
        for (const ConflictKey& key : conflict_keys(txs[idx])) {
          const auto [it, inserted] = owner.emplace(key, gi);
          EXPECT_EQ(it->second, gi)
              << "iter " << iter << ": key spans groups " << it->second
              << " and " << gi;
        }
      }
    }
  }
}

TEST(ParallelPartitioner, EmptyAndSingletonBlocks) {
  EXPECT_TRUE(partition_conflicts({}).empty());
  Rng rng(7);
  crypto::Wallet w(rng);
  std::vector<Transaction> one = {
      make_transfer(w, 0, crypto::Address{42}, 1, 1, rng)};
  const auto groups = partition_conflicts(one);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], std::vector<std::size_t>{0});
}

TEST(ParallelPartitioner, SharedKeysMergeGroups) {
  Rng rng(11);
  crypto::Wallet a(rng), b(rng), c(rng), d(rng), e(rng);
  // a->b and b->c chain through b's account; d and e bump different keys of
  // the same store, and d's self-transfer rides on d's account — so the five
  // transactions collapse into exactly two groups.
  std::vector<Transaction> txs;
  txs.push_back(make_transfer(a, 0, b.address(), 1, 1, rng));
  txs.push_back(make_transfer(b, 0, c.address(), 1, 1, rng));
  txs.push_back(make_contract_call(e, 0, "pad", "bump", key_args("k"), 1, rng));
  txs.push_back(make_contract_call(d, 0, "pad", "bump", key_args("q"), 1, rng));
  txs.push_back(make_transfer(d, 1, d.address(), 1, 1, rng));
  const auto groups = partition_conflicts(txs);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{2, 3, 4}));
}

// ----------------------------------------------------------- differential

TEST(ParallelValidation, DifferentialManyBlocksMatchSerialOracle) {
  ParallelFixture f(24);
  Blockchain serial = f.chain(1);
  std::vector<Blockchain> par;
  par.push_back(f.chain(2, 11));
  par.push_back(f.chain(4, 0));
  par.push_back(f.chain(8, 977));

  Rng workload(424242);
  std::size_t total_candidates = 0;
  for (std::int64_t b = 0; b < 50; ++b) {
    const auto candidates = f.make_candidates(110, workload);
    total_candidates += candidates.size();
    // Identically seeded per-chain assembly RNGs: the proposer signatures —
    // and so the full block encodings — must come out byte-identical.
    Rng serial_rng(7000 + static_cast<std::uint64_t>(b));
    const Block block =
        serial.assemble(f.proposer, candidates, static_cast<Tick>(b), serial_rng);
    ASSERT_GE(block.txs.size(), 80u) << "block " << b;
    for (auto& chain : par) {
      Rng pr(7000 + static_cast<std::uint64_t>(b));
      const Block pblock =
          chain.assemble(f.proposer, candidates, static_cast<Tick>(b), pr);
      ASSERT_EQ(pblock.encode(), block.encode()) << "block " << b;
    }
    ASSERT_TRUE(serial.append(block).ok()) << "block " << b;
    const StateCommitment want = serial.state().commitment();
    for (auto& chain : par) {
      ASSERT_TRUE(chain.append(block).ok()) << "block " << b;
      ASSERT_EQ(chain.state().commitment(), want) << "block " << b;
    }
  }
  EXPECT_GE(total_candidates, 5000u);

  // Incremental commitments on every replica agree with the from-scratch
  // oracle, and the parallel path actually ran.
  EXPECT_EQ(serial.state().commitment(), serial.state().full_rehash_commitment());
  EXPECT_EQ(serial.validation_stats().parallel_applies, 0u);
  for (auto& chain : par) {
    EXPECT_EQ(chain.state().commitment(), chain.state().full_rehash_commitment());
    EXPECT_GT(chain.validation_stats().parallel_applies, 0u);
  }
}

// ----------------------------------------------------------- determinism

TEST(ParallelValidation, CommitmentsBitIdenticalAcrossThreadsAndSeeds) {
  ParallelFixture f(16);
  Rng workload(5150);
  const auto candidates = f.make_candidates(120, workload);
  Blockchain serial = f.chain(1);
  Rng assemble_rng(31);
  const Block block = serial.assemble(f.proposer, candidates, 0, assemble_rng);
  ASSERT_GE(block.txs.size(), 80u);
  ASSERT_TRUE(serial.append(block).ok());
  const StateCommitment want = serial.state().commitment();
  ASSERT_EQ(want, serial.state().full_rehash_commitment());

  // Thread count, worker-schedule seed, and run repetition must all be
  // invisible in the result: every section digest, including the
  // order-sensitive audit chain hash, is bit-identical to serial.
  const std::pair<std::size_t, std::uint64_t> configs[] = {
      {2, 0}, {2, 7}, {4, 0}, {4, 99}, {4, 424242}, {8, 1}, {8, 31337}};
  for (const auto& [threads, seed] : configs) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      Blockchain chain = f.chain(threads, seed);
      ASSERT_TRUE(chain.append(block).ok())
          << threads << " threads, seed " << seed << ", run " << repeat;
      const StateCommitment got = chain.state().commitment();
      EXPECT_EQ(got.audit_digest, want.audit_digest)
          << threads << " threads, seed " << seed;
      EXPECT_EQ(got, want) << threads << " threads, seed " << seed;
    }
  }
}

// ----------------------------------------------------------- fallback

TEST(ParallelValidation, DisjointTransfersRunParallelWithoutFallback) {
  ParallelFixture f(16);
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < f.wallets.size(); ++i) {
    // Fresh, pairwise-distinct recipients: fully disjoint footprints.
    txs.push_back(make_transfer(f.wallets[i], 0, crypto::Address{9'000 + i}, 10,
                                1, f.rng));
  }
  Blockchain serial = f.chain(1);
  Blockchain parallel = f.chain(4);
  Rng r1(5), r2(5);
  const Block block = serial.assemble(f.proposer, txs, 0, r1);
  ASSERT_EQ(block.encode(), parallel.assemble(f.proposer, txs, 0, r2).encode());
  ASSERT_EQ(block.txs.size(), txs.size());
  ASSERT_TRUE(serial.append(block).ok());
  ASSERT_TRUE(parallel.append(block).ok());
  EXPECT_EQ(parallel.validation_stats().serial_fallbacks, 0u);
  EXPECT_GT(parallel.validation_stats().parallel_applies, 0u);
  EXPECT_EQ(parallel.state().commitment(), serial.state().commitment());
  EXPECT_EQ(parallel.state().commitment(),
            parallel.state().full_rehash_commitment());
}

TEST(ParallelValidation, DynamicContractConflictIsRepairedInPlace) {
  ParallelFixture f(10);
  // tx0 pays wallet 9 through the contract: that credit is named only in the
  // call arguments, so tx0 and tx1 (a direct transfer to wallet 9) land in
  // different static groups while writing the same account. The tracked-run
  // interference check must catch it; the repair path re-runs just the two
  // entangled units in block order — the independent transfers' unit
  // overlays are kept, and no full serial fallback happens.
  std::vector<Transaction> txs;
  txs.push_back(make_contract_call(f.wallets[0], 0, "pad", "pay",
                                   pay_args(f.wallets[9].address(), 500), 1,
                                   f.rng));
  txs.push_back(make_transfer(f.wallets[1], 0, f.wallets[9].address(), 300, 1,
                              f.rng));
  for (std::size_t i = 2; i < 8; ++i) {
    txs.push_back(make_transfer(f.wallets[i], 0, f.wallets[i].address(), 1, 1,
                                f.rng));
  }
  Blockchain serial = f.chain(1);
  Blockchain parallel = f.chain(4);
  Rng r1(5), r2(5);
  const Block block = serial.assemble(f.proposer, txs, 0, r1);
  ASSERT_EQ(block.encode(), parallel.assemble(f.proposer, txs, 0, r2).encode());
  ASSERT_EQ(block.txs.size(), txs.size());
  ASSERT_TRUE(serial.append(block).ok());
  ASSERT_TRUE(parallel.append(block).ok());
  EXPECT_GE(parallel.validation_stats().repairs, 1u);
  EXPECT_EQ(parallel.validation_stats().serial_fallbacks, 0u);
  EXPECT_EQ(parallel.state().commitment(), serial.state().commitment());
  // Both credits landed exactly once.
  EXPECT_EQ(parallel.state().balance(f.wallets[9].address()),
            10'000'000u + 500u + 300u);
}

TEST(ParallelValidation, RepairedCommitmentsMatchSerialByteForByte) {
  // Differential oracle for the repair path: a conflict-heavy randomized
  // mix (dynamic contract payouts guarantee cross-unit entanglement) runs
  // through a serial chain and parallel chains across thread counts and
  // schedule seeds. Every appended block must leave byte-identical
  // commitments, whether the block was repaired, fully parallel, or fell
  // back — and the workload must actually exercise the repair path.
  ParallelFixture f(24);
  Blockchain serial = f.chain(1);
  Blockchain par_a = f.chain(4);
  Blockchain par_b = f.chain(8, /*seed=*/0xfeed);
  Rng candidate_rng(909);
  std::uint64_t repairs = 0;
  for (int round = 0; round < 6; ++round) {
    auto txs = f.make_candidates(48, candidate_rng);
    // Stack extra dynamic payouts aimed at hot recipients so several static
    // groups collide at run time in every round.
    for (int extra = 0; extra < 4; ++extra) {
      const std::size_t payer = extra + 16;
      txs.push_back(make_contract_call(
          f.wallets[payer], f.nonces[payer]++, "pad", "pay",
          pay_args(f.wallets[extra].address(), 10 + extra), 1, f.rng));
    }
    Rng r1(1000 + round), r2(1000 + round), r3(1000 + round);
    const Block block = serial.assemble(f.proposer, txs, round, r1);
    ASSERT_EQ(block.encode(), par_a.assemble(f.proposer, txs, round, r2).encode());
    ASSERT_EQ(block.encode(), par_b.assemble(f.proposer, txs, round, r3).encode());
    ASSERT_TRUE(serial.append(block).ok());
    ASSERT_TRUE(par_a.append(block).ok());
    ASSERT_TRUE(par_b.append(block).ok());
    ASSERT_EQ(par_a.state().commitment(), serial.state().commitment())
        << "round " << round;
    ASSERT_EQ(par_b.state().commitment(), serial.state().commitment())
        << "round " << round;
    repairs = par_a.validation_stats().repairs + par_b.validation_stats().repairs;
  }
  EXPECT_GT(repairs, 0u);
  EXPECT_EQ(par_a.state().commitment(), par_a.state().full_rehash_commitment());
}

TEST(ParallelValidation, SmallBlocksStaySerial) {
  ParallelFixture f(4);
  Blockchain chain = f.chain(4);  // min_parallel_txs = 8
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 3; ++i) {
    txs.push_back(make_transfer(f.wallets[i], 0, crypto::Address{100 + i}, 1, 1,
                                f.rng));
  }
  Rng ar(3);
  const Block block = chain.assemble(f.proposer, txs, 0, ar);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_GT(chain.validation_stats().applies, 0u);
  EXPECT_EQ(chain.validation_stats().parallel_applies, 0u);
  EXPECT_EQ(chain.state().commitment(), chain.state().full_rehash_commitment());
}

// ----------------------------------------------------------- error parity

TEST(ParallelValidation, InvalidBlockErrorsMatchSerialExactly) {
  ParallelFixture f(10);
  Blockchain serial = f.chain(1);
  Blockchain parallel = f.chain(4);
  // Hand-built block whose tx 5 carries a bad nonce. Validation must report
  // the same failing index, code, and message on both paths (the parallel
  // engine re-applies serially on failure precisely for this).
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::uint64_t nonce = (i == 5) ? 3 : 0;
    txs.push_back(make_transfer(f.wallets[i], nonce,
                                f.wallets[(i + 1) % 10].address(), 5, 1, f.rng));
  }
  Block block;
  block.txs = txs;
  block.header.height = 0;
  block.header.prev_hash = serial.tip_hash();
  block.header.tx_root = Block::compute_tx_root(txs);
  block.header.state_root = {};  // never reached: the bad tx fails first
  block.header.timestamp = 0;
  block.header.proposer_pub = f.proposer.public_key();
  block.header.proposer_sig =
      f.proposer.sign(block.header.signing_bytes(), f.rng);

  const Status s1 = serial.validate(block);
  const Status s2 = parallel.validate(block);
  ASSERT_FALSE(s1.ok());
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s1.error().code, s2.error().code);
  EXPECT_EQ(s1.error().message, s2.error().message);
  // Rejection left both chains untouched and consistent.
  EXPECT_EQ(serial.height(), 0);
  EXPECT_EQ(parallel.height(), 0);
  EXPECT_EQ(parallel.state().commitment(), serial.state().commitment());
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
      ValidationConfig{
          .min_parallel_txs = 4,
          .job_queue = std::make_shared<JobQueue>(JobQueueConfig{.threads = 4})});

  // Mostly-disjoint workload (distinct senders paying fresh addresses) so the
  // partitioner actually finds parallelism; the bump calls all share the
  // contract store and ride along as one group.
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
  EXPECT_GT(committee.chain(0).validation_stats().parallel_applies, 0u);
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
      ValidationConfig{
          .min_parallel_txs = 4,
          .job_queue = std::make_shared<JobQueue>(JobQueueConfig{.threads = 2})});
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
