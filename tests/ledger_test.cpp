// Ledger tests: transaction encoding/validation, state transitions, contract
// atomicity, mempool ordering, chain validation, BFT consensus over the
// simulated network, and the on-chain audit registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/job_queue.h"
#include "ledger/audit.h"
#include "ledger/chain.h"
#include "ledger/consensus.h"
#include "ledger/mempool.h"
#include "ledger/replica.h"
#include "net/gossip.h"

namespace mv::ledger {
namespace {

struct Fixture {
  Rng rng{101};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  LedgerState state;

  Fixture() {
    state.credit(alice.address(), 1000);
    state.credit(bob.address(), 500);
  }
};

// ---------------------------------------------------------------- tx codec

TEST(Transaction, EncodeDecodeRoundTrip) {
  Fixture f;
  const Transaction tx =
      make_transfer(f.alice, 0, f.bob.address(), 42, 1, f.rng);
  auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().encode(), tx.encode());
  EXPECT_EQ(decoded.value().digest(), tx.digest());
  EXPECT_TRUE(decoded.value().signature_valid());
}

TEST(Transaction, AuditBodyRoundTrip) {
  const AuditRecordBody body{"gaze", "avatar_animation", 77, "laplace(eps=1.0)"};
  auto decoded = AuditRecordBody::decode(body.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().data_category, "gaze");
  EXPECT_EQ(decoded.value().purpose, "avatar_animation");
  EXPECT_EQ(decoded.value().subject, 77u);
  EXPECT_EQ(decoded.value().pet_applied, "laplace(eps=1.0)");
}

TEST(Transaction, DecodeRejectsGarbage) {
  EXPECT_FALSE(Transaction::decode(Bytes{1, 2, 3}).ok());
  Fixture f;
  Bytes enc = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng).encode();
  enc.push_back(0x00);  // trailing byte
  EXPECT_FALSE(Transaction::decode(enc).ok());
}

TEST(Transaction, TamperedFieldBreaksSignature) {
  Fixture f;
  Transaction tx = make_transfer(f.alice, 0, f.bob.address(), 42, 1, f.rng);
  tx.fee = 0;  // sig covered fee
  EXPECT_FALSE(tx.signature_valid());
}

// ---------------------------------------------------------------- state

TEST(LedgerState, TransferMovesFunds) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  EXPECT_EQ(f.state.balance(f.alice.address()), 895u);  // 1000 - 100 - 5
  EXPECT_EQ(f.state.balance(f.bob.address()), 600u);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 1u);
  EXPECT_EQ(f.state.burned_fees(), 5u);

  // A transfer to oneself pays only the fee, on an overlay and on the state:
  // the credit reads the sender's debited record, not a stale copy.
  const auto self = make_transfer(f.alice, 1, f.alice.address(), 50, 5, f.rng);
  {
    auto block = LedgerStateOverlay::reader(f.state);
    ASSERT_TRUE(block.apply(self, *f.contracts, 0).ok());
    EXPECT_EQ(block.balance(f.alice.address()), 890u);
    EXPECT_EQ(block.nonce(f.alice.address()), 2u);
  }
  ASSERT_TRUE(f.state.apply(self, *f.contracts, 0).ok());
  EXPECT_EQ(f.state.balance(f.alice.address()), 890u);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 2u);
}

TEST(LedgerState, RejectsWrongNonce) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 5, f.bob.address(), 1, 0, f.rng);
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.bad_nonce");
}

TEST(LedgerState, RejectsOverdraft) {
  Fixture f;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 99999, 0, f.rng);
  const auto root_before = f.state.commitment().root;
  EXPECT_FALSE(f.state.apply(tx, *f.contracts, 0).ok());
  // apply() is atomic: a failed transaction leaves no trace.
  EXPECT_EQ(f.state.nonce(f.alice.address()), 0u);
  EXPECT_EQ(f.state.commitment().root, root_before);
}

TEST(LedgerState, RejectsBadSignature) {
  Fixture f;
  Transaction tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  tx.sig.s ^= 1;
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.bad_signature");
}

TEST(LedgerState, AuditRecordAppendsToLog) {
  Fixture f;
  const auto tx = make_audit_record(
      f.alice, 0, AuditRecordBody{"spatial_map", "navigation", 9, "none"}, 0,
      f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 7).ok());
  ASSERT_EQ(f.state.audit_log().size(), 1u);
  EXPECT_EQ(f.state.audit_log()[0].collector, f.alice.address());
  EXPECT_EQ(f.state.audit_log()[0].body.data_category, "spatial_map");
  EXPECT_EQ(f.state.audit_log()[0].height, 7);
}

TEST(LedgerState, UnknownContractFails) {
  Fixture f;
  const auto tx = make_contract_call(f.alice, 0, "nope", "m", Bytes{}, 0, f.rng);
  const auto s = f.state.apply(tx, *f.contracts, 0);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "tx.unknown_contract");
}

/// Contract that writes a key then fails — exercises body atomicity.
class FlakyContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "flaky"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes&) const override {
    ctx.put("touched", Bytes{1});
    if (method == "fail") return Status::fail("flaky.boom", "requested");
    return {};
  }
};

TEST(LedgerState, ContractBodyIsAtomic) {
  Fixture f;
  f.contracts->install(std::make_shared<FlakyContract>());
  const auto bad = make_contract_call(f.alice, 0, "flaky", "fail", Bytes{}, 3, f.rng);
  EXPECT_FALSE(f.state.apply(bad, *f.contracts, 0).ok());
  // Everything rolled back: store write, fee, and nonce.
  EXPECT_EQ(f.state.find_store("flaky"), nullptr);
  EXPECT_EQ(f.state.nonce(f.alice.address()), 0u);
  EXPECT_EQ(f.state.balance(f.alice.address()), 1000u);

  const auto good = make_contract_call(f.alice, 0, "flaky", "ok", Bytes{}, 0, f.rng);
  ASSERT_TRUE(f.state.apply(good, *f.contracts, 0).ok());
  ASSERT_NE(f.state.find_store("flaky"), nullptr);
  EXPECT_TRUE(f.state.find_store("flaky")->contains("touched"));
}

TEST(LedgerState, StateRootChangesWithState) {
  Fixture f;
  const auto before = f.state.commitment().root;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  EXPECT_NE(f.state.commitment().root, before);
}

TEST(LedgerState, StateRootDeterministicAcrossCopies) {
  Fixture f;
  LedgerState copy = f.state;
  EXPECT_EQ(copy.commitment().root, f.state.commitment().root);
}

TEST(LedgerState, NonceOnlyAccountIsCounted) {
  // A zero-amount, zero-fee transfer from a never-funded sender is valid: it
  // commits the sender with nonce 1 and no balance entry. That account has a
  // leaf, so account_count() must count it like the commitment does.
  Fixture f;
  const crypto::Wallet carol(f.rng);
  const auto tx = make_transfer(carol, 0, f.bob.address(), 0, 0, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  EXPECT_EQ(f.state.find_balance(carol.address()), std::nullopt);
  EXPECT_EQ(f.state.nonce(carol.address()), 1u);
  EXPECT_EQ(f.state.account_count(), 3u);
  EXPECT_EQ(f.state.account_count(), f.state.commitment().account_count);
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
  const Account* account = f.state.accounts().find(carol.address());
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(*account, (Account{carol.address(), 0, 1, false}));
}

// ------------------------------------------------------------ account table

namespace {
/// The table's content as an ordered model, for whole-table comparisons.
std::map<crypto::Address, Account> model_of(const AccountTable& table) {
  std::map<crypto::Address, Account> out;
  for (const Account& a : table) {
    EXPECT_TRUE(a.live());
    EXPECT_TRUE(out.emplace(a.addr, a).second) << "address walked twice";
  }
  return out;
}
}  // namespace

TEST(AccountTable, DifferentialAgainstMapModel) {
  // 10^5+ random operations against a std::map model: full puts, partial
  // edits through update(), erases (a leafless result), and undo — batches
  // rolled back by putting their returned priors newest-first. Addresses
  // mix a dense low range (long probe chains, erases in their middle) with
  // random 64-bit values; the table grows from empty along the way.
  Rng rng(2718);
  AccountTable table;
  std::map<crypto::Address, Account> model;
  const auto pick = [&] {
    return crypto::Address{rng.chance(0.7) ? rng.next_below(6000)
                                           : rng.next_u64()};
  };
  const auto expect_prior = [&](const Account& prior, crypto::Address addr) {
    const auto it = model.find(addr);
    const Account want = it == model.end() ? Account{addr} : it->second;
    ASSERT_EQ(prior, want);
  };
  std::size_t ops = 0;
  for (int batch = 0; batch < 400; ++batch) {
    const bool undo = rng.chance(0.3);
    const auto before = undo ? model : std::map<crypto::Address, Account>{};
    std::vector<Account> priors;
    const std::size_t n = 1 + rng.next_below(600);
    for (std::size_t i = 0; i < n; ++i, ++ops) {
      const crypto::Address addr = pick();
      Account prior;
      switch (rng.next_below(4)) {
        case 0: {  // full put of a live account
          Account a{addr, 0, rng.next_below(5), rng.chance(0.8)};
          if (a.has_balance) a.balance = rng.next_below(1000);
          if (!a.live()) a.nonce = 1;
          prior = table.put(a);
          ASSERT_NO_FATAL_FAILURE(expect_prior(prior, addr));
          model[addr] = a;
          break;
        }
        case 1: {  // erase: put a leafless account
          prior = table.put(Account{addr});
          ASSERT_NO_FATAL_FAILURE(expect_prior(prior, addr));
          model.erase(addr);
          break;
        }
        default: {  // partial edit; a nonce write of 0 may erase
          const std::uint64_t nonce = rng.next_below(3);
          prior = table.update(addr, [&](Account& a) { a.nonce = nonce; });
          ASSERT_NO_FATAL_FAILURE(expect_prior(prior, addr));
          Account next = prior;
          next.nonce = nonce;
          if (next.live()) {
            model[addr] = next;
          } else {
            model.erase(addr);
          }
          break;
        }
      }
      priors.push_back(prior);
      ASSERT_EQ(table.size(), model.size()) << "op " << ops;
    }
    if (undo) {
      for (std::size_t i = priors.size(); i-- > 0;) (void)table.put(priors[i]);
      model = before;
    }
    ASSERT_EQ(table.size(), model.size()) << "batch " << batch;
    if (!undo && batch % 8 != 0) continue;
    ASSERT_EQ(model_of(table), model) << "batch " << batch;
    for (const auto& [addr, account] : model) {
      const Account* found = table.find(addr);
      ASSERT_NE(found, nullptr) << "batch " << batch;
      ASSERT_EQ(*found, account);
    }
    for (int probe = 0; probe < 50; ++probe) {
      const crypto::Address addr = pick();
      const Account* found = table.find(addr);
      ASSERT_EQ(found != nullptr, model.contains(addr)) << "batch " << batch;
    }
  }
  EXPECT_GE(ops, 100'000u);
  const std::vector<Account> sorted = table.sorted();
  ASSERT_EQ(sorted.size(), model.size());
  std::size_t i = 0;
  for (const auto& [addr, account] : model) EXPECT_EQ(sorted[i++], account);
}

TEST(AccountTable, EraseInsideFullProbeChainsKeepsEveryKeyReachable) {
  // Fill tables to exactly the 7/8 load bound — where linear-probing chains
  // are longest — then erase in random order. After each erase every
  // remaining address must still be found (backward shift moved the right
  // entries) and the erased one must be gone.
  Rng rng(31);
  for (const std::size_t capacity : {16u, 64u, 256u, 1024u}) {
    AccountTable table;
    table.reserve(capacity * 7 / 8);
    std::vector<crypto::Address> keys;
    while (keys.size() < capacity * 7 / 8) {
      const crypto::Address addr{rng.chance(0.5) ? keys.size() + 1 : rng.next_u64()};
      if (table.find(addr) != nullptr) continue;
      (void)table.put(Account{addr, 0, 1, false});
      keys.push_back(addr);
    }
    rng.shuffle(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      (void)table.put(Account{keys[i]});
      ASSERT_EQ(table.find(keys[i]), nullptr) << "capacity " << capacity;
      ASSERT_EQ(table.size(), keys.size() - i - 1);
      for (std::size_t j = i + 1; j < keys.size(); ++j) {
        ASSERT_NE(table.find(keys[j]), nullptr)
            << "capacity " << capacity << " lost a key after " << i + 1 << " erases";
      }
    }
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.begin(), table.end());
  }
}

// ---------------------------------------------------------------- mempool

TEST(Mempool, OrdersByFeeThenFifo) {
  Fixture f;
  Mempool pool;
  // Alice sends three txs with ascending nonces, fees 1, 9, 5.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 9, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 2, f.bob.address(), 1, 5, f.rng), f.state).ok());
  const auto picked = pool.select(10, f.state);
  // Nonce order must be respected even though fee order differs.
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].nonce, 0u);
  EXPECT_EQ(picked[1].nonce, 1u);
  EXPECT_EQ(picked[2].nonce, 2u);
}

TEST(Mempool, HighFeeSenderWinsSlots) {
  Fixture f;
  Mempool pool;
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 50, f.rng), f.state).ok());
  const auto picked = pool.select(1, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
}

TEST(Mempool, RejectsDuplicateAndStale) {
  Fixture f;
  Mempool pool;
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx, f.state).ok());
  EXPECT_EQ(pool.add(tx, f.state).error().code, "mempool.duplicate");
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  const auto stale = make_transfer(f.alice, 0, f.bob.address(), 2, 0, f.rng);
  EXPECT_EQ(pool.add(stale, f.state).error().code, "mempool.stale_nonce");
}

TEST(Mempool, RemoveIncludedAndPrune) {
  Fixture f;
  Mempool pool;
  const auto tx0 = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  const auto tx1 = make_transfer(f.alice, 1, f.bob.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  ASSERT_TRUE(pool.add(tx1, f.state).ok());
  pool.remove_included({tx0});
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_TRUE(f.state.apply(tx0, *f.contracts, 0).ok());
  ASSERT_TRUE(f.state.apply(tx1, *f.contracts, 0).ok());
  pool.remove_included({tx1});
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.self_check(f.state));
}

TEST(Mempool, RemoveIncludedDropsTheCommittedSlot) {
  // A block consumes a (sender, nonce) slot, not one transaction: a
  // replacement admitted after the block was assembled must leave the pool
  // with the committed original, or it would pend below the sender's nonce.
  Fixture f;
  Mempool pool;
  const auto x = make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng);
  const auto y = make_transfer(f.alice, 0, f.bob.address(), 2, 5, f.rng);
  ASSERT_TRUE(pool.add(x, f.state).ok());
  ASSERT_TRUE(pool.add(y, f.state).ok());  // replace-by-fee
  EXPECT_EQ(pool.stats().replaced, 1u);
  ASSERT_TRUE(f.state.apply(x, *f.contracts, 0).ok());  // the block carried x
  pool.remove_included({x});
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_EQ(pool.add(y, f.state).error().code, "mempool.stale_nonce");
}

TEST(Mempool, NonceGapBlocksSuccessors) {
  Fixture f;
  Mempool pool;
  // Nonces 0 and 2 are pending; 1 is missing. Only 0 is runnable — the
  // expensive successor behind the gap must not jump the queue.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 2, f.bob.address(), 1, 100, f.rng), f.state).ok());
  auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].nonce, 0u);
  // Filling the gap releases the whole prefix, still in nonce order.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 1, f.rng), f.state).ok());
  picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].nonce, 0u);
  EXPECT_EQ(picked[1].nonce, 1u);
  EXPECT_EQ(picked[2].nonce, 2u);
}

TEST(Mempool, CheapPredecessorDoesNotStarveBehindOtherSenders) {
  Fixture f;
  Mempool pool;
  // Alice: cheap nonce-0 (fee 1) gating an expensive nonce-1 (fee 100).
  // Bob: a single fee-50 tx. Priority must see only runnable heads: bob's
  // fee-50 first, then alice's fee-1, and only then the released fee-100.
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 1, f.bob.address(), 1, 100, f.rng), f.state).ok());
  ASSERT_TRUE(pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 50, f.rng), f.state).ok());
  const auto picked = pool.select(3, f.state);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
  EXPECT_EQ(picked[1].nonce, 0u);
  EXPECT_EQ(picked[1].sender(), f.alice.address());
  EXPECT_EQ(picked[2].nonce, 1u);
  EXPECT_EQ(picked[2].fee, 100u);
}

TEST(Mempool, ReplaceByFeeRequiresStrictlyHigherFee) {
  Fixture f;
  Mempool pool;
  ASSERT_TRUE(pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 5, f.rng), f.state).ok());
  const auto equal = make_transfer(f.alice, 0, f.bob.address(), 2, 5, f.rng);
  EXPECT_EQ(pool.add(equal, f.state).error().code, "mempool.underpriced");
  const auto lower = make_transfer(f.alice, 0, f.bob.address(), 2, 4, f.rng);
  EXPECT_EQ(pool.add(lower, f.state).error().code, "mempool.underpriced");
  const auto higher = make_transfer(f.alice, 0, f.bob.address(), 2, 6, f.rng);
  ASSERT_TRUE(pool.add(higher, f.state).ok());
  EXPECT_EQ(pool.size(), 1u);
  const auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].fee, 6u);
}

TEST(Mempool, RemovalKeepsIndexesConsistent) {
  Fixture f;
  Mempool pool;
  const auto tx0 = make_transfer(f.alice, 0, f.bob.address(), 1, 0, f.rng);
  const auto tx1 = make_transfer(f.alice, 1, f.bob.address(), 1, 0, f.rng);
  const auto tx2 = make_transfer(f.bob, 0, f.alice.address(), 1, 0, f.rng);
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  ASSERT_TRUE(pool.add(tx1, f.state).ok());
  ASSERT_TRUE(pool.add(tx2, f.state).ok());
  // Removing a tx that is not pending is a no-op.
  pool.remove_included({make_transfer(f.bob, 1, f.alice.address(), 1, 0, f.rng)});
  EXPECT_EQ(pool.size(), 3u);
  pool.remove_included({tx0, tx2});
  EXPECT_EQ(pool.size(), 1u);
  // The slots of removed txs are free: re-admission succeeds...
  ASSERT_TRUE(pool.add(tx0, f.state).ok());
  // ...while a still-pending tx is still recognized as a duplicate.
  EXPECT_EQ(pool.add(tx1, f.state).error().code, "mempool.duplicate");
  EXPECT_EQ(pool.size(), 2u);
  // Committing both of alice's slots empties the pool.
  ASSERT_TRUE(f.state.apply(tx0, *f.contracts, 0).ok());
  ASSERT_TRUE(f.state.apply(tx1, *f.contracts, 0).ok());
  pool.remove_included({tx0, tx1});
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_TRUE(pool.select(10, f.state).empty());
}

// ---------------------------------------------------------------- chain

struct ChainFixture : Fixture {
  crypto::Wallet v0{rng};
  crypto::Wallet v1{rng};
  ChainConfig config;

  ChainFixture() {
    config.validators = {v0.public_key(), v1.public_key()};
    config.max_txs_per_block = 16;
  }

  [[nodiscard]] Blockchain make_chain() { return Blockchain(config, contracts, state); }
};

TEST(Blockchain, AssembleAndAppend) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 10, 1, f.rng);
  const Block block = chain.assemble(f.v0, {tx}, 0, f.rng);
  ASSERT_EQ(block.txs.size(), 1u);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(chain.height(), 1);
  EXPECT_EQ(chain.state().balance(f.bob.address()), 510u);
}

TEST(Blockchain, AssembleDropsInvalidTxs) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto good = make_transfer(f.alice, 0, f.bob.address(), 10, 0, f.rng);
  const auto bad_nonce = make_transfer(f.alice, 7, f.bob.address(), 10, 0, f.rng);
  const auto overdraft = make_transfer(f.bob, 0, f.alice.address(), 99999, 0, f.rng);
  const Block block = chain.assemble(f.v0, {bad_nonce, good, overdraft}, 0, f.rng);
  EXPECT_EQ(block.txs.size(), 1u);
  ASSERT_TRUE(chain.append(block).ok());
}

TEST(Blockchain, OverfullCandidatesAssembleFirstSuccessesInOnePass) {
  // Without a queue and on a threaded one: assembly checks signatures inline
  // either way, so a look-ahead cannot verify candidates past the cap.
  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    ChainFixture f;
    f.config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
    if (workers > 0) {
      f.config.validation.job_queue =
          std::make_shared<JobQueue>(JobQueueConfig{.threads = workers});
    }
    Blockchain chain = f.make_chain();
    const std::size_t cap = f.config.max_txs_per_block;
    // 2x the cap, every fourth candidate (from index 1) a nonce-gapped
    // reject: 24 would succeed, so the cap cuts the list off after its 16th
    // success.
    std::vector<Transaction> candidates;
    std::vector<Transaction> successes;
    std::uint64_t nonce = 0;
    for (std::size_t i = 0; i < 2 * cap; ++i) {
      if (i % 4 == 1) {
        candidates.push_back(make_transfer(f.bob, 99, f.alice.address(), 1, 0, f.rng));
      } else {
        candidates.push_back(
            make_transfer(f.alice, nonce++, f.bob.address(), 1, 0, f.rng));
        successes.push_back(candidates.back());
      }
    }
    successes.resize(cap);

    const Block block = chain.assemble(f.v0, candidates, 0, f.rng);
    ASSERT_EQ(block.txs.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(block.txs[i].digest(), successes[i].digest()) << "tx " << i;
    }
    if (workers > 0) {
      EXPECT_EQ(f.config.validation.job_queue->stats()
                    .of(JobClass::kValidation)
                    .submitted,
                0u);
    }
    ASSERT_TRUE(chain.append(block).ok());
    EXPECT_EQ(chain.state().nonce(f.alice.address()), cap);

    // One apply_block pass through the sig cache, stopping at the 16th
    // success (candidate 20); the sealed append does not apply again.
    const ValidationStats& stats = chain.validation_stats();
    EXPECT_EQ(stats.applies, 1u);
    EXPECT_EQ(stats.sealed_commits, 1u);
    EXPECT_EQ(stats.sig_cache_hits + stats.sig_cache_misses, 21u);
  }
}

TEST(Blockchain, RejectsWrongProposer) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  // Height 0 belongs to v0; v1 proposing must be rejected.
  const Block block = chain.assemble(f.v1, {}, 0, f.rng);
  const auto s = chain.append(block);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "header.wrong_proposer");
}

TEST(Blockchain, RoundRobinAlternatesProposers) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v1, {}, 1, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 2, f.rng)).ok());
  EXPECT_EQ(chain.height(), 3);
}

TEST(Blockchain, RejectsTamperedBlock) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 10, 0, f.rng);
  Block block = chain.assemble(f.v0, {tx}, 0, f.rng);

  Block wrong_root = block;
  wrong_root.header.tx_root[0] ^= 1;
  EXPECT_EQ(chain.append(wrong_root).error().code, "header.bad_signature");

  Block dropped_tx = block;
  dropped_tx.txs.clear();
  EXPECT_EQ(chain.append(dropped_tx).error().code, "block.bad_tx_root");

  Block wrong_height = block;
  wrong_height.header.height = 5;
  EXPECT_FALSE(chain.append(wrong_height).ok());
}

TEST(Blockchain, RejectsReplayedBlock) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  const Block block = chain.assemble(f.v0, {}, 0, f.rng);
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_FALSE(chain.append(block).ok());
}

TEST(Blockchain, ExportImportReplaysIdentically) {
  ChainFixture f;
  Blockchain source = f.make_chain();
  for (int h = 0; h < 4; ++h) {
    const auto& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    std::vector<Transaction> txs;
    txs.push_back(make_transfer(f.alice, static_cast<std::uint64_t>(h),
                                f.bob.address(), 5, 1, f.rng));
    ASSERT_TRUE(source.append(source.assemble(proposer, txs, h, f.rng)).ok());
  }

  Blockchain fresh = f.make_chain();
  auto imported = fresh.import_blocks(source.export_blocks_from(0));
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 4u);
  EXPECT_EQ(fresh.height(), source.height());
  EXPECT_EQ(fresh.tip_hash(), source.tip_hash());
  EXPECT_EQ(fresh.state().commitment().root, source.state().commitment().root);

  // Re-importing onto a synced node is a no-op.
  auto again = fresh.import_blocks(source.export_blocks_from(0));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST(Blockchain, ImportRejectsTamperedArchive) {
  ChainFixture f;
  Blockchain source = f.make_chain();
  for (int h = 0; h < 3; ++h) {
    const auto& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    ASSERT_TRUE(source.append(source.assemble(proposer, {}, h, f.rng)).ok());
  }
  Bytes archive = source.export_blocks_from(0);
  archive[archive.size() / 2] ^= 0xff;  // corrupt a middle block
  Blockchain fresh = f.make_chain();
  const auto imported = fresh.import_blocks(archive);
  // Either the decode fails or validation stops at the corrupt block; the
  // already-validated prefix must itself be consistent.
  EXPECT_FALSE(imported.ok());
  EXPECT_LT(fresh.height(), source.height());
  for (std::int64_t h = 0; h < fresh.height(); ++h) {
    EXPECT_EQ(fresh.blocks()[static_cast<std::size_t>(h)].header.hash(),
              source.blocks()[static_cast<std::size_t>(h)].header.hash());
  }
}

TEST(Blockchain, ImportRejectsForgedCount) {
  ChainFixture f;
  Blockchain fresh = f.make_chain();
  ByteWriter w;
  w.u32(0xffffffff);
  EXPECT_FALSE(fresh.import_blocks(w.take()).ok());
}

// ---------------------------------------------------------------- replica

TEST(Replica, CommitEmptiesThePoolAndSharesOneSigCache) {
  ChainFixture f;
  // A cache in the config is not the replica's: it creates its own.
  const auto foreign = std::make_shared<crypto::DigestLruSet>();
  f.config.validation.sig_cache = foreign;
  Replica replica(f.config, f.contracts, f.state);
  const auto& cache = replica.chain().config().validation.sig_cache;
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache, foreign);
  EXPECT_EQ(replica.pool().config().sig_cache, cache);

  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        replica.submit(make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng), 0)
            .ok());
  }
  const Block block = replica.propose(f.v0, 0, f.rng);
  ASSERT_EQ(block.txs.size(), 3u);
  EXPECT_EQ(replica.pool().size(), 3u);  // proposing leaves the pool alone
  ASSERT_TRUE(replica.commit(block).ok());
  EXPECT_EQ(replica.chain().height(), 1);
  EXPECT_TRUE(replica.pool().empty());
  // Admission verified each signature; assembly found all three cached.
  EXPECT_EQ(replica.chain().validation_stats().sig_cache_hits, 3u);
  EXPECT_EQ(replica.chain().validation_stats().sig_cache_misses, 0u);
}

TEST(Replica, RejectedCommitKeepsThePool) {
  ChainFixture f;
  Replica replica(f.config, f.contracts, f.state);
  ASSERT_TRUE(
      replica.submit(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), 0)
          .ok());
  Block block = replica.propose(f.v0, 0, f.rng);
  block.header.timestamp += 1;  // no longer what the proposer signed
  EXPECT_FALSE(replica.commit(block).ok());
  EXPECT_EQ(replica.chain().height(), 0);
  EXPECT_EQ(replica.pool().size(), 1u);
}

// ---------------------------------------------------------------- consensus

struct CommitteeFixture {
  Rng rng{202};
  SimClock clock;
  net::Network network{clock, Rng(303),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0}};
  std::shared_ptr<ContractRegistry> contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  LedgerState genesis;

  CommitteeFixture() { genesis.credit(alice.address(), 1'000'000); }
};

TEST(Consensus, CommitsAcrossAllReplicas) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  for (std::uint64_t i = 0; i < 10; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 10, 1, f.rng));
  }
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(0).height(), 1);
  EXPECT_EQ(committee.chain(0).state().balance(f.bob.address()), 100u);
  EXPECT_EQ(committee.stats().committed_txs, 10u);
  for (std::size_t i = 0; i < committee.size(); ++i) {
    EXPECT_TRUE(committee.mempool(i).empty()) << "replica " << i;
  }
}

TEST(Consensus, MultipleRoundsRotateLeaders) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  for (std::uint64_t i = 0; i < 20; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng));
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(committee.run_round()) << "round " << round;
  }
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(2).height(), 3);
  // Proposers alternate per round-robin.
  EXPECT_NE(committee.chain(0).blocks()[0].header.proposer(),
            committee.chain(0).blocks()[1].header.proposer());
}

TEST(Consensus, PartitionedMinorityCannotCommit) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  committee.submit(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng));
  // Isolate the leader of round 0 (validator 0) with one peer: 2 of 4 < quorum 3.
  f.network.set_group(committee.node(0), 1);
  f.network.set_group(committee.node(1), 1);
  EXPECT_FALSE(committee.run_round());
  EXPECT_EQ(committee.chain(0).height(), 0);
  // Heal; the same round now succeeds.
  f.network.heal();
  EXPECT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
}

TEST(Consensus, LaggardCatchesUpAfterPartitionHeals) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  for (std::uint64_t i = 0; i < 12; ++i) {
    committee.submit(make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng));
  }
  // Validator 3 drops off; the remaining 3 still have quorum (3 of 4).
  f.network.set_group(committee.node(3), 1);
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  EXPECT_EQ(committee.chain(0).height(), 2);
  EXPECT_EQ(committee.chain(3).height(), 0);
  EXPECT_FALSE(committee.replicas_consistent());

  // Heal: the next proposals carry a height ahead of validator 3's view; it
  // pulls the missing blocks via sync_req/sync_resp and rejoins.
  f.network.heal();
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_EQ(committee.chain(3).height(), 4);
  // The blocks carrying the 12 transactions reached validator 3 only through
  // the sync path, which commits through the replica too.
  EXPECT_TRUE(committee.mempool(3).empty());
}

TEST(Consensus, LaggingLeaderIsRescuedByPeers) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  // Heights 0 and 1 are led by validators 0 and 1. Isolate validator 2, run
  // two rounds, heal right before validator 2's turn as leader (height 2).
  f.network.set_group(committee.node(2), 1);
  ASSERT_TRUE(committee.run_round());
  ASSERT_TRUE(committee.run_round());
  f.network.heal();
  // Validator 2 leads from a stale height: the round fails, but peers ship
  // it the missing blocks in response to its stale proposal...
  (void)committee.run_round();
  // ...so by the following round it proposes from the right height.
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  EXPECT_GE(committee.chain(2).height(), 3);
}

TEST(Consensus, SurvivesMessageLoss) {
  Rng rng(404);
  SimClock clock;
  net::Network lossy(clock, Rng(405),
                     net::LinkParams{.base_latency = 1.0, .jitter = 2.0, .drop_rate = 0.05});
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet alice{rng};
  LedgerState genesis;
  genesis.credit(alice.address(), 1000);
  ValidatorCommittee committee(lossy, 7, contracts, genesis, 8, rng);
  committee.submit(make_transfer(alice, 0, crypto::Address{42}, 1, 1, rng));
  int commits = 0;
  for (int round = 0; round < 5; ++round) commits += committee.run_round();
  // With 5% loss and a 7-node committee, most rounds commit.
  EXPECT_GE(commits, 3);
}

TEST(Consensus, VotesForAnotherHashWithTheSamePrefixDoNotCommit) {
  // Votes count only for the exact block hash they sign. A node in the
  // leader's partition group intercepts the proposal and hands the leader
  // quorum - 1 validly signed votes for a hash sharing the block hash's
  // first 8 bytes; with the leader's own vote that would be a quorum if
  // votes were keyed by a 64-bit prefix.
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 8, f.rng);
  committee.submit(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng));
  NodeId spy = NodeId::invalid();
  std::size_t forged = 0;
  spy = f.network.add_node([&](const net::Message& msg) {
    if (msg.topic != "propose") return;
    const auto block = Block::decode(msg.payload());
    if (!block.ok()) return;
    const std::int64_t height = block.value().header.height;
    crypto::Digest hash = block.value().header.hash();
    hash.back() ^= 0x01;  // same first 8 bytes, different block
    ByteWriter signing;
    signing.str("vote");
    signing.i64(height);
    signing.raw(hash);
    for (std::size_t i = 1; i < committee.quorum(); ++i) {
      ByteWriter vote;
      vote.i64(height);
      vote.raw(hash);
      crypto::write_key(vote, committee.wallet(i).public_key());
      crypto::write_signature(vote, committee.wallet(i).sign(signing.data(), f.rng));
      f.network.send(spy, committee.node(0), "vote", vote.take());
      ++forged;
    }
  });
  // Validator 0 leads height 0; only the spy shares its partition group.
  f.network.set_group(committee.node(0), 1);
  f.network.set_group(spy, 1);
  EXPECT_FALSE(committee.run_round());
  EXPECT_EQ(forged, committee.quorum() - 1);
  EXPECT_EQ(committee.chain(0).height(), 0);
  // Healed, the leader's next proposal commits on genuine votes.
  f.network.heal();
  EXPECT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
}

TEST(Consensus, LaggardCommitsUncertifiedSyncBlock) {
  // Pins a known attack, not a defense. A sync response carries a bare block,
  // and the laggard commits any block the scheduled proposer signed at its
  // height: nothing shows that a quorum voted for it. So a byzantine proposer
  // forks a laggard with a second block it signed for a height the committee
  // already committed. A commit certificate (a quorum of vote signatures over
  // the block hash, checked on every commit path) must turn this test into a
  // rejection: the laggard then stays at height 0 until the certified block
  // arrives.
  CommitteeFixture f;
  const std::size_t n = 4;
  ValidatorCommittee committee(f.network, n, f.contracts, f.genesis, 8, f.rng);
  const std::size_t proposer = proposer_index(0, n);
  const std::size_t laggard = (proposer + 1) % n;
  committee.submit(make_transfer(f.alice, 0, f.bob.address(), 10, 1, f.rng));

  // Every link into the laggard drops; the other three commit height 0.
  const auto links_into_laggard = [&](double drop_rate) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == laggard) continue;
      f.network.set_link(committee.node(i), committee.node(laggard),
                         net::LinkParams{.base_latency = 1.0, .jitter = 1.0,
                                         .drop_rate = drop_rate});
    }
  };
  links_into_laggard(1.0);
  ASSERT_TRUE(committee.run_round());
  ASSERT_EQ(committee.chain(proposer).height(), 1);
  ASSERT_EQ(committee.chain(laggard).height(), 0);
  links_into_laggard(0.0);

  // The same proposer signs a different valid block for height 0 on a fresh
  // chain from the same genesis, and sends it to the laggard as a sync reply.
  ChainConfig config = committee.chain(proposer).config();
  config.validation.sig_cache = nullptr;
  const Blockchain fresh(config, f.contracts, f.genesis);
  const crypto::Wallet carol{f.rng};
  const Block forged = fresh.assemble(
      committee.wallet(proposer),
      {make_transfer(f.alice, 0, carol.address(), 5, 1, f.rng)}, 1, f.rng);
  ASSERT_TRUE(fresh.validate(forged).ok());
  const crypto::Digest honest = committee.chain(proposer).block_at(0)->header.hash();
  ASSERT_NE(forged.header.hash(), honest);
  f.network.send(committee.node(proposer), committee.node(laggard), "sync_resp",
                 forged.encode());
  f.network.run_until_idle(1000);

  // The laggard committed a block no quorum ever voted for: its history forks.
  ASSERT_EQ(committee.chain(laggard).height(), 1);
  EXPECT_EQ(committee.chain(laggard).block_at(0)->header.hash(), forged.header.hash());
  EXPECT_NE(committee.chain(laggard).block_at(0)->header.hash(), honest);
  EXPECT_EQ(committee.chain(laggard).state().balance(carol.address()), 5u);
  EXPECT_FALSE(committee.replicas_consistent());
}

class CommitteeSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CommitteeSizeTest, QuorumIsTwoThirdsPlusOne) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, GetParam(), f.contracts, f.genesis, 8, f.rng);
  EXPECT_EQ(committee.quorum(), GetParam() * 2 / 3 + 1);
  EXPECT_TRUE(committee.run_round());  // empty block still commits
  EXPECT_TRUE(committee.replicas_consistent());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommitteeSizeTest, ::testing::Values(1, 2, 4, 7, 10));

TEST(Consensus, TxDisseminationViaGossipReachesAllMempools) {
  // Integration of the gossip substrate with the ledger: clients publish
  // transactions as rumors; every validator's mempool converges on the set.
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  // A gossip overlay among client relays; each delivery forwards the tx to
  // one validator (modelling one validator's RPC edge per relay).
  std::vector<NodeId> relays;
  net::Gossip gossip(f.network, Rng(55), /*fanout=*/8,
                     [&](NodeId node, const Bytes& payload) {
                       auto tx = Transaction::decode(payload);
                       if (!tx.ok()) return;
                       committee.submit(tx.value());
                       (void)node;
                     });
  for (int i = 0; i < 8; ++i) gossip.join();
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto tx = make_transfer(f.alice, i, f.bob.address(), 1, 1, f.rng);
    gossip.publish(NodeId(committee.size() + i % 8), tx.encode());
  }
  f.network.run_until_idle();
  for (std::size_t v = 0; v < committee.size(); ++v) {
    EXPECT_EQ(committee.mempool(v).size(), 5u) << "validator " << v;
  }
  ASSERT_TRUE(committee.run_round());
  EXPECT_EQ(committee.chain(0).state().balance(f.bob.address()), 5u);
}

// ---------------------------------------------------------------- audit

TEST(Audit, RecordsCommitAndQuery) {
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  AuditClient client(f.alice, f.rng);
  for (int i = 0; i < 6; ++i) {
    committee.submit(client.record(
        committee.chain(0).state(),
        AuditRecordBody{i % 2 ? "gaze" : "spatial_map", "render", 7, "none"}));
  }
  ASSERT_TRUE(committee.run_round());
  AuditQuery query(committee.chain(1));
  EXPECT_EQ(query.by_subject(7).size(), 6u);
  EXPECT_EQ(query.by_collector(f.alice.address()).size(), 6u);
  const auto profiles = query.collector_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].by_category.at("gaze"), 3u);
  EXPECT_EQ(profiles[0].without_pet, 6u);
}

TEST(Audit, NonceSequencingSurvivesCommitsBetweenRecords) {
  // Regression: records issued across consensus rounds must keep consecutive
  // nonces (the committed nonce must not be double-counted).
  CommitteeFixture f;
  ValidatorCommittee committee(f.network, 4, f.contracts, f.genesis, 64, f.rng);
  AuditClient client(f.alice, f.rng);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      committee.submit(client.record(
          committee.chain(0).state(),
          AuditRecordBody{"gaze", "render", 1, "none"}));
    }
    ASSERT_TRUE(committee.run_round());
  }
  EXPECT_EQ(committee.chain(0).state().audit_log().size(), 12u);
  EXPECT_EQ(committee.chain(0).state().nonce(f.alice.address()), 12u);
}

TEST(Audit, MonopolyDetection) {
  Fixture f;
  ChainConfig config;
  crypto::Wallet v0{f.rng};
  config.validators = {v0.public_key()};
  Blockchain chain(config, f.contracts, f.state);

  crypto::Wallet big{f.rng}, small{f.rng};
  AuditClient big_client(big, f.rng), small_client(small, f.rng);
  std::vector<Transaction> txs;
  for (int i = 0; i < 9; ++i) {
    txs.push_back(big_client.record(chain.state(),
                                    AuditRecordBody{"gaze", "ads", 1, "none"}));
  }
  txs.push_back(small_client.record(chain.state(),
                                    AuditRecordBody{"gaze", "render", 2, "dp"}));
  ASSERT_TRUE(chain.append(chain.assemble(v0, txs, 0, f.rng)).ok());

  AuditQuery query(chain);
  EXPECT_TRUE(query.has_data_monopoly(0.5));
  EXPECT_FALSE(query.has_data_monopoly(0.95));
  EXPECT_NEAR(query.data_concentration_hhi(), 0.81 + 0.01, 1e-9);
}

// --------------------------------------------------------- state commitment

TEST(StateCommitment, IncrementalMatchesFullRehash) {
  Fixture f;
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok());
  f.state.store_put("reg", "k", Bytes{1, 2});
  f.state.append_audit(
      StoredAuditRecord{f.alice.address(), {"gaze", "ads", 1, "none"}, 0});
  const auto c = f.state.commitment();
  EXPECT_EQ(c, f.state.full_rehash_commitment());
  EXPECT_EQ(c.root, f.state.full_rehash_root());
  EXPECT_EQ(c.account_count, 2u);
  EXPECT_EQ(c.audit_count, 1u);
  EXPECT_EQ(c.burned_fees, 5u);
}

TEST(StateCommitment, SectionsIsolateWhatChanged) {
  Fixture f;
  const auto before = f.state.commitment();
  f.state.append_audit(
      StoredAuditRecord{f.alice.address(), {"gaze", "ads", 1, "none"}, 0});
  const auto after = f.state.commitment();
  EXPECT_NE(after.root, before.root);
  EXPECT_NE(after.audit_digest, before.audit_digest);
  EXPECT_EQ(after.accounts_root, before.accounts_root);  // accounts untouched
  EXPECT_EQ(after.stores_digest, before.stores_digest);  // stores untouched
}

// ------------------------------------------------------ store value codec

TEST(StoreCodec, RoundTripsInByteWriterLayout) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{0x0102030405060708},
                                std::numeric_limits<std::uint64_t>::max()}) {
    ByteWriter w;
    w.u64(v);
    const Bytes stored = store_encode(v);
    EXPECT_EQ(stored, w.data());
    EXPECT_EQ(store_decode<std::uint64_t>(&stored), v);
  }
  for (const std::int64_t v : {std::int64_t{-1}, std::int64_t{42},
                               std::numeric_limits<std::int64_t>::min()}) {
    ByteWriter w;
    w.i64(v);
    const Bytes stored = store_encode(v);
    EXPECT_EQ(stored, w.data());
    EXPECT_EQ(store_decode<std::int64_t>(&stored), v);
  }
  for (const std::uint32_t v : {std::uint32_t{0}, std::uint32_t{5000},
                                std::numeric_limits<std::uint32_t>::max()}) {
    ByteWriter w;
    w.u32(v);
    const Bytes stored = store_encode(v);
    EXPECT_EQ(stored, w.data());
    EXPECT_EQ(store_decode<std::uint32_t>(&stored), v);
  }
}

TEST(StoreCodec, AbsentOrShortValueReadsAsZero) {
  EXPECT_EQ(store_decode<std::uint64_t>(nullptr), 0u);
  EXPECT_EQ(store_decode<std::int64_t>(nullptr), 0);
  EXPECT_EQ(store_decode<std::uint32_t>(nullptr), 0u);
  const Bytes seven(7, 0xff);
  EXPECT_EQ(store_decode<std::uint64_t>(&seven), 0u);
  EXPECT_EQ(store_decode<std::int64_t>(&seven), 0);
  const Bytes three(3, 0xff);
  EXPECT_EQ(store_decode<std::uint32_t>(&three), 0u);
  // A longer value reads its leading field, as ByteReader does.
  Bytes longer = store_encode(std::uint64_t{7});
  longer.push_back(0xaa);
  EXPECT_EQ(store_decode<std::uint64_t>(&longer), 7u);
}

TEST(StoreCodec, BumpAddsAndReturnsThePriorValue) {
  LedgerState state;
  CallContext ctx(state, "counters", crypto::Address{1}, 0);
  EXPECT_EQ(ctx.bump("n", 1), 0u);  // absent reads as 0
  EXPECT_EQ(ctx.bump("n", 5), 1u);
  EXPECT_EQ(ctx.bump("n", -2), 6u);
  ASSERT_NE(ctx.get("n"), nullptr);
  EXPECT_EQ(*ctx.get("n"), store_encode(std::uint64_t{4}));
  // Decrementing an absent counter wraps modulo 2^64, as u64 arithmetic does.
  EXPECT_EQ(ctx.bump("z", -1), 0u);
  EXPECT_EQ(store_decode<std::uint64_t>(ctx.get("z")),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LedgerStateOverlay, ReaderComputesCommitmentWithoutMutatingBase) {
  Fixture f;
  const auto base_before = f.state.commitment();
  auto scratch = LedgerStateOverlay::reader(f.state);
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(scratch.apply(tx, *f.contracts, 0).ok());
  const auto oc = f.state.stage(scratch).commitment;
  EXPECT_NE(oc.root, base_before.root);
  EXPECT_EQ(f.state.commitment(), base_before);  // base untouched
}

TEST(LedgerStateOverlay, WriterCommitmentPredictsPostCommitState) {
  Fixture f;
  auto scratch = LedgerStateOverlay::writer(f.state);
  const auto tx = make_transfer(f.alice, 0, f.bob.address(), 100, 5, f.rng);
  ASSERT_TRUE(scratch.apply(tx, *f.contracts, 0).ok());
  scratch.store_put("reg", "k", Bytes{9});
  const auto oc = f.state.stage(scratch).commitment;
  scratch.commit();
  EXPECT_EQ(f.state.commitment(), oc);
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
}

TEST(LedgerStateOverlay, OverlayTombstoneErasesBaseStoreKey) {
  Fixture f;
  f.state.store_put("reg", "k", Bytes{1});
  auto scratch = LedgerStateOverlay::writer(f.state);
  scratch.store_erase("reg", "k");
  const auto oc = f.state.stage(scratch).commitment;
  scratch.commit();
  EXPECT_EQ(f.state.store_get("reg", "k"), nullptr);
  EXPECT_EQ(f.state.commitment(), oc);
  EXPECT_EQ(f.state.commitment(), f.state.full_rehash_commitment());
}

TEST(LedgerState, DifferentialCommitmentMatchesFullRehashOracle) {
  // >= 10k randomized mixed operations (credits, debits, nonce bumps, store
  // writes/erases, audit appends) staged through writer overlays that are
  // committed or discarded at every "block boundary"; the incrementally
  // maintained commitment must equal the from-scratch oracle throughout.
  Rng rng(2024);
  LedgerState state;
  const auto addr = [&rng] { return crypto::Address{rng.next_below(48) + 1}; };
  const auto blob = [&rng] {
    Bytes b;
    const std::uint64_t len = rng.next_below(6);
    for (std::uint64_t i = 0; i < len; ++i) {
      b.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    return b;
  };
  const std::array<std::string, 3> contracts{"nft", "dao", "reg"};
  std::size_t ops = 0;
  int block = 0;
  while (ops < 10000) {
    auto scratch = LedgerStateOverlay::writer(state);
    const std::uint64_t block_ops = 1 + rng.next_below(150);
    for (std::uint64_t i = 0; i < block_ops; ++i, ++ops) {
      switch (rng.next_below(6)) {
        case 0:
          scratch.credit(addr(), rng.next_below(1000));
          break;
        case 1:
          (void)scratch.debit(addr(), rng.next_below(500));  // may fail: fine
          break;
        case 2:
          // Includes nonce -> 0 on accounts without a balance entry, which
          // must drop the account leaf entirely.
          scratch.set_nonce(addr(), rng.next_below(3));
          break;
        case 3:
          scratch.store_put(contracts[rng.next_below(3)],
                            "k" + std::to_string(rng.next_below(20)), blob());
          break;
        case 4:
          scratch.store_erase(contracts[rng.next_below(3)],
                              "k" + std::to_string(rng.next_below(20)));
          break;
        default:
          scratch.append_audit(StoredAuditRecord{
              addr(), {"gaze", "ads", rng.next_below(10), "none"},
              static_cast<Tick>(block)});
          break;
      }
    }
    const auto oc = state.stage(scratch).commitment;
    if (rng.chance(0.7)) {
      scratch.commit();
      ASSERT_EQ(state.commitment(), oc) << "block " << block;
    }
    // Whether committed or discarded, the incremental sections must agree
    // with the from-scratch oracle at the boundary.
    ASSERT_EQ(state.commitment(), state.full_rehash_commitment())
        << "block " << block;
    ++block;
  }
}

/// Every raw section of two states, and both commitments, agree exactly.
void expect_same_state(const LedgerState& a, const LedgerState& b,
                       const std::string& where) {
  EXPECT_EQ(a.sorted_accounts(), b.sorted_accounts()) << where;
  EXPECT_EQ(a.stores(), b.stores()) << where;
  EXPECT_EQ(a.audit_log().size(), b.audit_log().size()) << where;
  EXPECT_EQ(a.audit_digest(), b.audit_digest()) << where;
  EXPECT_EQ(a.burned_fees(), b.burned_fees()) << where;
  EXPECT_EQ(a.commitment(), b.commitment()) << where;
  EXPECT_EQ(a.full_rehash_commitment(), b.full_rehash_commitment()) << where;
}

TEST(LedgerState, AbsorbDifferentialMatchesPerKeyCommit) {
  // absorb() commits a block's overlay in one pass (one table probe and
  // one batched leaf refresh per account post-image). Part of each block is
  // staged, as a contract call is, in a nested overlay that takes its images
  // from the block overlay and commits into it before the block's
  // stage. One oracle commits the same ops key by key through a
  // writer overlay's commit(), i.e. put_account/store_write on a copy;
  // another writes them straight into a state with no overlay at all, so
  // an image seeded wrongly (a balance entry that was not there, a nonce
  // dropped) shows even where every overlay agrees. All three must agree on
  // every section and commitment, and absorb's undo must restore the
  // pre-state exactly — per block, and chained back to the empty state.
  Rng rng(1515);
  LedgerState state;   // absorb side
  LedgerState oracle;  // per-key side
  LedgerState flat;    // overlay-free side
  std::vector<LedgerState> pre_states;
  std::vector<StateUndo> undos;
  const std::array<std::string, 3> contracts{"nft", "dao", "reg"};
  for (int block = 0; block < 120; ++block) {
    // Every side is staged from the same two seeds, so they hold one delta.
    const std::uint64_t block_seed = rng.next_u64();
    const std::uint64_t call_seed = rng.next_u64();
    const auto stage = [&contracts, block](LedgerView& v, std::uint64_t seed) {
      Rng r(seed);
      // Funded accounts 1..40; 41..56 only ever get nonces, so writing one
      // back to 0 must erase its leaf; 57+ are brand new when first hit.
      const auto funded = [&r] { return crypto::Address{r.next_below(40) + 1}; };
      const auto bare = [&r] { return crypto::Address{r.next_below(16) + 41}; };
      const std::uint64_t ops = 1 + r.next_below(60);
      for (std::uint64_t i = 0; i < ops; ++i) {
        switch (r.next_below(9)) {
          case 0:  // balance only
            v.credit(funded(), r.next_below(1000));
            break;
          case 1:
            (void)v.debit(funded(), r.next_below(500));
            break;
          case 2:  // nonce only, on a funded account
            v.set_nonce(funded(), r.next_below(4));
            break;
          case 3:  // nonce only, no balance entry: 0 erases the leaf
            v.set_nonce(bare(), r.next_below(3));
            break;
          case 4:  // brand-new account
            v.set_balance(crypto::Address{57 + r.next_below(1'000'000)},
                          r.next_below(100));
            break;
          case 5: {
            Bytes value(1 + r.next_below(4), static_cast<std::uint8_t>(r.next_u64()));
            v.store_put(contracts[r.next_below(3)],
                        "k" + std::to_string(r.next_below(12)), std::move(value));
            break;
          }
          case 6:
            v.store_erase(contracts[r.next_below(3)],
                          "k" + std::to_string(r.next_below(12)));
            break;
          case 7:
            v.append_audit(StoredAuditRecord{
                funded(), {"gaze", "ads", r.next_below(10), "none"},
                static_cast<Tick>(block)});
            break;
          default:
            v.add_burned_fees(r.next_below(5));
            break;
        }
      }
    };
    const std::string where = "block " + std::to_string(block);
    auto a = LedgerStateOverlay::writer(state);
    stage(a, block_seed);
    {
      auto call = LedgerStateOverlay::nested(a);
      stage(call, call_seed);
      call.commit();
    }
    auto b = LedgerStateOverlay::writer(oracle);
    stage(b, block_seed);
    stage(b, call_seed);
    stage(flat, block_seed);
    stage(flat, call_seed);
    const StateCommitment expected = state.stage(a).commitment;
    pre_states.push_back(state);
    undos.push_back(state.absorb(a));
    b.commit();
    EXPECT_EQ(a.touched(), 0u) << where;
    ASSERT_EQ(state.commitment(), expected) << where;
    expect_same_state(state, oracle, where);
    expect_same_state(state, flat, where + " flat");
    ASSERT_EQ(state.commitment(), state.full_rehash_commitment()) << where;
    ASSERT_EQ(state.account_count(), expected.account_count) << where;

    LedgerState rolled = state;
    rolled.apply_undo(undos.back());
    expect_same_state(rolled, pre_states.back(), where + " undo");
    if (HasFailure()) return;
  }
  // Newest-first through every undo lands on the empty state.
  for (std::size_t i = undos.size(); i-- > 0;) state.apply_undo(undos[i]);
  expect_same_state(state, LedgerState{}, "fully rolled back");
}

TEST(LedgerState, DeferredLeafDifferentialMatchesOracles) {
  // A set_balance/set_nonce outside a block only records the address; the
  // first reader of the accounts tree settles every pending leaf in one
  // sorted MerkleMap::update batch, into an empty tree or not. Random
  // interleavings of direct writes, writer-overlay commit()s and copies with
  // every reader (commitment, stage, prove_account, absorb,
  // apply_undo, flush_account_tree) must agree with the from-scratch oracle
  // and with a twin whose accounts were set by one load_accounts: same
  // accounts root, byte-equal proofs.
  Rng rng(2727);
  JobQueue inline_queue(JobQueueConfig{});
  LedgerState state;
  std::optional<StateUndo> undo;  // the last absorb's, until the next commit
  // Staged from a seed, so one delta can be written to several views.
  // Funded accounts 1..40 keep their balance entry; 41..56 only ever get
  // nonces, so a nonce of 0 erases their leaf; 57+ are fresh when first hit.
  const auto stage = [](LedgerView& v, std::uint64_t seed, bool block) {
    Rng r(seed);
    const std::uint64_t ops = 1 + r.next_below(40);
    for (std::uint64_t i = 0; i < ops; ++i) {
      switch (r.next_below(5)) {
        case 0:
          v.set_nonce(crypto::Address{r.next_below(16) + 41}, r.next_below(3));
          break;
        case 1:
          v.credit(crypto::Address{57 + r.next_below(1'000'000)}, r.next_below(100));
          break;
        case 2:
          v.set_nonce(crypto::Address{r.next_below(40) + 1}, r.next_below(4));
          break;
        default:
          v.credit(crypto::Address{r.next_below(40) + 1}, r.next_below(1000));
          break;
      }
    }
    if (!block) return;
    v.store_put("reg", "k" + std::to_string(r.next_below(8)), Bytes{1});
    v.append_audit(StoredAuditRecord{crypto::Address{r.next_below(40) + 1},
                                     {"gaze", "ads", 1, "none"}, 0});
    v.add_burned_fees(r.next_below(3));
  };
  const auto twin_of = [](const LedgerState& s) {
    LedgerState twin;
    twin.load_accounts(s.sorted_accounts());
    return twin;
  };
  const auto check = [&](const LedgerState& s, const std::string& where) {
    const StateCommitment c = s.commitment();
    ASSERT_EQ(c, s.full_rehash_commitment()) << where;
    const StateCommitment t = twin_of(s).commitment();
    ASSERT_EQ(c.accounts_root, t.accounts_root) << where;
    ASSERT_EQ(c.account_count, t.account_count) << where;
  };

  std::size_t readers_with_pending = 0;
  for (int step = 0; step < 2000 && !HasFailure(); ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::uint64_t seed = rng.next_u64();
    // Direct writes before most readers, so that they meet pending leaves.
    if (rng.chance(0.7)) {
      stage(state, rng.next_u64(), false);
      ++readers_with_pending;
    }
    switch (rng.next_below(9)) {
      case 0:  // writer-overlay commit(): set_* on the state, deferred too
      {
        auto scratch = LedgerStateOverlay::writer(state);
        stage(scratch, seed, true);
        scratch.commit();
        undo.reset();
        break;
      }
      case 1:
        check(state, where);
        break;
      case 2: {  // stage() vs the same delta written into a copy
        auto block = LedgerStateOverlay::reader(state);
        stage(block, seed, true);
        LedgerState oracle = state;
        stage(oracle, seed, true);
        ASSERT_EQ(state.stage(block).commitment, oracle.full_rehash_commitment())
            << where;
        break;
      }
      case 3: {  // proofs: byte-equal to the twin's, verified on its root
        const LedgerState twin = twin_of(state);
        const crypto::Digest root = twin.commitment().accounts_root;
        for (int q = 0; q < 4; ++q) {
          const crypto::Address a{q == 0 ? 57 + rng.next_below(1'000'000)
                                         : rng.next_below(56) + 1};
          const crypto::MerkleMapProof proof = state.prove_account(a);
          ASSERT_EQ(proof.encode(), twin.prove_account(a).encode()) << where;
          const Account* account = state.accounts().find(a);
          const std::optional<crypto::Digest> leaf =
              account == nullptr
                  ? std::nullopt
                  : std::optional(account_leaf_digest(
                        account->has_balance, account->balance, account->nonce));
          ASSERT_TRUE(crypto::MerkleMap::verify(root, a.value, leaf, proof)) << where;
        }
        break;
      }
      case 4: {  // absorb: its undo restores the pre-state exactly
        const LedgerState before = state;
        auto block = LedgerStateOverlay::writer(state);
        stage(block, seed, true);
        const StateCommitment expected = state.stage(block).commitment;
        undo = state.absorb(block);
        ASSERT_EQ(state.commitment(), expected) << where;
        LedgerState rolled = state;
        rolled.apply_undo(*undo);
        ASSERT_EQ(rolled.commitment(), before.full_rehash_commitment()) << where;
        ASSERT_EQ(rolled.sorted_accounts(), before.sorted_accounts()) << where;
        break;
      }
      case 5:  // apply_undo over direct writes made since the absorb
        if (undo.has_value()) {
          state.apply_undo(*undo);
          undo.reset();
          check(state, where);
        }
        break;
      case 6: {  // copies carry their pending leaves and stay independent
        LedgerState copy = state;
        stage(state, seed, false);
        check(copy, where + " copy");
        check(state, where + " original");
        if (rng.chance(0.5)) {
          state = std::move(copy);
          undo.reset();
        }
        break;
      }
      case 7:
        state.flush_account_tree(inline_queue);
        check(state, where);
        break;
      default:  // start over: the next reader settles into an empty tree
        if (rng.chance(0.2)) {
          state = LedgerState{};
          undo.reset();
        }
        break;
    }
  }
  check(state, "end");
  EXPECT_GT(readers_with_pending, 1000u);
}

// ---------------------------------------------------------- mempool TTL/cap

TEST(Mempool, SweepExpiredDropsOnlyStaleEntries) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 8)
          .ok());
  EXPECT_EQ(pool.sweep_expired(10), 0u);  // age 10 == ttl: not yet expired
  EXPECT_EQ(pool.sweep_expired(11), 1u);  // alice's (age 11) goes, bob's stays
  EXPECT_EQ(pool.size(), 1u);
  const auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
  EXPECT_EQ(pool.sweep_expired(19), 1u);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.stats().expired, 2u);
}

TEST(Mempool, ZeroTtlDisablesExpiry) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.sweep_expired(1000000), 0u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, NonceGappedTxExpiresInsteadOfPendingForever) {
  // Nonce 2 arrives but nonce 1 never does: the successor is unrunnable and
  // must eventually age out, even while fresh traffic keeps flowing.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(pool
                  .add(make_transfer(f.alice, 2, f.bob.address(), 1, 100, f.rng),
                       f.state, 0)
                  .ok());
  // The runnable nonce-0 tx commits; the gapped one stays behind.
  auto picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  ASSERT_TRUE(f.state.apply(picked[0], *f.contracts, 0).ok());
  pool.remove_included(picked);
  EXPECT_EQ(pool.size(), 1u);  // nonce 2 is still future: it stays
  // Fresh traffic at tick 20 is untouched; the orphan (admitted at 0) ages out.
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 20)
          .ok());
  EXPECT_EQ(pool.sweep_expired(20), 1u);
  picked = pool.select(10, f.state);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].sender(), f.bob.address());
}

TEST(Mempool, AtCapacityEvictsLowestFeeOrRejects) {
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 3});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 5, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 10, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 15, f.rng), f.state, 0)
          .ok());
  // Full, fee 20 > floor fee 5: alice's tx is displaced.
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 20, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 1u);
  const auto picked = pool.select(10, f.state);
  for (const auto& tx : picked) EXPECT_NE(tx.sender(), f.alice.address());
  // Full, fee 10 == new floor: rejected, pool unchanged.
  const auto cheap = make_transfer(f.alice, 0, f.bob.address(), 2, 10, f.rng);
  EXPECT_EQ(pool.add(cheap, f.state, 0).error().code, "mempool.full");
  EXPECT_EQ(pool.stats().rejected_full, 1u);
  EXPECT_EQ(pool.size(), 3u);
  // Replace-by-fee still works at capacity (pool does not grow).
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 12, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().replaced, 1u);
}

TEST(Mempool, ReplaceByFeeAtExactCapacityNeverEvictsOthers) {
  // A same-sender+nonce replacement at exact capacity must take the
  // replacement path — substituting in place — not the eviction path, even
  // though its fee also beats the pool floor. Nobody else's tx is displaced.
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 0, .max_txs = 4});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 2, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 5, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 7, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 9, f.rng), f.state, 0)
          .ok());
  ASSERT_EQ(pool.size(), 4u);
  // Alice re-prices her pending nonce-0 tx (fee 2 -> 20, above the floor).
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 20, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.stats().replaced, 1u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  EXPECT_EQ(pool.stats().rejected_full, 0u);
  // An equal-fee re-replacement is underpriced — and does NOT count as a
  // capacity rejection either.
  const auto equal =
      make_transfer(f.alice, 0, f.bob.address(), 2, 20, f.rng);
  EXPECT_EQ(pool.add(equal, f.state, 0).error().code, "mempool.underpriced");
  EXPECT_EQ(pool.stats().rejected_full, 0u);
  EXPECT_EQ(pool.stats().replaced, 1u);
  EXPECT_EQ(pool.size(), 4u);
  // Everyone's original transactions (with alice's re-priced) are selectable.
  EXPECT_EQ(pool.select(10, f.state).size(), 4u);
}

TEST(Mempool, SweepExpiredFreesCapacityBeforeEviction) {
  // TTL expiry and at-cap eviction interact: a sweep opens slots so a low-fee
  // newcomer is admitted without displacing anyone; once the pool refills,
  // eviction picks the lowest-fee survivor, not an already-expired entry.
  Fixture f;
  crypto::Wallet carol{f.rng}, dave{f.rng};
  f.state.credit(carol.address(), 500);
  f.state.credit(dave.address(), 500);
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 3});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 9, f.rng), f.state, 0)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(carol, 0, f.bob.address(), 1, 8, f.rng), f.state, 2)
          .ok());
  ASSERT_EQ(pool.size(), 3u);
  // Tick 12: the two tick-0 admissions (fees 1 and 9) age out; carol's
  // tick-2 tx survives. Expiry is by age, not fee.
  EXPECT_EQ(pool.sweep_expired(12), 2u);
  EXPECT_EQ(pool.stats().expired, 2u);
  EXPECT_EQ(pool.size(), 1u);
  // A fee-2 newcomer — far below carol's fee 8 — is admitted into the freed
  // capacity without evicting anyone.
  ASSERT_TRUE(
      pool.add(make_transfer(dave, 0, f.bob.address(), 1, 2, f.rng), f.state, 12)
          .ok());
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  // Refill to cap, then force an eviction: the victim is dave's fee-2 tx.
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 6, f.rng), f.state, 12)
          .ok());
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.stats().evicted_low_fee, 0u);
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 7, f.rng), f.state, 12)
          .ok());
  EXPECT_EQ(pool.stats().evicted_low_fee, 1u);
  EXPECT_EQ(pool.size(), 3u);
  const auto picked = pool.select(10, f.state);
  for (const auto& tx : picked) EXPECT_NE(tx.sender(), dave.address());
  // A newcomer that does not strictly out-pay the new floor (6) is refused.
  const auto cheap = make_transfer(dave, 0, f.bob.address(), 2, 6, f.rng);
  EXPECT_EQ(pool.add(cheap, f.state, 12).error().code, "mempool.full");
  EXPECT_EQ(pool.stats().rejected_full, 1u);
}

// -------------------------------------------- account proofs / light client

TEST(AccountProof, LightClientEndToEnd) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain
                  .append(chain.assemble(
                      f.v0, {make_transfer(f.alice, 0, f.bob.address(), 10, 1, f.rng)},
                      0, f.rng))
                  .ok());
  ASSERT_TRUE(chain
                  .append(chain.assemble(
                      f.v1, {make_transfer(f.bob, 0, f.alice.address(), 5, 1, f.rng)},
                      1, f.rng))
                  .ok());

  // The light client sees only headers — never the LedgerState.
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  for (const Block& b : chain.blocks()) {
    ASSERT_TRUE(lc.accept_header(b.header).ok());
  }
  EXPECT_EQ(lc.height(), 2);
  EXPECT_EQ(lc.tip_hash(), chain.tip_hash());

  auto ap = chain.prove_account(f.bob.address(), 1);
  ASSERT_TRUE(ap.ok());
  // Ship it over the wire, as a full node would.
  auto decoded = AccountProof::decode(ap.value().encode());
  ASSERT_TRUE(decoded.ok());
  auto st = lc.verify_account(decoded.value());
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st.value().exists);
  EXPECT_EQ(st.value().balance, chain.state().balance(f.bob.address()));
  EXPECT_EQ(st.value().nonce, 1u);

  // Non-membership: an address that never appeared.
  auto absent = chain.prove_account(crypto::Address{0x123456}, 1);
  ASSERT_TRUE(absent.ok());
  auto ast = lc.verify_account(absent.value());
  ASSERT_TRUE(ast.ok());
  EXPECT_FALSE(ast.value().exists);

  // Historical heights inside the retention window are served too: the proof
  // at tip-1 anchors against that older header and shows the pre-transfer
  // balance.
  auto old_ap = chain.prove_account(f.bob.address(), 0);
  ASSERT_TRUE(old_ap.ok());
  auto old_decoded = AccountProof::decode(old_ap.value().encode());
  ASSERT_TRUE(old_decoded.ok());
  auto old_st = lc.verify_account(old_decoded.value());
  ASSERT_TRUE(old_st.ok());
  EXPECT_EQ(old_st.value().balance, st.value().balance + 5 + 1);  // amount + fee
  EXPECT_EQ(old_st.value().nonce, 0u);

  // Future heights are a distinct error from stale ones.
  EXPECT_EQ(chain.prove_account(f.bob.address(), 7).error().code,
            "chain.bad_height");
}

TEST(AccountProof, RetentionWindowBoundsHistoricalProofs) {
  ChainFixture f;
  f.config.state_retention = 3;
  Blockchain chain = f.make_chain();
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  // Eight blocks, each moving 1 from alice to bob, so every height has a
  // distinct bob balance to recognise historical states by.
  const std::uint64_t bob0 = chain.state().balance(f.bob.address());
  for (int h = 0; h < 8; ++h) {
    const crypto::Wallet& proposer = (h % 2 == 0) ? f.v0 : f.v1;
    ASSERT_TRUE(
        chain
            .append(chain.assemble(
                proposer,
                {make_transfer(f.alice, h, f.bob.address(), 1, 1, f.rng)},
                h, f.rng))
            .ok());
    ASSERT_TRUE(lc.accept_header(chain.blocks().back().header).ok());
  }
  const std::int64_t tip = chain.height() - 1;

  // Every height in [tip - retention, tip] verifies against its own header.
  for (std::int64_t h = tip - 3; h <= tip; ++h) {
    auto ap = chain.prove_account(f.bob.address(), h);
    ASSERT_TRUE(ap.ok()) << "height " << h;
    auto st = lc.verify_account(ap.value());
    ASSERT_TRUE(st.ok()) << "height " << h;
    EXPECT_EQ(st.value().balance, bob0 + static_cast<std::uint64_t>(h) + 1);
  }
  // One height older falls off the ring.
  EXPECT_EQ(chain.prove_account(f.bob.address(), tip - 4).error().code,
            "chain.stale_height");
  // Proving a historical height leaves the live state untouched.
  auto tip_ap = chain.prove_account(f.bob.address(), tip);
  ASSERT_TRUE(tip_ap.ok());
  EXPECT_EQ(tip_ap.value().commitment.root, chain.state().commitment().root);
}

TEST(AccountProof, TamperedProofsAreRejected) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  LightClient lc(LightClientConfig{{f.v0.public_key(), f.v1.public_key()},
                                   chain.genesis_hash()});
  ASSERT_TRUE(lc.accept_header(chain.blocks()[0].header).ok());
  const auto honest = chain.prove_account(f.alice.address(), 0);
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(lc.verify_account(honest.value()).ok());

  AccountProof lie = honest.value();
  lie.statement.balance += 1;
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  lie = honest.value();
  lie.statement = AccountStatement{};  // deny an existing account
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  lie = honest.value();
  lie.commitment.burned_fees += 1;  // sections no longer match the header
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_commitment");

  lie = honest.value();
  lie.height = 3;  // no such header accepted
  EXPECT_EQ(lc.verify_account(lie).error().code, "light.unknown_height");

  lie = honest.value();
  lie.address = f.bob.address();  // someone else's proof
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_path");

  // Internally inconsistent statements never reach the Merkle check.
  lie = honest.value();
  lie.statement.exists = false;
  lie.statement.has_balance = true;
  EXPECT_EQ(lc.verify_account(lie).error().code, "proof.bad_statement");
}

TEST(LightClient, RejectsBadHeaders) {
  ChainFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(chain.assemble(f.v0, {}, 0, f.rng)).ok());
  ASSERT_TRUE(chain.append(chain.assemble(f.v1, {}, 1, f.rng)).ok());
  const BlockHeader h0 = chain.blocks()[0].header;
  const BlockHeader h1 = chain.blocks()[1].header;
  const LightClientConfig config{{f.v0.public_key(), f.v1.public_key()},
                                 chain.genesis_hash()};
  {
    LightClient lc(config);  // out-of-order height
    EXPECT_EQ(lc.accept_header(h1).error().code, "header.bad_height");
  }
  {
    LightClient lc(config);  // broken linkage
    BlockHeader bad = h0;
    bad.prev_hash[0] ^= 1;
    EXPECT_EQ(lc.accept_header(bad).error().code, "header.bad_parent");
  }
  {
    // Validator order swapped: h0 was proposed by v0, but this client
    // expects v1 at height 0.
    LightClient lc(LightClientConfig{{f.v1.public_key(), f.v0.public_key()},
                                     chain.genesis_hash()});
    EXPECT_EQ(lc.accept_header(h0).error().code, "header.wrong_proposer");
  }
  {
    LightClient lc(config);  // forged state root breaks the signature
    BlockHeader bad = h0;
    bad.state_root[0] ^= 1;
    EXPECT_EQ(lc.accept_header(bad).error().code, "header.bad_signature");
  }
  {
    LightClient lc(config);  // and the honest sequence is accepted
    ASSERT_TRUE(lc.accept_header(h0).ok());
    ASSERT_TRUE(lc.accept_header(h1).ok());
    EXPECT_EQ(lc.accept_header(h0).error().code, "header.bad_height");  // replay
  }
}

TEST(AccountProof, HundredThousandAccountChainTip) {
  // Acceptance property: at a 100k-account chain tip, every present key
  // proves, sampled absent keys non-membership-prove, and mutated
  // proofs/values/roots all fail.
  Rng rng(20260805);
  LedgerState genesis;
  std::vector<std::uint64_t> addrs;
  addrs.reserve(100000);
  while (addrs.size() < 100000) {
    const std::uint64_t a = rng.chance(0.5)
                                ? (0xACC0000000000000ull | rng.next_below(1u << 21))
                                : rng.next_u64();
    if (a == 0) continue;
    const crypto::Address addr{a};
    if (genesis.find_balance(addr).has_value()) continue;
    genesis.credit(addr, 1 + rng.next_below(1000));
    addrs.push_back(a);
  }
  crypto::Wallet validator(rng);
  ChainConfig config;
  config.validators = {validator.public_key()};
  Blockchain chain(config, std::make_shared<ContractRegistry>(), genesis);
  ASSERT_TRUE(chain.append(chain.assemble(validator, {}, 0, rng)).ok());
  const crypto::Digest state_root = chain.blocks()[0].header.state_root;
  LightClient lc(
      LightClientConfig{{validator.public_key()}, chain.genesis_hash()});
  ASSERT_TRUE(lc.accept_header(chain.blocks()[0].header).ok());

  for (const std::uint64_t a : addrs) {
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());
    ASSERT_TRUE(ap.value().statement.exists);
    ASSERT_TRUE(verify_account_proof(ap.value(), state_root).ok())
        << "account " << a;
  }
  std::size_t absent = 0;
  while (absent < 10000) {
    const std::uint64_t a = rng.chance(0.5)
                                ? (0xACC0000000000000ull | rng.next_below(1u << 21))
                                : rng.next_u64();
    if (a == 0 || chain.state().find_balance(crypto::Address{a}).has_value()) {
      continue;
    }
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());
    ASSERT_FALSE(ap.value().statement.exists);
    ASSERT_TRUE(verify_account_proof(ap.value(), state_root).ok())
        << "absent " << a;
    ++absent;
  }
  // Mutations: value, root, and proof bytes, over a sample of accounts.
  for (int sample = 0; sample < 64; ++sample) {
    const std::uint64_t a = addrs[rng.next_below(addrs.size())];
    const auto ap = chain.prove_account(crypto::Address{a}, 0);
    ASSERT_TRUE(ap.ok());

    AccountProof wrong_value = ap.value();
    wrong_value.statement.balance ^= 1;
    EXPECT_FALSE(verify_account_proof(wrong_value, state_root).ok());

    crypto::Digest wrong_root = state_root;
    wrong_root[rng.next_below(wrong_root.size())] ^= 0x40;
    EXPECT_FALSE(verify_account_proof(ap.value(), wrong_root).ok());

    // Mutated wire bytes go through the light client: a height mutation is
    // caught by the header lookup, everything else by the crypto.
    Bytes wire = ap.value().encode();
    wire[rng.next_below(wire.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto mutated = AccountProof::decode(wire);
    if (mutated.ok()) {
      EXPECT_FALSE(lc.verify_account(mutated.value()).ok());
    }
  }
}

// ----------------------------------------------------- overlay commit modes

TEST(LedgerStateOverlayDeathTest, CommitOnReaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  auto overlay = LedgerStateOverlay::reader(f.state);
  overlay.credit(f.alice.address(), 1);
  // Release builds used to compile the assert out and silently drop the
  // delta; the failure must be hard in every build type.
  EXPECT_DEATH(overlay.commit(), "read-only overlay");
}

TEST(LedgerStateOverlayDeathTest, CommitmentWithOverAnotherViewAborts) {
  // A commitment reads one block overlay in place against the state it is
  // directly over; an overlay over another view (here a nested one) would
  // hash a delta that omits its parent's writes.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  auto outer = LedgerStateOverlay::writer(f.state);
  outer.credit(f.alice.address(), 1);
  auto inner = LedgerStateOverlay::nested(outer);
  inner.credit(f.bob.address(), 1);
  EXPECT_DEATH((void)f.state.stage(inner), "LedgerState::stage");
  LedgerState other;
  EXPECT_DEATH((void)other.stage(outer), "LedgerState::stage");
}

TEST(LedgerStateOverlayDeathTest, AbsorbWithAStageOfAnotherOverlayAborts) {
  // A sealed commit installs the stage's digests without re-hashing the
  // overlay, so a stage of another overlay touching as many accounts would
  // leave the accounts tree out of step with the table.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture f;
  auto committed = LedgerStateOverlay::reader(f.state);
  committed.credit(f.alice.address(), 1);
  auto other = LedgerStateOverlay::reader(f.state);
  other.credit(f.bob.address(), 1);
  const LedgerState::Staged staged = f.state.stage(other);
  EXPECT_DEATH((void)f.state.absorb(committed, &staged), "stage of another overlay");
}

TEST(LedgerStateOverlay, CommitOnWriterFoldsDelta) {
  Fixture f;
  auto overlay = LedgerStateOverlay::writer(f.state);
  overlay.credit(f.alice.address(), 10);
  overlay.set_nonce(f.bob.address(), 3);
  overlay.add_burned_fees(7);
  overlay.commit();
  EXPECT_EQ(f.state.balance(f.alice.address()), 1010u);
  EXPECT_EQ(f.state.nonce(f.bob.address()), 3u);
  EXPECT_EQ(f.state.burned_fees(), 7u);
  // After the fold the overlay is empty: committing again is a no-op.
  overlay.commit();
  EXPECT_EQ(f.state.balance(f.alice.address()), 1010u);
}

// ------------------------------------------------ overlay store reads vs oracle

namespace {
using StoreModel = std::map<std::string, Bytes>;

std::string random_store_key(Rng& rng) {
  const std::size_t len = 1 + rng.next_below(4);
  std::string key;
  for (std::size_t i = 0; i < len; ++i) {
    key.push_back(static_cast<char>('a' + rng.next_below(3)));
  }
  return key;
}

/// Every key random_store_key can draw: 3 + 9 + 27 + 81 = 120.
std::vector<std::string> every_store_key() {
  std::vector<std::string> keys = {""};
  std::vector<std::string> out;
  for (int len = 1; len <= 4; ++len) {
    std::vector<std::string> longer;
    for (const std::string& key : keys) {
      for (const char c : {'a', 'b', 'c'}) longer.push_back(key + c);
    }
    out.insert(out.end(), longer.begin(), longer.end());
    keys = std::move(longer);
  }
  return out;
}

/// store_get on `view` agrees with the flattened `model` at every key:
/// absent keys (never written, or tombstoned) read null, present keys read
/// the model's bytes.
::testing::AssertionResult reads_match(const LedgerView& view,
                                       const std::string& contract,
                                       const StoreModel& model) {
  for (const std::string& key : every_store_key()) {
    const Bytes* got = view.store_get(contract, key);
    const auto want = model.find(key);
    if (want == model.end() && got != nullptr) {
      return ::testing::AssertionFailure() << "key '" << key << "' should be absent";
    }
    if (want != model.end() && (got == nullptr || *got != want->second)) {
      return ::testing::AssertionFailure() << "key '" << key << "' reads wrong";
    }
  }
  return ::testing::AssertionSuccess();
}
}  // namespace

TEST(LedgerStateOverlay, StoreGetMatchesFlattenedOracle) {
  // Randomized differential test of overlay point reads: tombstones over base
  // keys, re-insert after erase, and a nested overlay, all on a 3-letter
  // alphabet so collisions are constant.
  Rng rng(424242);
  const std::string contract = "shop";
  ASSERT_EQ(every_store_key().size(), 120u);
  for (int round = 0; round < 25; ++round) {
    LedgerState base;
    StoreModel base_model;
    for (int i = 0; i < 20; ++i) {
      const std::string key = random_store_key(rng);
      base.store_put(contract, key, Bytes{static_cast<std::uint8_t>(i)});
      base_model[key] = Bytes{static_cast<std::uint8_t>(i)};
    }
    auto o1 = LedgerStateOverlay::writer(base);
    StoreModel o1_model = base_model;
    for (int i = 0; i < 30; ++i) {
      const std::string key = random_store_key(rng);
      if (rng.chance(0.45)) {  // tombstone (often shadowing a base key)
        o1.store_erase(contract, key);
        o1_model.erase(key);
      } else {  // insert (often a re-insert over an earlier tombstone)
        o1.store_put(contract, key, Bytes{static_cast<std::uint8_t>(i)});
        o1_model[key] = Bytes{static_cast<std::uint8_t>(i)};
      }
    }
    auto o2 = LedgerStateOverlay::nested(o1);
    StoreModel o2_model = o1_model;
    for (int i = 0; i < 30; ++i) {
      const std::string key = random_store_key(rng);
      if (rng.chance(0.45)) {
        o2.store_erase(contract, key);
        o2_model.erase(key);
      } else {
        o2.store_put(contract, key, Bytes{static_cast<std::uint8_t>(100 + i)});
        o2_model[key] = Bytes{static_cast<std::uint8_t>(100 + i)};
      }
    }
    ASSERT_TRUE(reads_match(base, contract, base_model)) << "base, round " << round;
    ASSERT_TRUE(reads_match(o1, contract, o1_model)) << "o1, round " << round;
    ASSERT_TRUE(reads_match(o2, contract, o2_model))
        << "o2 (nested), round " << round;
    // Commit the stack down to the base; the flattened views must agree.
    o2.commit();
    ASSERT_TRUE(reads_match(o1, contract, o2_model))
        << "o1 after o2.commit, round " << round;
    o1.commit();
    ASSERT_TRUE(reads_match(base, contract, o2_model))
        << "base after commits, round " << round;
  }
}

// ----------------------------------------------- mempool expiry edge cases

TEST(Mempool, SweepRecoversFromClockRegression) {
  // A replica restarting mid-tick can hand sweep_expired a `now` before the
  // admission stamps. The historical sweep broke on `now <= admitted`, which
  // left future-stamped entries unexpirable forever; they are now re-stamped
  // to the regressed clock and age out normally.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 1000)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 1005)
          .ok());
  EXPECT_EQ(pool.sweep_expired(5), 0u);  // regression: re-stamp, nothing drops
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_EQ(pool.sweep_expired(15), 0u);  // age 10 == ttl: still pending
  EXPECT_EQ(pool.sweep_expired(16), 2u);  // age 11 > ttl: both expire
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_EQ(pool.stats().expired, 2u);
}

TEST(Mempool, SweepMixedPastAndFutureStamps) {
  // Only the oldest stamp drives the loop: a future-stamped entry behind a
  // past one is untouched until it becomes the oldest, then re-stamped.
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 3)
          .ok());
  ASSERT_TRUE(
      pool.add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng), f.state, 1000)
          .ok());
  EXPECT_EQ(pool.sweep_expired(5), 0u);  // oldest (3) is fresh; nothing happens
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.sweep_expired(14), 1u);  // age 11: the tick-3 entry expires,
  EXPECT_EQ(pool.size(), 1u);             // and the future one re-stamps to 14
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_EQ(pool.sweep_expired(25), 1u);  // 25 - 14 = 11 > ttl
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, SweepTickBoundaryValues) {
  Fixture f;
  Mempool pool(MempoolConfig{.ttl = 10, .max_txs = 100});
  ASSERT_TRUE(
      pool.add(make_transfer(f.alice, 0, f.bob.address(), 1, 1, f.rng), f.state, 0)
          .ok());
  EXPECT_EQ(pool.sweep_expired(0), 0u);  // age 0 at now == admitted
  // A far-future sweep must not overflow Tick arithmetic.
  EXPECT_EQ(pool.sweep_expired(std::numeric_limits<Tick>::max()), 1u);
  // An entry stamped at the Tick ceiling re-stamps on the first sane sweep.
  ASSERT_TRUE(pool
                  .add(make_transfer(f.bob, 0, f.alice.address(), 1, 1, f.rng),
                       f.state, std::numeric_limits<Tick>::max())
                  .ok());
  EXPECT_EQ(pool.sweep_expired(100), 0u);  // re-stamped to 100
  EXPECT_TRUE(pool.self_check(f.state));
  EXPECT_EQ(pool.sweep_expired(111), 1u);  // and expires 11 ticks later
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, RandomizedChurnKeepsIndexesConsistent) {
  // Churn every public mutation — admission, replace-by-fee, at-cap
  // eviction, expiry sweeps (including clock regressions), inclusion
  // removal of committed blocks — and audit the slots, the fee index and
  // the no-stale-entry invariant after each batch. A block is selected, then
  // admissions run (replacing some of its picks by fee) before it commits,
  // as on a replica whose proposal is in flight.
  Fixture f;
  Rng rng(777);
  std::vector<crypto::Wallet> wallets;
  for (int i = 0; i < 6; ++i) {
    wallets.emplace_back(rng);
    f.state.credit(wallets.back().address(), 10'000);
  }
  Mempool pool(MempoolConfig{.ttl = 30, .max_txs = 24});
  std::vector<std::uint64_t> next_nonce(wallets.size(), 0);
  Tick now = 0;
  std::size_t committed = 0;
  for (int round = 0; round < 60; ++round) {
    const std::vector<Transaction> block =
        rng.chance(0.25) ? pool.select(4, f.state) : std::vector<Transaction>{};
    for (int op = 0; op < 8; ++op) {
      const std::size_t w = rng.next_below(wallets.size());
      const bool replay = rng.chance(0.2) && next_nonce[w] > 0;
      const std::uint64_t nonce =
          replay ? rng.next_below(next_nonce[w]) : next_nonce[w];
      const auto tx = make_transfer(wallets[w], nonce, f.bob.address(), 1,
                                    1 + rng.next_below(9), f.rng);
      if (pool.add(tx, f.state, now).ok() && !replay) ++next_nonce[w];
    }
    if (rng.chance(0.3)) {
      // Advance, or regress the clock to re-exercise the re-stamp path.
      now = rng.chance(0.25) ? std::max<Tick>(0, now - 40)
                             : now + static_cast<Tick>(rng.next_below(20));
      (void)pool.sweep_expired(now);
    }
    for (const auto& tx : block) {
      ASSERT_TRUE(f.state.apply(tx, *f.contracts, 0).ok()) << "round " << round;
    }
    pool.remove_included(block);
    committed += block.size();
    ASSERT_TRUE(pool.self_check(f.state)) << "round " << round;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(pool.stats().replaced, 0u);
  EXPECT_EQ(pool.stats().repaired, 0u);  // indexes never actually dangled
}

TEST(Mempool, RandomizedSweepMatchesStampModel) {
  // A brute-force model of the expiry rule: it keeps each pending slot's
  // transaction and admission stamp. A sweep at `now` drops every entry with
  // `stamp <= now && now - stamp > ttl`; if entries survive and all of them
  // are stamped after `now` (the clock regressed), all re-stamp to `now`.
  // Admissions, replacements, removals of the oldest entry right before a
  // regressed sweep, and sweeps run at random; each sweep's dropped count and
  // every survivor's stamp must match the model.
  Fixture f;
  Rng rng(4242);
  std::vector<crypto::Wallet> wallets;
  for (int i = 0; i < 6; ++i) wallets.emplace_back(rng);
  constexpr Tick kTtl = 30;
  // Uncapped (no eviction), and with a sig cache so the probes below re-add
  // pending transactions without re-verifying them.
  Mempool pool(MempoolConfig{.ttl = kTtl,
                             .max_txs = 0,
                             .sig_cache = std::make_shared<crypto::DigestLruSet>()});
  struct Slot {
    Transaction tx;
    Tick stamp = 0;
  };
  std::map<std::pair<std::size_t, std::uint64_t>, Slot> model;

  // Reads the pool's stamps without an accessor: on a copy of the pool, a
  // sweep at `s + ttl + 1` drops exactly the entries stamped at or before
  // `s` and keeps every later-stamped one pending (its re-add is refused as
  // a duplicate). Probing each model stamp `s` pins every survivor's stamp.
  const auto expect_stamps = [&](int round) {
    std::set<Tick> stamps;
    for (const auto& [slot, entry] : model) stamps.insert(entry.stamp);
    for (const Tick s : stamps) {
      Mempool probe = pool;
      std::size_t stale = 0;
      for (const auto& [slot, entry] : model) stale += entry.stamp <= s ? 1 : 0;
      ASSERT_EQ(probe.sweep_expired(s + kTtl + 1), stale)
          << "round " << round << ", stamp " << s;
      ASSERT_EQ(probe.size(), model.size() - stale) << "round " << round;
      for (const auto& [slot, entry] : model) {
        if (entry.stamp <= s) continue;
        ASSERT_EQ(probe.add(entry.tx, f.state, 0).error().code, "mempool.duplicate")
            << "round " << round << ": slot stamped " << entry.stamp
            << " left the pool at a sweep for stamp " << s;
      }
    }
  };

  Tick now = 0;
  std::size_t expired = 0;
  std::size_t restamps = 0;
  std::size_t removed_oldest = 0;
  for (int round = 0; round < 200; ++round) {
    for (int op = 0; op < 4; ++op) {
      const std::size_t w = rng.next_below(wallets.size());
      const std::uint64_t nonce = rng.next_below(8);
      auto tx = make_transfer(wallets[w], nonce, f.bob.address(), 1,
                              1 + rng.next_below(9), f.rng);
      if (pool.add(tx, f.state, now).ok()) model[{w, nonce}] = Slot{std::move(tx), now};
    }
    ASSERT_EQ(pool.size(), model.size()) << "round " << round;
    if (!rng.chance(0.5)) continue;
    const bool regress = rng.chance(0.3);
    now = regress ? std::max<Tick>(0, now - static_cast<Tick>(rng.next_below(60)))
                  : now + static_cast<Tick>(rng.next_below(25));
    if (regress && !model.empty() && rng.chance(0.5)) {
      // The oldest entry leaves by inclusion before the regressed sweep.
      const auto oldest = std::min_element(
          model.begin(), model.end(),
          [](const auto& a, const auto& b) { return a.second.stamp < b.second.stamp; });
      pool.remove_included({oldest->second.tx});
      model.erase(oldest);
      ++removed_oldest;
    }
    std::size_t dropped = 0;
    bool all_future = true;
    for (auto it = model.begin(); it != model.end();) {
      const Tick stamp = it->second.stamp;
      if (stamp <= now && now - stamp > kTtl) {
        it = model.erase(it);
        ++dropped;
      } else {
        all_future = all_future && stamp > now;
        ++it;
      }
    }
    if (all_future && !model.empty()) {
      for (auto& [slot, entry] : model) entry.stamp = now;
      ++restamps;
    }
    expired += dropped;
    ASSERT_EQ(pool.sweep_expired(now), dropped) << "round " << round << ", now " << now;
    ASSERT_EQ(pool.size(), model.size()) << "round " << round;
    ASSERT_TRUE(pool.self_check(f.state)) << "round " << round;
    expect_stamps(round);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(pool.stats().expired, expired);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(restamps, 0u);
  EXPECT_GT(removed_oldest, 0u);
  EXPECT_EQ(pool.stats().repaired, 0u);
}

}  // namespace
}  // namespace mv::ledger
