// Sealed proposals: assemble() keeps the block's post-state and append()
// commits it without executing the block a second time.
//
// Two batteries. SealedProposal covers the seal's edges: every block that is
// not the exact sealed proposal on the exact tip it was built for (tampered,
// re-signed, superseded, stale, snapshot-replaced) must take the full
// re-executing validation with today's results, and validate() must not
// consume the seal. ScenarioSealed is the differential anchor: a proposer
// committing through the sealed path and an independent follower validating
// every one of its blocks in full must agree on the commitment at every
// height, across golden traces, a recording whose candidate lists carry
// transactions that fail in assembly, and a 4-shard ShardedLedger.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/job_queue.h"
#include "crypto/digest_lru.h"
#include "ledger/chain.h"
#include "ledger/light_client.h"
#include "ledger/mempool.h"
#include "ledger/shard.h"
#include "scenario/harness.h"
#include "scenario/scenario.h"
#include "scenario/trace.h"

namespace mv::ledger {
namespace {

struct SealFixture {
  Rng rng{0x5ea1};
  crypto::Wallet v0{rng};
  crypto::Wallet v1{rng};
  crypto::Wallet alice{rng};
  crypto::Wallet bob{rng};
  ChainConfig config;
  LedgerState genesis;

  SealFixture() {
    config.validators = {v0.public_key(), v1.public_key()};
    genesis.credit(alice.address(), 1'000'000);
    genesis.credit(bob.address(), 500'000);
  }

  [[nodiscard]] Blockchain make_chain() const {
    return Blockchain(config, std::make_shared<ContractRegistry>(), genesis);
  }

  [[nodiscard]] const crypto::Wallet& proposer_for(const Blockchain& chain) const {
    return chain.height() % 2 == 0 ? v0 : v1;
  }

  /// `n` alice -> bob transfers starting at alice's committed nonce.
  [[nodiscard]] std::vector<Transaction> transfers(const Blockchain& chain,
                                                   std::uint64_t amount,
                                                   int n = 3) {
    std::vector<Transaction> txs;
    const std::uint64_t base = chain.state().nonce(alice.address());
    for (int i = 0; i < n; ++i) {
      txs.push_back(make_transfer(alice, base + static_cast<std::uint64_t>(i),
                                  bob.address(), amount, 1, rng));
    }
    return txs;
  }

  [[nodiscard]] Block propose(const Blockchain& chain, std::uint64_t amount) {
    return chain.assemble(proposer_for(chain), transfers(chain, amount),
                          chain.height(), rng);
  }
};

TEST(SealedProposal, ProposerCommitsSealedFollowerValidatesInFull) {
  SealFixture f;
  Blockchain proposer = f.make_chain();
  Blockchain follower = f.make_chain();
  for (int b = 0; b < 4; ++b) {
    const Block block = f.propose(proposer, 10 + static_cast<std::uint64_t>(b));
    const std::uint64_t applies = proposer.validation_stats().applies;
    ASSERT_TRUE(proposer.append(block).ok());
    // The sealed commit ran no block application.
    EXPECT_EQ(proposer.validation_stats().applies, applies);
    ASSERT_TRUE(follower.append(block).ok());
    EXPECT_EQ(*proposer.commitment_at(b), *follower.commitment_at(b));
  }
  EXPECT_EQ(proposer.validation_stats().sealed_commits, 4u);
  EXPECT_EQ(follower.validation_stats().sealed_commits, 0u);
  EXPECT_EQ(proposer.state().full_rehash_root(), follower.state().full_rehash_root());

  // import_blocks always validates in full.
  Blockchain imported = f.make_chain();
  auto n = imported.import_blocks(proposer.export_blocks());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(imported.validation_stats().sealed_commits, 0u);
  EXPECT_EQ(imported.state().commitment(), proposer.state().commitment());
}

TEST(SealedProposal, SwappedTxIsRejectedByTxRoot) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  Block block = f.propose(chain, 10);
  // Same header (so the same hash as the seal), different body.
  block.txs[1] = make_transfer(f.alice, 1, f.bob.address(), 999, 1, f.rng);
  EXPECT_EQ(chain.append(block).error().code, "block.bad_tx_root");
  EXPECT_EQ(chain.height(), 0);
  EXPECT_EQ(chain.state().commitment(), f.genesis.commitment());
  EXPECT_EQ(chain.validation_stats().sealed_commits, 0u);
}

TEST(SealedProposal, ResignedHeaderWithOtherStateRootTakesFullValidation) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  Block block = f.propose(chain, 10);
  block.header.state_root[0] ^= 0x01;
  block.header.proposer_sig = f.v0.sign(block.header.signing_bytes(), f.rng);
  const std::uint64_t applies = chain.validation_stats().applies;
  EXPECT_EQ(chain.append(block).error().code, "block.bad_state_root");
  EXPECT_EQ(chain.validation_stats().applies, applies + 1);  // re-executed
  EXPECT_EQ(chain.height(), 0);
  EXPECT_EQ(chain.state().commitment(), f.genesis.commitment());
  EXPECT_EQ(chain.validation_stats().sealed_commits, 0u);
}

TEST(SealedProposal, SupersededProposalIsAcceptedThroughFullValidation) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  const Block a = f.propose(chain, 10);
  const Block b = f.propose(chain, 20);  // replaces the seal
  ASSERT_NE(a.header.hash(), b.header.hash());
  const std::uint64_t applies = chain.validation_stats().applies;
  ASSERT_TRUE(chain.append(a).ok());
  EXPECT_EQ(chain.validation_stats().applies, applies + 1);
  EXPECT_EQ(chain.validation_stats().sealed_commits, 0u);
  EXPECT_EQ(chain.state().commitment().root, a.header.state_root);
  // b's seal went with that append; b itself is now stale.
  EXPECT_EQ(chain.append(b).error().code, "block.bad_height");
  EXPECT_EQ(chain.height(), 1);
}

TEST(SealedProposal, StaleSealIsNotUsedAfterAnotherAppend) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  Blockchain twin = f.make_chain();
  const Block sealed = f.propose(chain, 10);
  const Block other = f.propose(twin, 30);
  ASSERT_TRUE(chain.append(other).ok());  // full path; drops the seal
  EXPECT_EQ(chain.validation_stats().sealed_commits, 0u);
  EXPECT_EQ(chain.append(sealed).error().code, "block.bad_height");
  EXPECT_EQ(chain.height(), 1);
  EXPECT_EQ(chain.state().commitment().root, other.header.state_root);

  // A rejected append also uses the seal up: the next commit of the same
  // proposal re-executes it.
  const Block next = f.propose(chain, 5);
  Block tampered = next;
  tampered.header.timestamp += 1;
  EXPECT_EQ(chain.append(tampered).error().code, "block.bad_proposer_sig");
  const std::uint64_t applies = chain.validation_stats().applies;
  ASSERT_TRUE(chain.append(next).ok());
  EXPECT_EQ(chain.validation_stats().applies, applies + 1);
  EXPECT_EQ(chain.validation_stats().sealed_commits, 0u);
}

TEST(SealedProposal, WrongProposerIsRejectedOnTheSealedPath) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  // v1 is not height 0's proposer; its signature is valid but the schedule
  // check still runs on a sealed block.
  const Block block =
      chain.assemble(f.v1, f.transfers(chain, 10), 0, f.rng);
  EXPECT_EQ(chain.append(block).error().code, "block.wrong_proposer");
  EXPECT_EQ(chain.height(), 0);
}

TEST(SealedProposal, ValidateKeepsTheSeal) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  const Block block = f.propose(chain, 10);
  ASSERT_TRUE(chain.validate(block).ok());
  ASSERT_TRUE(chain.validate(block).ok());
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(chain.validation_stats().sealed_commits, 1u);
  EXPECT_EQ(chain.state().commitment(), chain.state().full_rehash_commitment());
}

TEST(SealedProposal, InitFromSnapshotClearsTheSeal) {
  SealFixture f;
  Blockchain source = f.make_chain();
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(source.append(f.propose(source, 10)).ok());
  }
  auto snap = source.export_snapshot(source.height() - 1);
  ASSERT_TRUE(snap.ok());

  Blockchain replica = f.make_chain();
  const Block early = f.propose(replica, 77);  // sealed over genesis
  ASSERT_TRUE(replica
                  .init_from_snapshot(snap.value().manifest, snap.value().chunks,
                                      source.blocks().back().header)
                  .ok());
  EXPECT_EQ(replica.append(early).error().code, "block.bad_height");

  // The source's next block reaches the replica through full validation,
  // and the replica's own proposals seal again on its new base.
  const Block next = f.propose(source, 11);
  ASSERT_TRUE(source.append(next).ok());
  ASSERT_TRUE(replica.append(next).ok());
  EXPECT_EQ(replica.validation_stats().sealed_commits, 0u);
  EXPECT_EQ(replica.state().commitment(), source.state().commitment());
  ASSERT_TRUE(replica.append(f.propose(replica, 12)).ok());
  EXPECT_EQ(replica.validation_stats().sealed_commits, 1u);
  EXPECT_EQ(replica.state().commitment(), replica.state().full_rehash_commitment());
}

TEST(SealedProposal, SealFollowsAMovedChain) {
  SealFixture f;
  Blockchain chain = f.make_chain();
  ASSERT_TRUE(chain.append(f.propose(chain, 10)).ok());
  const Block block = f.propose(chain, 11);
  Blockchain moved = std::move(chain);
  ASSERT_TRUE(moved.append(block).ok());
  EXPECT_EQ(moved.validation_stats().sealed_commits, 2u);
  EXPECT_EQ(moved.state().commitment().root, block.header.state_root);
  EXPECT_EQ(moved.state().commitment(), moved.state().full_rehash_commitment());
}

TEST(SealedProposal, SharedGenesisStaysUntouched) {
  SealFixture f;
  auto genesis = std::make_shared<const LedgerState>(f.genesis);
  const StateCommitment before = genesis->commitment();
  Blockchain chain(f.config, std::make_shared<ContractRegistry>(), genesis);
  const Block block = f.propose(chain, 10);  // reader over *genesis
  ASSERT_TRUE(chain.append(block).ok());
  EXPECT_EQ(chain.validation_stats().sealed_commits, 1u);
  EXPECT_EQ(genesis->commitment(), before);
  EXPECT_EQ(chain.state().commitment().root, block.header.state_root);
}

// ------------------------------------------------------- FollowerRollback
//
// A follower commits an unsealed block first and checks its state root on
// the committed state, so a block whose root is forged is committed and then
// rolled back. These cases pin that the rollback leaves nothing behind.

/// Writes `args` (one string) as both key and value of its own store; "fail"
/// writes and then fails, so the call's writes must be discarded.
class NoteContract final : public Contract {
 public:
  [[nodiscard]] std::string name() const override { return "note"; }
  [[nodiscard]] Status call(CallContext& ctx, const std::string& method,
                            const Bytes& args) const override {
    ctx.put(std::string(args.begin(), args.end()), args);
    if (method == "fail") return Status::fail("note.failed", "after a write");
    return {};
  }
};

/// Everything a rejected append must leave as it was.
struct ChainImage {
  LedgerState state;
  std::int64_t height = 0;
  crypto::Digest tip{};
  std::vector<StateCommitment> ring;  ///< commitment_at(h) for held heights
  std::uint64_t hook_calls = 0;
};

struct RollbackFixture : SealFixture {
  std::shared_ptr<ContractRegistry> contracts = [] {
    auto registry = std::make_shared<ContractRegistry>();
    registry->install(std::make_shared<NoteContract>());
    return registry;
  }();
  crypto::Wallet carol{rng};  ///< never funded: the blocks below create her
  Blockchain source{config, contracts, genesis};    ///< proposes honest blocks
  Blockchain follower{config, contracts, genesis};  ///< only ever appends
  std::uint64_t hook_calls = 0;

  RollbackFixture() {
    follower.set_commit_hook(
        [this](const Block&, const StateUndo&) { ++hook_calls; });
  }

  /// A block touching every state section: a transfer to a fresh account, a
  /// store write (a fresh store on the first block), an audit record, fees.
  [[nodiscard]] std::vector<Transaction> busy_txs(std::uint64_t amount) {
    const std::uint64_t a = follower.state().nonce(alice.address());
    const std::uint64_t b = follower.state().nonce(bob.address());
    const std::string key = "k" + std::to_string(follower.height());
    return {make_transfer(alice, a, carol.address(), amount, 1, rng),
            make_contract_call(bob, b, "note", "put", Bytes(key.begin(), key.end()),
                               2, rng),
            make_audit_record(alice, a + 1, {"gaze", "ads", 3, "none"}, 1, rng)};
  }

  /// Propose `txs` on the source and hand the block to the follower.
  [[nodiscard]] bool advance(std::uint64_t amount) {
    const Block block = source.assemble(proposer_for(source), busy_txs(amount),
                                        source.height(), rng);
    return block.txs.size() == 3 && source.append(block).ok() &&
           follower.append(block).ok();
  }

  /// `txs` in a block the scheduled proposer signed correctly, claiming
  /// `state_root`.
  [[nodiscard]] Block forge(std::vector<Transaction> txs,
                            const crypto::Digest& state_root) {
    Block block;
    block.header.height = follower.height();
    block.header.prev_hash = follower.tip_hash();
    block.header.timestamp = follower.height();
    block.header.proposer_pub = proposer_for(follower).public_key();
    block.txs = std::move(txs);
    block.header.tx_root = Block::compute_tx_root(block.txs);
    block.header.state_root = state_root;
    block.header.proposer_sig =
        proposer_for(follower).sign(block.header.signing_bytes(), rng);
    return block;
  }

  [[nodiscard]] ChainImage image() const {
    ChainImage img{follower.state(), follower.height(), follower.tip_hash(), {},
                   hook_calls};
    for (std::int64_t h = 0; h < follower.height(); ++h) {
      if (const StateCommitment* c = follower.commitment_at(h)) img.ring.push_back(*c);
    }
    return img;
  }

  /// The follower is exactly as `before` left it, and its proofs still serve.
  void expect_untouched(const ChainImage& before) const {
    const LedgerState& now = follower.state();
    EXPECT_EQ(now.commitment(), before.state.commitment());
    EXPECT_EQ(now.commitment(), now.full_rehash_commitment());
    EXPECT_EQ(now.balances(), before.state.balances());
    EXPECT_EQ(now.nonces(), before.state.nonces());
    EXPECT_EQ(now.stores(), before.state.stores());
    EXPECT_EQ(now.audit_log().size(), before.state.audit_log().size());
    EXPECT_EQ(now.audit_digest(), before.state.audit_digest());
    EXPECT_EQ(now.burned_fees(), before.state.burned_fees());
    EXPECT_EQ(follower.height(), before.height);
    EXPECT_EQ(follower.tip_hash(), before.tip);
    EXPECT_EQ(image().ring, before.ring);
    EXPECT_EQ(hook_calls, before.hook_calls);
    // Tip and historical account proofs still verify against their headers.
    for (const std::int64_t h : {follower.height() - 1, std::int64_t{0}}) {
      for (const crypto::Address addr : {alice.address(), carol.address()}) {
        const auto ap = follower.prove_account(addr, h);
        ASSERT_TRUE(ap.ok()) << ap.error().to_string();
        EXPECT_TRUE(
            verify_account_proof(ap.value(), follower.block_at(h)->header.state_root)
                .ok())
            << "height " << h;
      }
    }
  }
};

TEST(FollowerRollback, ForgedStateRootIsRolledBackBitForBit) {
  RollbackFixture f;
  for (std::uint64_t b = 0; b < 3; ++b) ASSERT_TRUE(f.advance(10 + b));
  const ChainImage before = f.image();
  ASSERT_EQ(before.ring.size(), 3u);

  // The honest next block, and the same block re-signed by the scheduled
  // proposer with one bit of its state root flipped.
  const Block honest = f.source.assemble(f.proposer_for(f.source), f.busy_txs(20),
                                         f.source.height(), f.rng);
  crypto::Digest forged_root = honest.header.state_root;
  forged_root[31] ^= 0x01;
  const Block forged = f.forge(honest.txs, forged_root);

  const std::uint64_t applies = f.follower.validation_stats().applies;
  const Status s = f.follower.append(forged);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "block.bad_state_root");
  EXPECT_EQ(f.follower.validation_stats().applies, applies + 1);  // executed once
  f.expect_untouched(before);

  // The honest block still appends on both chains and they agree.
  ASSERT_TRUE(f.follower.append(honest).ok());
  ASSERT_TRUE(f.source.append(honest).ok());
  EXPECT_EQ(f.hook_calls, before.hook_calls + 1);
  EXPECT_EQ(f.follower.state().commitment().root, honest.header.state_root);
  EXPECT_EQ(f.follower.state().commitment(), f.source.state().commitment());
  EXPECT_EQ(f.follower.state().commitment(),
            f.follower.state().full_rehash_commitment());
  EXPECT_EQ(f.follower.validation_stats().sealed_commits, 0u);
}

TEST(FollowerRollback, ForgedRootOnTheFirstBlockKeepsTheGenesis) {
  RollbackFixture f;
  const ChainImage before = f.image();
  // A stale root (the pre-state's own) on a block that creates an account,
  // a store and the first audit record: the rollback must un-create them.
  const Block forged =
      f.forge(f.busy_txs(10), f.follower.state().commitment().root);
  const Status s = f.follower.append(forged);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "block.bad_state_root");
  EXPECT_EQ(f.follower.state().find_balance(f.carol.address()), std::nullopt);
  EXPECT_EQ(f.follower.state().find_store("note"), nullptr);
  EXPECT_TRUE(f.follower.state().audit_log().empty());
  EXPECT_EQ(f.follower.state().commitment(), before.state.commitment());
  EXPECT_EQ(f.follower.state().balances(), before.state.balances());
  EXPECT_EQ(f.follower.state().nonces(), before.state.nonces());
  EXPECT_EQ(f.follower.height(), 0);
  EXPECT_EQ(f.hook_calls, 0u);
  ASSERT_TRUE(f.advance(10));
  EXPECT_EQ(f.follower.state().commitment(), f.source.state().commitment());
}

TEST(FollowerRollback, FailingTxMidBlockLeavesStateUntouched) {
  RollbackFixture f;
  for (std::uint64_t b = 0; b < 2; ++b) ASSERT_TRUE(f.advance(10 + b));
  const ChainImage before = f.image();

  // A valid transfer, then a contract call that writes and fails, then a
  // transfer that would be valid: the block fails at tx 1 whatever its root.
  std::vector<Transaction> txs = f.busy_txs(30);
  const std::uint64_t b = f.follower.state().nonce(f.bob.address());
  txs[1] = make_contract_call(f.bob, b, "note", "fail", Bytes{'z'}, 2, f.rng);
  const Block forged = f.forge(txs, f.follower.state().commitment().root);
  const std::uint64_t applies = f.follower.validation_stats().applies;
  const Status s = f.follower.append(forged);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "block.bad_tx");
  EXPECT_EQ(f.follower.validation_stats().applies, applies + 1);
  f.expect_untouched(before);
  EXPECT_EQ(f.follower.state().store_get("note", "z"), nullptr);

  ASSERT_TRUE(f.advance(31));
  EXPECT_EQ(f.follower.state().commitment(), f.source.state().commitment());
  EXPECT_EQ(f.hook_calls, before.hook_calls + 1);
}

}  // namespace
}  // namespace mv::ledger

namespace mv::scenario {
namespace {

const char* kTraceDir = MV_TRACE_DIR;

/// Candidates that fail in assembly, one kind per slot: a nonce gap on a
/// funded avatar, a call to a contract that does not exist, and a transfer
/// from an account that cannot pay its fee.
std::vector<ledger::Transaction> failing_candidates(const ScenarioEnv& env,
                                                    const ledger::LedgerState& state,
                                                    std::size_t n, Rng& rng) {
  std::vector<ledger::Transaction> txs;
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::Wallet& avatar = env.avatars[(i * 7) % env.avatars.size()];
    const crypto::Wallet pauper(rng);
    switch (i % 3) {
      case 0:
        txs.push_back(ledger::make_transfer(avatar,
                                            state.nonce(avatar.address()) + 1000,
                                            pauper.address(), 1, 1, rng));
        break;
      case 1:
        txs.push_back(ledger::make_contract_call(pauper, 0, "no_such_contract",
                                                 "call", Bytes{1}, 1, rng));
        break;
      default:
        txs.push_back(ledger::make_transfer(pauper, 0, avatar.address(), 1, 5, rng));
        break;
    }
  }
  return txs;
}

/// Spread `extra` through `selected`, one after every few valid ones.
std::vector<ledger::Transaction> interleave(const std::vector<ledger::Transaction>& selected,
                                            const std::vector<ledger::Transaction>& extra) {
  std::vector<ledger::Transaction> out;
  const std::size_t stride = selected.size() / (extra.size() + 1) + 1;
  std::size_t e = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i % stride == 0 && e < extra.size()) out.push_back(extra[e++]);
    out.push_back(selected[i]);
  }
  while (e < extra.size()) out.push_back(extra[e++]);
  return out;
}

struct DiffOptions {
  std::size_t queue_workers = 0;
  /// Failing candidates added per round: [0] on even rounds, [1] on odd.
  std::size_t failing[2] = {0, 0};
};

/// Drive `trace` through a proposer (mempool -> assemble -> sealed append)
/// and hand every committed block to a follower that never assembles.
void proposer_follower_differential(const Trace& trace, const DiffOptions& o) {
  auto env_r = build_env(trace.header);
  ASSERT_TRUE(env_r.ok()) << env_r.error().to_string();
  const ScenarioEnv& env = env_r.value();

  auto sig_cache = std::make_shared<crypto::DigestLruSet>();
  ledger::ChainConfig pc;
  pc.validators = env.validator_keys();
  pc.max_txs_per_block = trace.header.max_txs_per_block;
  pc.validation.sig_cache = sig_cache;
  JobQueueConfig qc;
  qc.threads = o.queue_workers;
  pc.validation.job_queue = std::make_shared<JobQueue>(qc);
  ledger::Blockchain proposer(pc, env.contracts, env.genesis);

  ledger::ChainConfig fc;
  fc.validators = pc.validators;
  fc.max_txs_per_block = pc.max_txs_per_block;
  ledger::Blockchain follower(fc, env.contracts, env.genesis);

  ledger::MempoolConfig mc;
  mc.sig_cache = sig_cache;
  ledger::Mempool pool(mc);
  Rng exec_rng(trace.header.seed ^ 0x5ea1edULL);
  Rng junk_rng(trace.header.seed ^ 0xbadULL);

  for (std::size_t r = 0; r < trace.rounds.size(); ++r) {
    for (const auto& tx : trace.rounds[r].txs) {
      ASSERT_TRUE(pool.add(tx, proposer.state(), static_cast<Tick>(r)).ok());
    }
    const auto selected = pool.select(pc.max_txs_per_block, proposer.state());
    const auto candidates = interleave(
        selected, failing_candidates(env, proposer.state(), o.failing[r % 2],
                                     junk_rng));
    const auto& wallet = env.validators[r % env.validators.size()];
    const ledger::Block block =
        proposer.assemble(wallet, candidates, static_cast<Tick>(r), exec_rng);
    ASSERT_EQ(block.txs.size(), trace.rounds[r].txs.size()) << "round " << r;
    ASSERT_TRUE(proposer.append(block).ok()) << "round " << r;
    pool.remove_included(block.txs);
    const Status followed = follower.append(block);
    ASSERT_TRUE(followed.ok()) << "round " << r << ": " << followed.error().to_string();

    const auto h = static_cast<std::int64_t>(r);
    const auto* pcm = proposer.commitment_at(h);
    const auto* fcm = follower.commitment_at(h);
    ASSERT_NE(pcm, nullptr);
    ASSERT_NE(fcm, nullptr);
    ASSERT_TRUE(*pcm == *fcm) << "proposer and follower diverged at height " << h;
    ASSERT_EQ(pcm->root, trace.rounds[r].commitment_root) << "round " << r;
  }
  EXPECT_EQ(proposer.state().full_rehash_root(), follower.state().full_rehash_root());
  EXPECT_EQ(proposer.validation_stats().sealed_commits, trace.rounds.size());
  EXPECT_EQ(follower.validation_stats().sealed_commits, 0u);
}

Trace golden(const char* name) {
  auto trace = load_trace(std::string(kTraceDir) + "/" + name);
  EXPECT_TRUE(trace.ok()) << (trace.ok() ? "" : trace.error().to_string());
  return std::move(trace).value();
}

TEST(ScenarioSealed, MarketRushProposerMatchesFollower) {
  proposer_follower_differential(golden("market_rush_1k.trace"), {});
}

TEST(ScenarioSealed, GovernanceWaveProposerMatchesFollower) {
  DiffOptions o;
  o.queue_workers = 2;  // a threaded queue on the proposer
  proposer_follower_differential(golden("governance_wave_1k.trace"), o);
}

TEST(ScenarioSealed, MixedCityWithFailingCandidatesMatchesFollower) {
  ScenarioConfig config;
  config.mix = "mixed_city";
  config.seed = 13;
  config.avatars = 200;
  config.rounds = 12;
  config.txs_per_round = 80;
  config.max_txs_per_block = 128;
  auto rec = record(config);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  // Even rounds stay under the block cap (apply_block path); odd rounds
  // overflow it (the serial first-max-successes loop).
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("queue workers " + std::to_string(workers));
    DiffOptions o;
    o.queue_workers = workers;
    o.failing[0] = 16;
    o.failing[1] = 64;
    proposer_follower_differential(rec.value().trace, o);
  }
}

TEST(ScenarioSealed, FourShardLedgerMatchesFollowers) {
  constexpr std::size_t kShards = 4;
  constexpr int kRounds = 6;
  Rng rng(0x5a4d);
  crypto::Wallet proposer(rng);
  std::vector<crypto::Wallet> wallets;
  std::map<crypto::Address, std::size_t> index_of;
  ledger::LedgerState genesis;
  for (int i = 0; i < 24; ++i) {
    wallets.emplace_back(rng);
    index_of[wallets.back().address()] = wallets.size() - 1;
    genesis.credit(wallets.back().address(), 100'000);
  }

  ledger::ShardConfig config;
  config.num_shards = kShards;
  config.validators = {proposer.public_key()};
  config.validation.sig_cache = std::make_shared<crypto::DigestLruSet>();
  JobQueueConfig qc;
  qc.threads = 2;
  config.validation.job_queue = std::make_shared<JobQueue>(qc);
  ledger::ShardedLedger ledger(config, genesis);

  // One follower per shard: same genesis slice and contracts (the shard's
  // registry, borrowed), no queue, no sig cache, never assembles.
  auto slices = ledger::partition_genesis(genesis, kShards);
  std::vector<std::unique_ptr<ledger::Blockchain>> followers;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ledger::ChainConfig fc;
    fc.validators = config.validators;
    fc.max_txs_per_block = config.max_txs_per_block;
    const std::shared_ptr<const ledger::ContractRegistry> registry(
        std::shared_ptr<void>{}, &ledger.shard(s).contracts());
    followers.push_back(std::make_unique<ledger::Blockchain>(
        fc, registry, std::move(slices[s])));
  }

  Rng txrng(0x7e57);
  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  std::vector<std::uint64_t> receipts_seen(kShards, 0);
  std::size_t mints = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Mint every receipt the previous round locked.
    for (std::uint32_t s = 0; s < kShards; ++s) {
      for (; receipts_seen[s] < ledger.receipt_count(s); ++receipts_seen[s]) {
        auto bundle = ledger.prove_receipt(s, receipts_seen[s]);
        ASSERT_TRUE(bundle.ok()) << bundle.error().to_string();
        auto receipt = ledger::CrossShardReceipt::decode(bundle.value().receipt);
        ASSERT_TRUE(receipt.ok());
        const std::size_t to = index_of.at(receipt.value().to);
        ASSERT_TRUE(ledger
                        .submit(ledger::make_xshard_mint(wallets[to], nonces[to]++,
                                                         bundle.value(), 1, txrng))
                        .ok());
        ++mints;
      }
    }
    for (std::size_t i = 0; i < wallets.size(); ++i) {
      const std::size_t peer = (i + 1 + static_cast<std::size_t>(round)) % wallets.size();
      const auto dest = ledger::shard_of(wallets[peer].address(), kShards);
      if (i % 3 == 0 && dest != ledger::shard_of(wallets[i].address(), kShards)) {
        ASSERT_TRUE(ledger
                        .submit(ledger::make_xshard_lock(wallets[i], nonces[i]++, dest,
                                                         wallets[peer].address(),
                                                         50, 2, txrng))
                        .ok());
      } else {
        ASSERT_TRUE(ledger
                        .submit(ledger::make_transfer(wallets[i], nonces[i]++,
                                                      wallets[peer].address(), 7,
                                                      1, txrng))
                        .ok());
      }
    }
    const auto beacon = ledger.commit_round(proposer, round);
    ASSERT_TRUE(beacon.ok()) << beacon.error().to_string();
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const ledger::Block* block = ledger.shard(s).block_at(round);
      ASSERT_NE(block, nullptr);
      const Status followed = followers[s]->append(*block);
      ASSERT_TRUE(followed.ok()) << "shard " << s << " round " << round << ": "
                                 << followed.error().to_string();
      const auto* pcm = ledger.shard(s).commitment_at(round);
      const auto* fcm = followers[s]->commitment_at(round);
      ASSERT_NE(pcm, nullptr);
      ASSERT_NE(fcm, nullptr);
      ASSERT_TRUE(*pcm == *fcm) << "shard " << s << " diverged at height " << round;
      EXPECT_EQ(beacon.value().shards[s].state_root, fcm->root);
    }
  }
  EXPECT_GT(mints, 0u);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(ledger.state(s).full_rehash_root(), followers[s]->state().full_rehash_root());
    EXPECT_EQ(ledger.shard(s).validation_stats().sealed_commits,
              static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(followers[s]->validation_stats().sealed_commits, 0u);
  }
}

}  // namespace
}  // namespace mv::scenario
