// Seeded city-at-scale scenario generation: mixed metaverse workloads as
// real ledger traffic.
//
// The generator drives a population of avatars through the paper's abuse and
// governance surfaces — NFT mint/list/trade churn with injected scam
// *patterns* (wash-trade pairs, rug-pull listings), DAO proposal/ballot
// waves, moderation report storms, reputation updates, and privacy-pipeline
// audit records — and emits them as ordinary signed transactions, one batch
// per consensus round. The scams are deliberately protocol-valid: a wash
// trade is two colluding wallets cycling a token at escalating prices, a rug
// pull is a high-royalty mint batch listed high and abandoned once victims
// bite. The *ledger* cannot reject them; detecting the pattern is an
// analytics problem, which is exactly the paper's point — so the harness's
// job is to land them on-chain, attributed in GeneratorStats.
//
// Validity discipline (the determinism contract, DESIGN.md §12): every
// emitted transaction is constructed to succeed in the round it is
// submitted. Per-sender ordering is safe under the mempool's fee-first
// selection (nonce order is preserved within a sender), so the only hazard
// is a cross-sender dependency landing in the wrong order inside one block.
// The generator therefore (a) only targets cross-sender prerequisites
// (listings, proposals, open reports, memberships) that committed in an
// *earlier* round, and (b) serializes same-round access to any one token via
// a touched-set. Contract-assigned ids (token ids, proposal ids, report ids)
// are never predicted: after each round commits, the generator reconciles
// the id delta out of the committed store (`on_round_committed`). The
// harness turns the discipline into an invariant: a block that drops even
// one submitted transaction fails the run (trace.replay_diverged).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/wallet.h"
#include "dao/contract.h"
#include "ledger/shard.h"
#include "ledger/state.h"
#include "ledger/transaction.h"
#include "moderation/contract.h"
#include "reputation/contract.h"
#include "scenario/trace.h"

namespace mv::scenario {

/// Relative traffic-class weights for one named scenario. scam_share routes
/// that fraction of nft-class picks into the scam state machines instead of
/// organic market actions.
struct ScenarioMix {
  double transfer = 1.5;
  double nft = 2.0;
  double dao = 1.5;
  double moderation = 1.0;
  double reputation = 1.0;
  double audit = 1.0;
  double scam_share = 0.08;
};

/// The scenario catalog (DESIGN.md §12): named mixes the tests and
/// bench_e2e run by name. "multi_world:<n>" (MultiWorldGenerator) is the
/// one parameterized entry and is not listed here.
[[nodiscard]] ScenarioMix market_rush_mix();     ///< NFT churn + scam heavy
[[nodiscard]] ScenarioMix governance_wave_mix(); ///< DAO ballot waves
[[nodiscard]] ScenarioMix report_storm_mix();    ///< moderation storms
[[nodiscard]] ScenarioMix mixed_city_mix();      ///< everything at once
[[nodiscard]] Result<ScenarioMix> mix_by_name(const std::string& name);
[[nodiscard]] std::vector<std::string> mix_catalog();

struct ScenarioConfig {
  std::string mix = "mixed_city";  ///< a catalog mix or "multi_world:<n>"
  std::uint64_t seed = 1;
  std::uint64_t avatars = 1000;
  std::uint32_t validators = 4;
  std::uint64_t genesis_grant = 1'000'000;
  std::uint32_t max_txs_per_block = 256;
  std::uint32_t rounds = 50;
  /// Target submissions per round; clamped to max_txs_per_block so every
  /// round's traffic commits in its own block (see the validity discipline).
  std::uint32_t txs_per_round = 200;

  [[nodiscard]] TraceHeader header() const;
};

/// Everything derived from a TraceHeader: wallets (one Rng stream seeded
/// from the trace seed: validators, then the moderator, then avatars — the
/// derivation order is part of the trace format), the contract registry, and
/// the funded genesis state. Recording and replay both build environments
/// through this one function, which is why a trace needs to carry only the
/// header fields and not any key material.
struct ScenarioEnv {
  std::vector<crypto::Wallet> validators;
  std::optional<crypto::Wallet> moderator;  ///< set by build_env
  std::vector<crypto::Wallet> avatars;
  dao::DaoContractConfig dao;
  reputation::ReputationContractConfig reputation;
  moderation::ModerationContractConfig moderation;
  std::shared_ptr<ledger::ContractRegistry> contracts;
  ledger::LedgerState genesis;
  std::uint64_t total_supply = 0;  ///< grant * (avatars + 1): conservation RHS

  [[nodiscard]] std::vector<crypto::PublicKey> validator_keys() const;
};

[[nodiscard]] Result<ScenarioEnv> build_env(const TraceHeader& header);

/// Per-class emission counts; the scam counters attribute the injected
/// patterns (wash_trades counts completed wash buy legs, rug_pulls completed
/// exits) so tests can assert the abuse traffic actually landed.
struct GeneratorStats {
  std::uint64_t transfers = 0;
  std::uint64_t audits = 0;
  std::uint64_t mints = 0;
  std::uint64_t lists = 0;
  std::uint64_t buys = 0;
  std::uint64_t cancels = 0;
  std::uint64_t token_moves = 0;
  std::uint64_t joins = 0;
  std::uint64_t proposals = 0;
  std::uint64_t votes = 0;
  std::uint64_t finalizes = 0;
  std::uint64_t reports = 0;
  std::uint64_t resolves = 0;
  std::uint64_t ratings = 0;
  std::uint64_t scam_txs = 0;     ///< emitted by scam machines (subset of above)
  std::uint64_t wash_trades = 0;  ///< completed wash buy legs
  std::uint64_t rug_pulls = 0;    ///< completed rug-pull exits
  std::uint64_t cross_transfers = 0;  ///< multi_world lock -> mint pairs

  [[nodiscard]] std::uint64_t total() const;
};

class ScenarioGenerator {
 public:
  /// `env` must outlive the generator. The decision stream is forked from
  /// config.seed, so (seed, mix, population) fully determine every emission.
  ScenarioGenerator(const ScenarioConfig& config, const ScenarioMix& mix,
                    const ScenarioEnv& env);

  /// Emit the next round's transactions (all valid by construction; at most
  /// txs_per_round). Call on_round_committed() after the round's block
  /// commits and before the next next_round().
  [[nodiscard]] std::vector<ledger::Transaction> next_round();

  /// Reconcile contract-assigned ids and settle balances from the committed
  /// post-block state. A catalog mix runs on one shard, so shard 0 holds
  /// every account and store.
  void on_round_committed(const ledger::ShardedLedger& ledger);

  [[nodiscard]] const GeneratorStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t scam_avatars() const { return scam_count_; }

 private:
  struct AvatarModel {
    std::uint64_t balance = 0;     ///< committed funds
    std::uint64_t spent = 0;       ///< reserved by this round's emissions
    std::uint64_t next_nonce = 0;
    bool member = false;           ///< DAO membership (usable at emission)
    std::vector<std::uint64_t> owned;  ///< reconciled, unlisted tokens
  };
  struct TokenModel {
    std::size_t owner = 0;    ///< avatar index
    std::size_t creator = 0;
    std::uint32_t royalty_bps = 0;
    bool listed = false;
    std::uint64_t price = 0;
  };
  struct ProposalModel {
    std::int64_t created_height = 0;
    bool finalized = false;
    std::set<std::size_t> voted;  ///< avatar indices (none emits two ballots)
  };
  /// Wash-trade pair: two colluding avatars cycling one token at escalating
  /// prices. One state-machine step per round.
  struct WashPair {
    std::size_t a = 0, b = 0;
    std::uint64_t token = 0;
    bool has_token = false;
    bool a_holds = true;
    int phase = 0;  ///< 0 mint, 1 list (by holder), 2 buy (by the other)
    std::uint64_t price = 0;
    std::int64_t last_step_round = -1;
  };
  /// Rug pull: mint a high-royalty batch, list high, wait for victims, then
  /// cancel the leftovers and wire the proceeds to a sink wallet.
  struct RugOp {
    std::size_t scammer = 0;
    std::size_t sink = 0;
    std::vector<std::uint64_t> tokens;
    int minted = 0;
    int listed = 0;
    int phase = 0;  ///< 0 minting, 1 listing, 2 waiting, 3 exiting
    std::int64_t wait_started = 0;
    std::int64_t last_step_round = -1;
  };
  /// Routes a token minted this round back to the machine that minted it at
  /// reconcile time (one tagged mint per avatar per round).
  struct MintTag {
    bool wash = false;
    std::size_t machine = 0;
  };

  [[nodiscard]] std::uint64_t spendable(std::size_t avatar) const;
  [[nodiscard]] std::uint64_t next_fee();
  [[nodiscard]] std::size_t pick_organic();
  [[nodiscard]] bool token_free(std::uint64_t token) const;
  void touch_token(std::uint64_t token);
  void emit(ledger::Transaction tx);
  void charge(std::size_t avatar, std::uint64_t amount);

  // Organic emitters; each returns true when it emitted at least one tx.
  bool try_transfer();
  bool try_audit();
  bool try_nft();
  bool try_dao();
  bool try_moderation();
  bool try_reputation();
  bool try_scam();
  bool step_wash(WashPair& pair);
  bool step_rug(RugOp& op);

  void remove_listing(std::uint64_t token);
  void add_listing(std::uint64_t token, std::uint64_t price, bool organic);
  /// Model one purchase (organic or wash): ownership flip, listing removal,
  /// buyer reservation, deferred seller/creator credits.
  void settle_buy(std::size_t buyer, std::uint64_t token, std::uint64_t fee);

  const ScenarioMix mix_;
  const ScenarioEnv& env_;
  std::uint32_t txs_per_round_;
  Rng rng_;

  std::vector<AvatarModel> avatars_;
  /// Avatars with spent != 0 in the current round; on_round_committed
  /// settles exactly these instead of scanning every avatar.
  std::vector<std::size_t> dirty_spenders_;
  std::uint64_t mod_balance_ = 0;
  std::uint64_t mod_spent_ = 0;
  std::uint64_t mod_nonce_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;  ///< address -> idx

  std::vector<TokenModel> tokens_;
  std::vector<std::uint64_t> organic_listings_;  ///< ids buyable by anyone
  std::unordered_map<std::uint64_t, std::size_t> listing_pos_;

  std::vector<ProposalModel> proposals_;
  bool proposed_this_round_ = false;

  std::vector<std::uint64_t> open_reports_;  ///< committed, unresolved ids
  std::size_t resolve_head_ = 0;             ///< first unresolved slot
  std::uint64_t known_reports_ = 0;
  std::size_t finalize_cursor_ = 0;  ///< first maybe-unfinalized proposal

  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> last_rated_;

  std::size_t scam_count_ = 0;  ///< avatars [0, scam_count_) are scam agents
  std::vector<WashPair> wash_pairs_;
  std::vector<RugOp> rug_ops_;
  std::unordered_map<std::size_t, MintTag> mint_tags_;  ///< avatar -> machine

  std::set<std::uint64_t> touched_tokens_;  ///< per-round serialization
  std::vector<std::pair<std::size_t, std::uint64_t>> pending_credits_;
  std::vector<ledger::Transaction> round_txs_;
  std::int64_t height_ = 0;  ///< height of the round being emitted
  GeneratorStats stats_;
};

/// The "multi_world:<n>" traffic source, driven through the same
/// next_round() / on_round_committed() pair as ScenarioGenerator on an
/// n-shard ShardedLedger. Each round splits txs_per_round 2:1 between
/// transfers inside one world and cross-world locks; the mints for round
/// r's locks (receipt bytes plus a proof against the round-r beacon) lead
/// round r+1. Every sender sends one tx per round, except a recipient
/// minting several receipts, whose nonces the mempool orders.
class MultiWorldGenerator {
 public:
  /// `env` must outlive the generator; every decision derives from
  /// config.seed.
  MultiWorldGenerator(const ScenarioConfig& config, std::size_t num_shards,
                      const ScenarioEnv& env);

  [[nodiscard]] std::vector<ledger::Transaction> next_round();
  /// Queue a mint for every receipt the round's beacon now covers.
  void on_round_committed(const ledger::ShardedLedger& ledger);

  [[nodiscard]] const GeneratorStats& stats() const { return stats_; }

 private:
  const ScenarioEnv& env_;
  std::uint32_t cross_;  ///< locks per round
  std::uint32_t intra_;  ///< same-world transfers per round
  Rng mix_;
  Rng sig_;
  std::vector<std::uint32_t> home_;  ///< avatar -> shard
  std::vector<std::vector<std::size_t>> by_shard_;
  std::vector<std::uint32_t> pair_shards_;  ///< worlds with >= 2 avatars
  std::unordered_map<std::uint64_t, std::size_t> index_of_;  ///< address -> idx
  std::vector<std::uint64_t> nonces_;
  std::vector<std::uint64_t> proven_;  ///< per shard: receipts already minted
  std::vector<ledger::Transaction> mints_;
  std::vector<std::size_t> minters_;
  GeneratorStats stats_;
};

}  // namespace mv::scenario
