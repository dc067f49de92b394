#include "scenario/scenario.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_set>

#include "nft/contract.h"

namespace mv::scenario {

namespace {

/// Salt for the environment wallet stream ("mv.env.v1"-ish constant). Part
/// of the trace format: changing it orphans every recorded trace.
constexpr std::uint64_t kEnvSalt = 0x6d762e656e762e31ULL;
/// Salt for the generator decision stream.
constexpr std::uint64_t kGenSalt = 0x6d762e67656e2e31ULL;

/// Salts for the multi-world decision and signing streams.
constexpr std::uint64_t kWorldMixSalt = 0x6d772e6d69782e31ULL;  // "mw.mix.1"
constexpr std::uint64_t kWorldSigSalt = 0x6d772e7369672e31ULL;  // "mw.sig.1"

constexpr const char* kNftName = "nft";

constexpr std::uint64_t kWashBasePrice = 5'000;
constexpr std::uint64_t kWashMaxPrice = 40'000;
constexpr int kRugBatch = 4;            ///< tokens per rug-pull cycle
constexpr int kRugMinVictims = 2;       ///< sales that trigger the exit
constexpr std::int64_t kRugPatience = 8;  ///< rounds before exiting anyway

const char* kCategories[] = {"gaze", "spatial_map", "mic", "heart_rate"};
const char* kPurposes[] = {"render", "ads", "analytics"};
const char* kPets[] = {"laplace(eps=1.0)", "k-anon(5)", "none"};

/// Memoized prefix of one env wallet stream. Wallet derivation (a keypair
/// per avatar) dominates build_env for large casts, and every record/replay
/// pair — plus every determinism test sweeping thread counts over the same
/// seed — re-derives the identical stream. The memo keeps the stream's Rng
/// so a later call needing a longer prefix extends it instead of starting
/// over; the derivation order (and thus every byte of every trace) is
/// unchanged.
struct WalletStream {
  Rng rng{0};
  std::vector<crypto::Wallet> wallets;
};

std::vector<crypto::Wallet> derive_env_wallets(std::uint64_t stream_seed,
                                               std::size_t count) {
  static std::mutex mu;
  static std::map<std::uint64_t, WalletStream> streams;
  std::lock_guard<std::mutex> lock(mu);
  // Distinct seeds are rare (a handful per test binary / bench run); drop
  // the whole memo rather than track recency if a run somehow churns seeds.
  if (streams.size() > 64 && !streams.contains(stream_seed)) streams.clear();
  auto [it, inserted] = streams.try_emplace(stream_seed);
  WalletStream& s = it->second;
  if (inserted) s.rng = Rng(stream_seed);
  s.wallets.reserve(count);
  while (s.wallets.size() < count) s.wallets.emplace_back(s.rng);
  return {s.wallets.begin(),
          s.wallets.begin() + static_cast<std::ptrdiff_t>(count)};
}

/// Up to 4n draws from [0, n) until `accept` takes one; nullopt if none did.
template <typename Accept>
std::optional<std::size_t> draw(Rng& rng, std::size_t n, Accept accept) {
  for (std::size_t attempt = 0; attempt < 4 * n; ++attempt) {
    const std::size_t i = rng.next_below(n);
    if (accept(i)) return i;
  }
  return std::nullopt;
}

}  // namespace

ScenarioMix market_rush_mix() {
  return ScenarioMix{1.0, 6.0, 0.3, 0.5, 0.7, 0.5, 0.18};
}
ScenarioMix governance_wave_mix() {
  return ScenarioMix{0.5, 0.5, 6.0, 0.3, 0.7, 0.5, 0.03};
}
ScenarioMix report_storm_mix() {
  return ScenarioMix{0.5, 0.8, 0.4, 6.0, 1.0, 1.0, 0.10};
}
ScenarioMix mixed_city_mix() { return ScenarioMix{}; }

Result<ScenarioMix> mix_by_name(const std::string& name) {
  if (name == "market_rush") return market_rush_mix();
  if (name == "governance_wave") return governance_wave_mix();
  if (name == "report_storm") return report_storm_mix();
  if (name == "mixed_city") return mixed_city_mix();
  return make_error(errc::kTraceBadMagic, "unknown scenario mix: " + name);
}

std::vector<std::string> mix_catalog() {
  return {"market_rush", "governance_wave", "report_storm", "mixed_city"};
}

TraceHeader ScenarioConfig::header() const {
  TraceHeader h;
  h.scenario = mix;
  h.seed = seed;
  h.avatars = avatars;
  h.validators = validators;
  h.genesis_grant = genesis_grant;
  h.max_txs_per_block = max_txs_per_block;
  return h;
}

std::vector<crypto::PublicKey> ScenarioEnv::validator_keys() const {
  std::vector<crypto::PublicKey> keys;
  keys.reserve(validators.size());
  for (const auto& w : validators) keys.push_back(w.public_key());
  return keys;
}

Result<ScenarioEnv> build_env(const TraceHeader& header) {
  if (header.avatars < 8 || header.avatars > (1ull << 22)) {
    return make_error(errc::kTraceBadCount, "avatars out of [8, 2^22]");
  }
  if (header.validators == 0 || header.validators > 64) {
    return make_error(errc::kTraceBadCount, "validators out of [1, 64]");
  }
  if (header.max_txs_per_block == 0) {
    return make_error(errc::kTraceBadCount, "max_txs_per_block == 0");
  }
  if (header.genesis_grant < 1'000) {
    return make_error(errc::kTraceBadCount, "genesis_grant below 1000");
  }
  ScenarioEnv env;
  // One wallet stream, fixed derivation order — part of the trace format.
  // The stream is memoized per seed: validators, then the moderator, then
  // the avatars, exactly as the historical inline derivation laid them out.
  auto wallets = derive_env_wallets(header.seed ^ kEnvSalt,
                                    header.validators + 1 + header.avatars);
  auto next = wallets.begin();
  env.validators.reserve(header.validators);
  for (std::uint32_t i = 0; i < header.validators; ++i) {
    env.validators.push_back(*next++);
  }
  env.moderator.emplace(*next++);
  env.avatars.assign(next, wallets.end());
  env.moderation.moderator = env.moderator->address();

  auto contracts = std::make_shared<ledger::ContractRegistry>();
  contracts->install(std::make_shared<nft::NftContract>());
  contracts->install(std::make_shared<dao::DaoContract>(env.dao));
  contracts->install(std::make_shared<reputation::ReputationContract>(env.reputation));
  contracts->install(std::make_shared<moderation::ModerationContract>(env.moderation));
  env.contracts = std::move(contracts);

  env.genesis.credit(env.moderator->address(), header.genesis_grant);
  for (const auto& w : env.avatars) {
    env.genesis.credit(w.address(), header.genesis_grant);
  }
  env.total_supply = header.genesis_grant * (header.avatars + 1);
  return env;
}

std::uint64_t GeneratorStats::total() const {
  return transfers + audits + mints + lists + buys + cancels + token_moves +
         joins + proposals + votes + finalizes + reports + resolves + ratings;
}

ScenarioGenerator::ScenarioGenerator(const ScenarioConfig& config,
                                     const ScenarioMix& mix,
                                     const ScenarioEnv& env)
    : mix_(mix),
      env_(env),
      txs_per_round_(std::min(config.txs_per_round, config.max_txs_per_block)),
      rng_(config.seed ^ kGenSalt) {
  const std::size_t n = env_.avatars.size();
  avatars_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    avatars_[i].balance = config.genesis_grant;
    index_of_[env_.avatars[i].address().value] = i;
  }
  mod_balance_ = config.genesis_grant;

  // Scam population: a small dedicated prefix of the avatar set, split into
  // wash-trade pairs and rug-pull operators. Organic picks skip them, so
  // every scam wallet's on-chain footprint is purely its pattern.
  if (mix_.scam_share > 0.0 && n >= 32) {
    scam_count_ = std::clamp<std::size_t>(n / 50, 4, 512) & ~std::size_t{1};
    const std::size_t wash_avatars = (scam_count_ / 2) & ~std::size_t{1};
    for (std::size_t i = 0; i + 1 < wash_avatars; i += 2) {
      WashPair pair;
      pair.a = i;
      pair.b = i + 1;
      wash_pairs_.push_back(pair);
    }
    for (std::size_t i = wash_avatars; i < scam_count_; ++i) {
      RugOp op;
      op.scammer = i;
      op.sink = (i + 1) % scam_count_;
      rug_ops_.push_back(op);
    }
  }
}

std::uint64_t ScenarioGenerator::spendable(std::size_t avatar) const {
  const auto& a = avatars_[avatar];
  return a.balance > a.spent ? a.balance - a.spent : 0;
}

std::uint64_t ScenarioGenerator::next_fee() { return 1 + rng_.next_below(8); }

std::size_t ScenarioGenerator::pick_organic() {
  return scam_count_ + rng_.next_below(avatars_.size() - scam_count_);
}

bool ScenarioGenerator::token_free(std::uint64_t token) const {
  return touched_tokens_.count(token) == 0;
}

void ScenarioGenerator::touch_token(std::uint64_t token) {
  touched_tokens_.insert(token);
}

void ScenarioGenerator::emit(ledger::Transaction tx) {
  round_txs_.push_back(std::move(tx));
}

void ScenarioGenerator::charge(std::size_t avatar, std::uint64_t amount) {
  AvatarModel& a = avatars_[avatar];
  // First reservation this round: remember the avatar so settling scans the
  // handful of spenders, not the whole population (`spent == 0` makes the
  // list duplicate-free until on_round_committed resets it).
  if (a.spent == 0 && amount > 0) dirty_spenders_.push_back(avatar);
  a.spent += amount;
}

void ScenarioGenerator::remove_listing(std::uint64_t token) {
  const auto it = listing_pos_.find(token);
  if (it == listing_pos_.end()) return;  // machine-private (wash) listing
  const std::size_t pos = it->second;
  const std::uint64_t last = organic_listings_.back();
  organic_listings_[pos] = last;
  listing_pos_[last] = pos;
  organic_listings_.pop_back();
  listing_pos_.erase(it);
}

void ScenarioGenerator::add_listing(std::uint64_t token, std::uint64_t price,
                                    bool organic) {
  tokens_[token].listed = true;
  tokens_[token].price = price;
  if (organic) {
    listing_pos_[token] = organic_listings_.size();
    organic_listings_.push_back(token);
  }
}

void ScenarioGenerator::settle_buy(std::size_t buyer, std::uint64_t token,
                                   std::uint64_t fee) {
  TokenModel& t = tokens_[token];
  const std::uint64_t price = t.price;
  const std::uint64_t royalty = price * t.royalty_bps / 10'000;
  pending_credits_.emplace_back(t.owner, price - royalty);
  if (royalty > 0) pending_credits_.emplace_back(t.creator, royalty);
  charge(buyer, price + fee);
  remove_listing(token);
  t.owner = buyer;
  t.listed = false;
  t.price = 0;
  touch_token(token);
}

std::vector<ledger::Transaction> ScenarioGenerator::next_round() {
  round_txs_.clear();
  touched_tokens_.clear();
  proposed_this_round_ = false;

  const double total_w = mix_.transfer + mix_.nft + mix_.dao +
                         mix_.moderation + mix_.reputation + mix_.audit;
  const std::size_t target = txs_per_round_;
  const std::size_t max_attempts = target * 10 + 100;
  for (std::size_t attempts = 0;
       round_txs_.size() < target && attempts < max_attempts && total_w > 0;
       ++attempts) {
    double x = rng_.uniform() * total_w;
    if ((x -= mix_.transfer) < 0) {
      (void)try_transfer();
    } else if ((x -= mix_.nft) < 0) {
      if (scam_count_ > 0 && rng_.chance(mix_.scam_share)) {
        (void)try_scam();
      } else {
        (void)try_nft();
      }
    } else if ((x -= mix_.dao) < 0) {
      (void)try_dao();
    } else if ((x -= mix_.moderation) < 0) {
      (void)try_moderation();
    } else if ((x -= mix_.reputation) < 0) {
      (void)try_reputation();
    } else {
      (void)try_audit();
    }
  }
  // Audit records have no preconditions beyond the fee — top the round up so
  // degenerate mixes still produce full blocks.
  while (round_txs_.size() < target) {
    if (!try_audit()) break;
  }

  std::vector<ledger::Transaction> out = std::move(round_txs_);
  round_txs_.clear();
  return out;
}

bool ScenarioGenerator::try_transfer() {
  const std::size_t a = pick_organic();
  const std::uint64_t fee = next_fee();
  const std::uint64_t amount = 1 + rng_.next_below(200);
  if (spendable(a) < amount + fee) return false;
  std::size_t to = rng_.next_below(avatars_.size());
  if (to == a) to = (to + 1) % avatars_.size();
  AvatarModel& sender = avatars_[a];
  emit(ledger::make_transfer(env_.avatars[a], sender.next_nonce++,
                             env_.avatars[to].address(), amount, fee, rng_));
  charge(a, amount + fee);
  pending_credits_.emplace_back(to, amount);
  ++stats_.transfers;
  return true;
}

bool ScenarioGenerator::try_audit() {
  const std::size_t a = pick_organic();
  const std::uint64_t fee = next_fee();
  if (spendable(a) < fee) return false;
  ledger::AuditRecordBody body;
  body.data_category = kCategories[rng_.next_below(4)];
  body.purpose = kPurposes[rng_.next_below(3)];
  body.subject = env_.avatars[a].address().value;
  body.pet_applied = kPets[rng_.next_below(3)];
  emit(ledger::make_audit_record(env_.avatars[a], avatars_[a].next_nonce++,
                                 std::move(body), fee, rng_));
  charge(a, fee);
  ++stats_.audits;
  return true;
}

bool ScenarioGenerator::try_nft() {
  const std::size_t a = pick_organic();
  const std::uint64_t fee = next_fee();
  const double roll = rng_.uniform();
  if (roll < 0.35) {  // mint
    if (spendable(a) < fee) return false;
    const std::uint32_t royalty = static_cast<std::uint32_t>(rng_.next_below(1001));
    const std::string uri = "asset/" + std::to_string(rng_.next_u64() & 0xffffff);
    emit(ledger::make_contract_call(env_.avatars[a], avatars_[a].next_nonce++,
                                    kNftName, "mint",
                                    nft::NftContract::encode_mint(uri, royalty),
                                    fee, rng_));
    charge(a, fee);
    ++stats_.mints;
    return true;
  }
  if (roll < 0.60) {  // list an owned token
    auto& owned = avatars_[a].owned;
    if (owned.empty() || spendable(a) < fee) return false;
    const std::size_t k = rng_.next_below(owned.size());
    const std::uint64_t token = owned[k];
    if (!token_free(token)) return false;
    const std::uint64_t price = 50 + rng_.next_below(451);
    emit(ledger::make_contract_call(env_.avatars[a], avatars_[a].next_nonce++,
                                    kNftName, "list",
                                    nft::NftContract::encode_list(token, price),
                                    fee, rng_));
    charge(a, fee);
    owned[k] = owned.back();
    owned.pop_back();
    add_listing(token, price, /*organic=*/true);
    touch_token(token);
    ++stats_.lists;
    return true;
  }
  if (roll < 0.85) {  // buy a committed listing
    if (organic_listings_.empty()) return false;
    const std::uint64_t token =
        organic_listings_[rng_.next_below(organic_listings_.size())];
    if (!token_free(token)) return false;
    const TokenModel& t = tokens_[token];
    if (t.owner == a) return false;
    if (spendable(a) < t.price + fee) return false;
    emit(ledger::make_contract_call(env_.avatars[a], avatars_[a].next_nonce++,
                                    kNftName, "buy",
                                    nft::NftContract::encode_token(token), fee,
                                    rng_));
    settle_buy(a, token, fee);
    avatars_[a].owned.push_back(token);
    ++stats_.buys;
    return true;
  }
  if (roll < 0.95) {  // gift/move a token
    auto& owned = avatars_[a].owned;
    if (owned.empty() || spendable(a) < fee) return false;
    const std::size_t k = rng_.next_below(owned.size());
    const std::uint64_t token = owned[k];
    if (!token_free(token)) return false;
    const std::size_t to = pick_organic();
    if (to == a) return false;
    emit(ledger::make_contract_call(
        env_.avatars[a], avatars_[a].next_nonce++, kNftName, "transfer",
        nft::NftContract::encode_transfer(token, env_.avatars[to].address()),
        fee, rng_));
    charge(a, fee);
    owned[k] = owned.back();
    owned.pop_back();
    avatars_[to].owned.push_back(token);
    tokens_[token].owner = to;
    touch_token(token);
    ++stats_.token_moves;
    return true;
  }
  // cancel: act as the owner of a random organic listing
  if (organic_listings_.empty()) return false;
  const std::uint64_t token =
      organic_listings_[rng_.next_below(organic_listings_.size())];
  if (!token_free(token)) return false;
  const std::size_t owner = tokens_[token].owner;
  if (owner < scam_count_) return false;  // rug listings exit via the machine
  if (spendable(owner) < fee) return false;
  emit(ledger::make_contract_call(env_.avatars[owner],
                                  avatars_[owner].next_nonce++, kNftName,
                                  "cancel", nft::NftContract::encode_token(token),
                                  fee, rng_));
  charge(owner, fee);
  remove_listing(token);
  tokens_[token].listed = false;
  tokens_[token].price = 0;
  avatars_[owner].owned.push_back(token);
  touch_token(token);
  ++stats_.cancels;
  return true;
}

bool ScenarioGenerator::try_dao() {
  const std::size_t a = pick_organic();
  const std::uint64_t fee = next_fee();
  if (spendable(a) < fee) return false;
  AvatarModel& m = avatars_[a];
  if (!m.member) {
    emit(ledger::make_contract_call(env_.avatars[a], m.next_nonce++,
                                    env_.dao.name, "join", Bytes{}, fee, rng_));
    charge(a, fee);
    m.member = true;  // same-sender: join orders before any later tx of a
    ++stats_.joins;
    return true;
  }
  const std::int64_t period = env_.dao.voting_period_blocks;
  const bool want_propose = !proposed_this_round_ && rng_.chance(0.1);
  if (!want_propose) {
    // Vote on an open proposal committed in an earlier round.
    const std::size_t window_start =
        proposals_.size() > static_cast<std::size_t>(period)
            ? proposals_.size() - static_cast<std::size_t>(period)
            : 0;
    for (std::size_t id = proposals_.size(); id-- > window_start;) {
      ProposalModel& p = proposals_[id];
      if (p.created_height >= height_) continue;       // committed this round
      if (height_ >= p.created_height + period) continue;  // window closed
      if (p.voted.count(a) != 0) continue;
      const double r = rng_.uniform();
      const std::uint8_t choice = r < 0.5 ? 0 : (r < 0.8 ? 1 : 2);
      emit(ledger::make_contract_call(env_.avatars[a], m.next_nonce++,
                                      env_.dao.name, "vote",
                                      dao::DaoContract::encode_vote(id, choice),
                                      fee, rng_));
      charge(a, fee);
      p.voted.insert(a);
      ++stats_.votes;
      return true;
    }
  }
  if (!proposed_this_round_) {
    // One proposal per round keeps id assignment trivially deterministic
    // *and* matches the reconciled count; many ballots per proposal is the
    // shape governance waves take anyway.
    const std::string title = "prop-" + std::to_string(proposals_.size());
    emit(ledger::make_contract_call(env_.avatars[a], m.next_nonce++,
                                    env_.dao.name, "propose",
                                    dao::DaoContract::encode_propose(title),
                                    fee, rng_));
    charge(a, fee);
    ProposalModel p;
    p.created_height = height_;
    proposals_.push_back(std::move(p));
    proposed_this_round_ = true;
    ++stats_.proposals;
    return true;
  }
  // Finalize the oldest proposal whose window has closed.
  while (finalize_cursor_ < proposals_.size() &&
         proposals_[finalize_cursor_].finalized) {
    ++finalize_cursor_;
  }
  if (finalize_cursor_ < proposals_.size()) {
    ProposalModel& p = proposals_[finalize_cursor_];
    if (!p.finalized && height_ >= p.created_height + period &&
        p.created_height < height_) {
      emit(ledger::make_contract_call(
          env_.avatars[a], m.next_nonce++, env_.dao.name, "finalize",
          dao::DaoContract::encode_finalize(finalize_cursor_), fee, rng_));
      charge(a, fee);
      p.finalized = true;
      ++stats_.finalizes;
      return true;
    }
  }
  return false;
}

bool ScenarioGenerator::try_moderation() {
  if (resolve_head_ < open_reports_.size() && rng_.chance(0.35)) {
    const std::uint64_t fee = next_fee();
    if (mod_balance_ - mod_spent_ < fee) return false;
    const std::uint64_t id = open_reports_[resolve_head_++];
    const bool uphold = rng_.chance(0.6);
    emit(ledger::make_contract_call(
        *env_.moderator, mod_nonce_++, env_.moderation.name, "resolve",
        moderation::ModerationContract::encode_resolve(id, uphold), fee, rng_));
    mod_spent_ += fee;
    ++stats_.resolves;
    return true;
  }
  const std::size_t reporter = pick_organic();
  const std::uint64_t fee = next_fee();
  if (spendable(reporter) < fee) return false;
  std::size_t offender;
  if (scam_count_ > 0 && rng_.chance(0.4)) {
    offender = rng_.next_below(scam_count_);  // the city suspects its scammers
  } else {
    offender = rng_.next_below(avatars_.size());
    if (offender == reporter) offender = (offender + 1) % avatars_.size();
  }
  const std::uint8_t kind = static_cast<std::uint8_t>(rng_.next_below(4));
  const std::string detail = "case-" + std::to_string(stats_.reports);
  emit(ledger::make_contract_call(
      env_.avatars[reporter], avatars_[reporter].next_nonce++,
      env_.moderation.name, "report",
      moderation::ModerationContract::encode_report(
          env_.avatars[offender].address(), kind, detail),
      fee, rng_));
  charge(reporter, fee);
  ++stats_.reports;
  return true;
}

bool ScenarioGenerator::try_reputation() {
  const std::size_t rater = pick_organic();
  const std::uint64_t fee = next_fee();
  if (spendable(rater) < fee) return false;
  std::size_t subject = rng_.next_below(avatars_.size());
  if (subject == rater) subject = (subject + 1) % avatars_.size();
  const auto key = std::make_pair(rater, subject);
  const auto it = last_rated_.find(key);
  if (it != last_rated_.end() &&
      height_ - it->second < env_.reputation.cooldown_blocks) {
    return false;
  }
  std::int64_t delta =
      1 + static_cast<std::int64_t>(
              rng_.next_below(static_cast<std::uint64_t>(env_.reputation.max_abs_delta)));
  if (rng_.chance(0.4)) delta = -delta;
  emit(ledger::make_contract_call(
      env_.avatars[rater], avatars_[rater].next_nonce++, env_.reputation.name,
      "rate",
      reputation::ReputationContract::encode_rate(
          env_.avatars[subject].address(), delta),
      fee, rng_));
  charge(rater, fee);
  last_rated_[key] = height_;
  ++stats_.ratings;
  return true;
}

bool ScenarioGenerator::try_scam() {
  const std::size_t machines = wash_pairs_.size() + rug_ops_.size();
  if (machines == 0) return false;
  const std::size_t pick = rng_.next_below(machines);
  if (pick < wash_pairs_.size()) return step_wash(wash_pairs_[pick]);
  return step_rug(rug_ops_[pick - wash_pairs_.size()]);
}

bool ScenarioGenerator::step_wash(WashPair& pair) {
  // One step per round: every leg of the cycle depends on the previous leg
  // having committed.
  if (pair.last_step_round == height_) return false;
  const std::size_t holder = pair.a_holds ? pair.a : pair.b;
  const std::size_t other = pair.a_holds ? pair.b : pair.a;
  const std::uint64_t fee = next_fee();
  switch (pair.phase) {
    case 0: {  // mint the wash vehicle (royalty 0: the pair keeps it all)
      if (mint_tags_.count(holder) != 0 || spendable(holder) < fee) return false;
      emit(ledger::make_contract_call(
          env_.avatars[holder], avatars_[holder].next_nonce++, kNftName, "mint",
          nft::NftContract::encode_mint("wash/" + std::to_string(pair.a), 0),
          fee, rng_));
      charge(holder, fee);
      mint_tags_[holder] = MintTag{true, static_cast<std::size_t>(&pair - wash_pairs_.data())};
      pair.phase = 1;  // has_token flips at reconcile
      pair.last_step_round = height_;
      ++stats_.mints;
      ++stats_.scam_txs;
      return true;
    }
    case 1: {  // holder lists at an escalated price
      if (!pair.has_token || !token_free(pair.token)) return false;
      if (spendable(holder) < fee) return false;
      pair.price = pair.price == 0 ? kWashBasePrice
                                   : std::min(pair.price * 3 / 2, kWashMaxPrice);
      if (pair.price == kWashMaxPrice) pair.price = kWashBasePrice;  // re-arm
      emit(ledger::make_contract_call(
          env_.avatars[holder], avatars_[holder].next_nonce++, kNftName, "list",
          nft::NftContract::encode_list(pair.token, pair.price), fee, rng_));
      charge(holder, fee);
      // Machine-private listing: never entered into organic_listings_, so no
      // bystander can buy the vehicle out of the cycle.
      add_listing(pair.token, pair.price, /*organic=*/false);
      touch_token(pair.token);
      pair.phase = 2;
      pair.last_step_round = height_;
      ++stats_.lists;
      ++stats_.scam_txs;
      return true;
    }
    default: {  // the partner buys it back: one wash leg complete
      if (!token_free(pair.token)) return false;
      if (spendable(other) < pair.price + fee) return false;
      emit(ledger::make_contract_call(
          env_.avatars[other], avatars_[other].next_nonce++, kNftName, "buy",
          nft::NftContract::encode_token(pair.token), fee, rng_));
      settle_buy(other, pair.token, fee);
      pair.a_holds = !pair.a_holds;
      pair.phase = 1;
      pair.last_step_round = height_;
      ++stats_.buys;
      ++stats_.scam_txs;
      ++stats_.wash_trades;
      return true;
    }
  }
}

bool ScenarioGenerator::step_rug(RugOp& op) {
  if (op.last_step_round == height_) return false;
  const std::size_t s = op.scammer;
  const std::uint64_t fee = next_fee();
  if (op.phase == 0) {
    if (op.minted < kRugBatch) {
      if (mint_tags_.count(s) != 0 || spendable(s) < fee) return false;
      // High royalty: even resales kick value back to the operator.
      emit(ledger::make_contract_call(
          env_.avatars[s], avatars_[s].next_nonce++, kNftName, "mint",
          nft::NftContract::encode_mint("rug/" + std::to_string(s), 4'500), fee,
          rng_));
      charge(s, fee);
      mint_tags_[s] = MintTag{false, static_cast<std::size_t>(&op - rug_ops_.data())};
      ++op.minted;
      op.last_step_round = height_;
      ++stats_.mints;
      ++stats_.scam_txs;
      return true;
    }
    if (op.tokens.size() < static_cast<std::size_t>(op.minted)) return false;
    op.phase = 1;
  }
  if (op.phase == 1) {
    for (const std::uint64_t t : op.tokens) {
      TokenModel& tok = tokens_[t];
      if (tok.owner != s || tok.listed || !token_free(t)) continue;
      if (spendable(s) < fee) return false;
      const std::uint64_t price = 2'000 + rng_.next_below(3'000);
      emit(ledger::make_contract_call(
          env_.avatars[s], avatars_[s].next_nonce++, kNftName, "list",
          nft::NftContract::encode_list(t, price), fee, rng_));
      charge(s, fee);
      add_listing(t, price, /*organic=*/true);  // bait: the city can buy these
      touch_token(t);
      ++op.listed;
      op.last_step_round = height_;
      ++stats_.lists;
      ++stats_.scam_txs;
      if (op.listed >= op.minted) {
        op.phase = 2;
        op.wait_started = height_;
      }
      return true;
    }
    return false;
  }
  if (op.phase == 2) {
    std::size_t sold = 0;
    for (const std::uint64_t t : op.tokens) {
      if (tokens_[t].owner != s) ++sold;
    }
    if (sold < static_cast<std::size_t>(kRugMinVictims) &&
        height_ - op.wait_started < kRugPatience) {
      return false;  // keep waiting for victims
    }
    op.phase = 3;
  }
  // phase 3: pull the remaining listings, then wire the proceeds out.
  for (const std::uint64_t t : op.tokens) {
    TokenModel& tok = tokens_[t];
    if (tok.owner != s || !tok.listed || !token_free(t)) continue;
    if (spendable(s) < fee) return false;
    emit(ledger::make_contract_call(env_.avatars[s], avatars_[s].next_nonce++,
                                    kNftName, "cancel",
                                    nft::NftContract::encode_token(t), fee,
                                    rng_));
    charge(s, fee);
    remove_listing(t);
    tok.listed = false;
    tok.price = 0;
    touch_token(t);
    op.last_step_round = height_;
    ++stats_.cancels;
    ++stats_.scam_txs;
    return true;
  }
  const std::uint64_t avail = spendable(s);
  if (avail > fee + 4) {
    const std::uint64_t amount = (avail - fee) * 3 / 4;
    emit(ledger::make_transfer(env_.avatars[s], avatars_[s].next_nonce++,
                               env_.avatars[op.sink].address(), amount, fee,
                               rng_));
    charge(s, amount + fee);
    pending_credits_.emplace_back(op.sink, amount);
    ++stats_.transfers;
    ++stats_.scam_txs;
  }
  ++stats_.rug_pulls;
  op.tokens.clear();  // dead inventory stays with the wallet, unlisted
  op.minted = 0;
  op.listed = 0;
  op.phase = 0;
  op.last_step_round = height_;
  return true;
}

void ScenarioGenerator::on_round_committed(const ledger::ShardedLedger& ledger) {
  const ledger::LedgerState& state = ledger.state(0);
  // Settle money: reserved spends become real, deferred credits land.
  for (const auto& [idx, credit] : pending_credits_) {
    avatars_[idx].balance += credit;
  }
  pending_credits_.clear();
  for (const std::size_t idx : dirty_spenders_) {
    AvatarModel& a = avatars_[idx];
    a.balance -= a.spent;
    a.spent = 0;
  }
  dirty_spenders_.clear();
  mod_balance_ -= mod_spent_;
  mod_spent_ = 0;

  // Reconcile contract-assigned token ids out of the committed store: new
  // ids are [known, next_token), and each one's owner (read back, never
  // predicted) routes it to the minting machine or the owner's inventory.
  const std::uint64_t committed_tokens = nft::NftContract::token_count(state);
  for (std::uint64_t id = tokens_.size(); id < committed_tokens; ++id) {
    auto view = nft::NftContract::token(state, id);
    if (!view.ok()) continue;  // unreachable on a consistent ledger
    const auto owner_it = index_of_.find(view.value().owner.value);
    if (owner_it == index_of_.end()) continue;
    const std::size_t owner = owner_it->second;
    TokenModel model;
    model.owner = owner;
    model.creator = owner;
    model.royalty_bps = view.value().royalty_bps;
    tokens_.push_back(model);
    const auto tag = mint_tags_.find(owner);
    if (tag != mint_tags_.end()) {
      if (tag->second.wash) {
        wash_pairs_[tag->second.machine].token = id;
        wash_pairs_[tag->second.machine].has_token = true;
      } else {
        rug_ops_[tag->second.machine].tokens.push_back(id);
      }
      mint_tags_.erase(tag);
    } else {
      avatars_[owner].owned.push_back(id);
    }
  }
  mint_tags_.clear();

  // Reconcile report ids the same way: every new id starts open.
  const std::uint64_t committed_reports =
      moderation::ModerationContract::report_count(state, env_.moderation.name);
  for (std::uint64_t id = known_reports_; id < committed_reports; ++id) {
    open_reports_.push_back(id);
  }
  known_reports_ = committed_reports;

  ++height_;
}

// ------------------------------------------------------------ multi-world

MultiWorldGenerator::MultiWorldGenerator(const ScenarioConfig& config,
                                         std::size_t num_shards,
                                         const ScenarioEnv& env)
    : env_(env),
      cross_(config.txs_per_round / 3),
      intra_(config.txs_per_round - cross_),
      mix_(config.seed ^ kWorldMixSalt),
      sig_(config.seed ^ kWorldSigSalt),
      home_(env.avatars.size()),
      by_shard_(num_shards),
      nonces_(env.avatars.size(), 0),
      proven_(num_shards, 0) {
  for (std::size_t i = 0; i < env_.avatars.size(); ++i) {
    home_[i] = ledger::shard_of(env_.avatars[i].address(), num_shards);
    by_shard_[home_[i]].push_back(i);
    index_of_[env_.avatars[i].address().value] = i;
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (by_shard_[s].size() >= 2) pair_shards_.push_back(s);
  }
}

std::vector<ledger::Transaction> MultiWorldGenerator::next_round() {
  std::unordered_set<std::size_t> used(minters_.begin(), minters_.end());
  std::vector<ledger::Transaction> txs = std::move(mints_);
  stats_.cross_transfers += txs.size();
  mints_.clear();
  minters_.clear();

  for (std::uint32_t t = 0; t < intra_ && !pair_shards_.empty(); ++t) {
    const auto& group =
        by_shard_[pair_shards_[mix_.next_below(pair_shards_.size())]];
    const auto from = draw(mix_, group.size(),
                           [&](std::size_t i) { return !used.contains(group[i]); });
    if (!from) continue;
    const auto to =
        draw(mix_, group.size(), [&](std::size_t i) { return i != *from; });
    if (!to) continue;
    const std::size_t sender = group[*from];
    used.insert(sender);
    txs.push_back(ledger::make_transfer(
        env_.avatars[sender], nonces_[sender]++,
        env_.avatars[group[*to]].address(), 1 + mix_.next_below(64),
        /*fee=*/1, sig_));
    ++stats_.transfers;
  }

  const std::size_t n = env_.avatars.size();
  for (std::uint32_t t = 0; t < cross_ && by_shard_.size() > 1; ++t) {
    const auto from =
        draw(mix_, n, [&](std::size_t i) { return !used.contains(i); });
    if (!from) continue;
    // A recipient on any other world.
    const auto to =
        draw(mix_, n, [&](std::size_t i) { return home_[i] != home_[*from]; });
    if (!to) continue;
    used.insert(*from);
    txs.push_back(ledger::make_xshard_lock(
        env_.avatars[*from], nonces_[*from]++, home_[*to],
        env_.avatars[*to].address(), 1 + mix_.next_below(64), /*fee=*/1, sig_));
  }
  return txs;
}

void MultiWorldGenerator::on_round_committed(
    const ledger::ShardedLedger& ledger) {
  for (std::uint32_t s = 0; s < proven_.size(); ++s) {
    for (; proven_[s] < ledger.receipt_count(s); ++proven_[s]) {
      auto bundle = ledger.prove_receipt(s, proven_[s]);
      if (!bundle.ok()) continue;  // unreachable: the beacon covers the id
      const auto receipt =
          ledger::CrossShardReceipt::decode(bundle.value().receipt);
      if (!receipt.ok()) continue;
      const std::size_t recipient = index_of_.at(receipt.value().to.value);
      mints_.push_back(ledger::make_xshard_mint(
          env_.avatars[recipient], nonces_[recipient]++, bundle.value(),
          /*fee=*/1, sig_));
      minters_.push_back(recipient);
    }
  }
}

}  // namespace mv::scenario
