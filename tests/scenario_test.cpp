// Capstone integration scenario: one deterministic end-to-end run exercising
// every subsystem of the assembled platform together — the executable version
// of the paper's Figure 3 story. Kept as a ctest so a regression anywhere in
// the cross-module wiring fails loudly.
#include <gtest/gtest.h>

#include "core/metaverse.h"
#include "privacy/sensors.h"

namespace mv::core {
namespace {

TEST(Scenario, AFullDayInTheMetaverse) {
  MetaverseConfig config;
  config.seed = 20220707;
  config.validators = 4;
  config.moderation.mode = moderation::StaffingMode::kHybrid;
  config.moderation.community_size = 500;
  config.moderation.juror_availability = 0.05;
  config.reputation.pair_cooldown = 1;
  config.governance.module_config =
      dao::DaoConfig{0.2, 0.5, 40, std::make_shared<dao::OneMemberOneVote>()};
  config.governance.global_config =
      dao::DaoConfig{0.1, 0.5, 40, std::make_shared<dao::OneMemberOneVote>()};
  config.privacy_epoch = 500;
  Metaverse mv(config);

  // --- morning: 12 citizens and one troll join; grants commit ---
  std::vector<UserHandle> citizens;
  for (int i = 0; i < 12; ++i) citizens.push_back(mv.register_user(i < 6 ? "eu" : "us"));
  const UserHandle troll = mv.register_user("us");
  ASSERT_TRUE(mv.run_consensus_round());
  ASSERT_TRUE(mv.committee().replicas_consistent());
  for (const auto& c : citizens) {
    ASSERT_EQ(mv.chain().state().balance(c.address), config.genesis_grant);
  }

  // --- sensors stream; consent receipts and audit records hit the chain ---
  privacy::SensorSim sensors{Rng(1)};
  const auto traits = sensors.sample_traits();
  std::size_t released_first = 0;
  for (int u = 0; u < 3; ++u) {
    mv.set_consent(citizens[static_cast<std::size_t>(u)].user_id,
                   privacy::SensorType::kGaze, true);
  }
  for (int t = 0; t < 20; ++t) {
    for (int u = 0; u < 3; ++u) {
      const auto& c = citizens[static_cast<std::size_t>(u)];
      const bool out =
          mv.ingest(c.user_id, sensors.gaze(c.user_id, traits, t)).has_value();
      if (u == 0) released_first += out;
    }
    mv.tick();
  }
  EXPECT_GT(released_first, 0u);
  ASSERT_TRUE(mv.run_consensus_round());
  ledger::AuditQuery audit(mv.chain());
  // Consent receipt + PET'd releases, all attributed to the same subject.
  EXPECT_GE(audit.by_subject(citizens[0].user_id).size(), released_first + 1);
  // Three devices share the log roughly evenly: no data monopoly (§II-D).
  EXPECT_FALSE(mv.chain().state().audit_log().empty());
  EXPECT_FALSE(audit.has_data_monopoly());

  // --- afternoon: the troll misbehaves; bubbles + moderation + reputation ---
  auto& world = mv.world();
  world.move(troll.avatar, world.avatar(citizens[1].avatar)->pos + world::Vec2{0.4, 0});
  ASSERT_TRUE(world
                  .interact(troll.avatar, citizens[1].avatar,
                            world::InteractionKind::kHarass, mv.clock().now())
                  .ok());
  world.set_bubble(citizens[1].avatar, true, 2.0);
  EXPECT_FALSE(world
                   .interact(troll.avatar, citizens[1].avatar,
                             world::InteractionKind::kHarass, mv.clock().now())
                   .ok());
  const double troll_rep_before = mv.reputation().score(troll.account);
  for (int i = 0; i < 4; ++i) {
    mv.report_misbehaviour(citizens[static_cast<std::size_t>(i)].user_id,
                           troll.user_id, moderation::ReportKind::kHarassment);
  }
  for (int t = 0; t < 25; ++t) mv.tick();
  EXPECT_GT(mv.moderation().metrics().resolved, 0u);
  EXPECT_LT(mv.reputation().score(troll.account), troll_rep_before);

  // --- evening: economy (royalty NFT sale) and governance (GDPR adoption) ---
  Rng rng(2);
  auto call = [&](const UserHandle& who, const std::string& method, Bytes args) {
    const auto& w = mv.wallet(who.user_id);
    mv.submit_tx(ledger::make_contract_call(
        w, mv.chain().state().nonce(w.address()), "nft", method,
        std::move(args), 1, rng));
    ASSERT_TRUE(mv.run_consensus_round());
  };
  call(citizens[2], "mint", nft::NftContract::encode_mint("mv://drop/1", 1000));
  call(citizens[2], "list", nft::NftContract::encode_list(0, 400));
  call(citizens[3], "buy", nft::NftContract::encode_token(0));
  EXPECT_EQ(nft::NftContract::token(mv.chain().state(), 0).value().owner,
            citizens[3].address);

  auto proposal =
      mv.propose_policy_swap(citizens[0].user_id, "eu", policy::make_gdpr_module());
  ASSERT_TRUE(proposal.ok());
  for (const auto& c : citizens) {
    ASSERT_TRUE(mv.governance()
                    .cast_vote(proposal.value(), c.account, dao::VoteChoice::kYes,
                               mv.clock().now())
                    .ok());
  }
  for (int t = 0; t < 45; ++t) mv.tick();
  ASSERT_TRUE(mv.finalize_governance(proposal.value()).ok());
  ASSERT_NE(mv.policy().region_module("eu"), nullptr);
  EXPECT_EQ(mv.policy().region_module("eu")->name(), "gdpr");

  // EU users are now audited under GDPR; US users are not (frontier).
  policy::DataFlowEvent flow;
  flow.id = DataFlowId(1);
  flow.category = "gaze";
  flow.consent = false;
  flow.pet_applied = true;
  flow.declared_purpose = "svc";
  flow.purpose = "svc";
  EXPECT_FALSE(mv.audit_flow(citizens[0].user_id, flow).empty());
  EXPECT_TRUE(mv.audit_flow(citizens[7].user_id, flow).empty());

  // --- night: the books balance and the audit passes ---
  mv.governance().create_module("community-safety");
  const auto snap = mv.snapshot();
  EXPECT_EQ(snap.users, 13u);
  EXPECT_GE(snap.chain_height, 5);
  EXPECT_GT(snap.audit_records, 0u);
  EXPECT_GT(snap.moderation_resolved, 0u);
  EXPECT_TRUE(mv.committee().replicas_consistent());

  const EthicsReport report = mv.ethics_audit();
  EXPECT_DOUBLE_EQ(report.overall_score(), 1.0);
  EXPECT_TRUE(report.layer_supported(EthicalLayer::kHumanExperience));
}

}  // namespace
}  // namespace mv::core

// ---------------------------------------------------------------------------
// Macro-workload harness: event-sourced city-at-scale scenarios with
// deterministic replay (src/scenario/, DESIGN.md §12).
// ---------------------------------------------------------------------------
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "scenario/harness.h"
#include "scenario/invariants.h"

namespace mv::scenario {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.mix = "mixed_city";
  config.seed = 5;
  config.avatars = 120;
  config.rounds = 8;
  config.txs_per_round = 60;
  return config;
}

std::shared_ptr<JobQueue> make_queue(std::size_t workers) {
  JobQueueConfig qc;
  qc.threads = workers;
  return std::make_shared<JobQueue>(qc);
}

Trace small_trace() {
  auto rec = record(small_config());
  EXPECT_TRUE(rec.ok()) << (rec.ok() ? "" : rec.error().to_string());
  return std::move(rec).value().trace;
}

/// Recompute the trailing integrity digest after deliberate byte surgery, so
/// tests can reach the strict per-field decode layers *behind* the checksum.
Bytes reseal(Bytes bytes) {
  bytes.resize(bytes.size() - 32);
  crypto::Sha256 h;
  h.update(std::string_view(kTraceDomain));
  h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  const crypto::Digest d = h.finalize();
  bytes.insert(bytes.end(), d.begin(), d.end());
  return bytes;
}

// ------------------------------------------------------------ trace codec

TEST(ScenarioTrace, CodecRoundTripsByteIdentically) {
  const Trace trace = small_trace();
  const Bytes encoded = trace.encode();
  auto decoded = Trace::decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().encode(), encoded);
  EXPECT_EQ(decoded.value().header.scenario, trace.header.scenario);
  EXPECT_EQ(decoded.value().rounds.size(), trace.rounds.size());
  EXPECT_EQ(decoded.value().total_txs(), trace.total_txs());
}

TEST(ScenarioTrace, EveryByteMutationIsRejected) {
  ScenarioConfig config = small_config();
  config.avatars = 8;   // smallest legal population: keeps the stream tiny
  config.rounds = 2;
  config.txs_per_round = 12;
  auto rec = record(config);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  const Bytes bytes = rec.value().trace.encode();
  ASSERT_TRUE(Trace::decode(bytes).ok());
  // No semantically-inert bytes: flipping any single byte — header,
  // provenance fields, tx payloads, recorded roots, or the checksum itself —
  // must fail decode (the trailing digest covers everything before it).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    Bytes mutated = bytes;
    mutated[i] ^= 0x5a;
    EXPECT_FALSE(Trace::decode(mutated).ok()) << "byte " << i;
  }
}

TEST(ScenarioTrace, EveryTruncationIsRejected) {
  ScenarioConfig config = small_config();
  config.avatars = 8;
  config.rounds = 1;
  config.txs_per_round = 8;
  auto rec = record(config);
  ASSERT_TRUE(rec.ok());
  const Bytes bytes = rec.value().trace.encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const Bytes prefix(bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(Trace::decode(prefix).ok()) << "length " << len;
  }
}

TEST(ScenarioTrace, ChecksumFlipNamesBadChecksum) {
  const Bytes bytes = small_trace().encode();
  Bytes mutated = bytes;
  mutated.back() ^= 0x01;
  EXPECT_EQ(Trace::decode(mutated).error().code, errc::kTraceBadChecksum);
}

TEST(ScenarioTrace, ResealedTamperingCaughtByStrictFieldDecode) {
  const Trace trace = small_trace();
  const Bytes bytes = trace.encode();
  const std::size_t slen = trace.header.scenario.size();
  const std::size_t off_validators = 4 + 4 + slen + 8 + 8;
  const std::size_t off_rounds = off_validators + 4 + 8 + 4 + 32;

  {  // future version, checksum made valid again
    Bytes b = bytes;
    b[0] = 0x7f;
    EXPECT_EQ(Trace::decode(reseal(std::move(b))).error().code,
              errc::kTraceBadVersion);
  }
  {  // zeroed validator set
    Bytes b = bytes;
    for (std::size_t i = 0; i < 4; ++i) b[off_validators + i] = 0;
    EXPECT_EQ(Trace::decode(reseal(std::move(b))).error().code,
              errc::kTraceBadCount);
  }
  {  // forged round count far beyond the stream (pre-allocation bound)
    Bytes b = bytes;
    for (std::size_t i = 0; i < 4; ++i) b[off_rounds + i] = 0xff;
    EXPECT_EQ(Trace::decode(reseal(std::move(b))).error().code,
              errc::kTraceBadCount);
  }
  {  // junk between the last round and the checksum
    Bytes b = bytes;
    b.insert(b.end() - 32, 0xee);
    EXPECT_EQ(Trace::decode(reseal(std::move(b))).error().code,
              errc::kTraceBadCount);
  }
}

TEST(ScenarioTrace, MissingFileFailsCleanly) {
  EXPECT_FALSE(load_trace("/nonexistent/dir/ghost.trace").ok());
}

// --------------------------------------------------- golden-trace regression

const char* kTraceDir = MV_TRACE_DIR;

TEST(ScenarioGolden, MarketRushReplaysByteIdentically) {
  auto trace = load_trace(std::string(kTraceDir) + "/market_rush_1k.trace");
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  EXPECT_EQ(trace.value().header.avatars, 1000u);
  EXPECT_EQ(trace.value().rounds.size(), 50u);
  EXPECT_EQ(trace.value().total_txs(), 10000u);
  auto run = replay(trace.value());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().mismatched_blocks, 0u);
  EXPECT_TRUE(run.value().violations.empty());
  EXPECT_EQ(run.value().committed_txs, 10000u);
  // The harness proposes every block, so every append commits a seal.
  EXPECT_EQ(run.value().validation.sealed_commits, 50u);
  EXPECT_EQ(crypto::to_hex(trace.value().rounds.back().commitment_root),
            "378161227160c99be9afb962181c9df035b8953388f171877c12c8ad4cda43cd");
}

TEST(ScenarioGolden, GovernanceWaveReplaysByteIdentically) {
  auto trace = load_trace(std::string(kTraceDir) + "/governance_wave_1k.trace");
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  auto run = replay(trace.value());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().mismatched_blocks, 0u);
  EXPECT_TRUE(run.value().violations.empty());
  EXPECT_EQ(run.value().committed_txs, 10000u);
  EXPECT_EQ(crypto::to_hex(trace.value().rounds.back().commitment_root),
            "5647dbf3e661e3fe841907c9d24e209eee09ca2806b616d4c194be24eb6ee254");
}

TEST(ScenarioGolden, SameSeedSameTraceDifferentSeedDifferentTrace) {
  const ScenarioConfig config = small_config();
  auto a = record(config);
  auto b = record(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().trace.encode(), b.value().trace.encode());

  ScenarioConfig other = config;
  other.seed = config.seed + 1;
  auto c = record(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value().trace.rounds.back().commitment_root,
            c.value().trace.rounds.back().commitment_root);
}

TEST(ScenarioGolden, DeterminismSweepAcrossStackConfigurations) {
  auto rec = record(small_config());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  const Trace& trace = rec.value().trace;
  const auto& baseline = rec.value().run.roots;
  ASSERT_EQ(baseline.size(), trace.rounds.size());

  // inline / single-worker / threaded queue × subscribers: every
  // configuration must reproduce the recorded (queue-less) root sequence.
  std::vector<ReplayOptions> sweep;
  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ReplayOptions o;
    o.job_queue = make_queue(workers);
    sweep.push_back(o);
  }
  {
    ReplayOptions o;
    o.job_queue = make_queue(2);
    o.subscribers = 4;
    o.client_queries_per_round = 4;
    sweep.push_back(o);
  }

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    auto run = replay(trace, sweep[i]);
    ASSERT_TRUE(run.ok()) << "config " << i << ": " << run.error().to_string();
    EXPECT_EQ(run.value().mismatched_blocks, 0u) << "config " << i;
    ASSERT_EQ(run.value().roots.size(), baseline.size()) << "config " << i;
    for (std::size_t r = 0; r < baseline.size(); ++r) {
      ASSERT_EQ(run.value().roots[r], baseline[r])
          << "config " << i << " diverged at block " << r;
    }
  }
}

TEST(ScenarioGolden, MultiWorldTraceReplaysByteIdentically) {
  auto trace = load_trace(std::string(kTraceDir) + "/multi_world_3.trace");
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  EXPECT_EQ(trace.value().header.scenario, "multi_world:3");
  EXPECT_EQ(trace.value().header.avatars, 24u);
  EXPECT_EQ(trace.value().rounds.size(), 6u);
  // Serial and fanned out across queue workers alike, every beacon root —
  // and so shard_of, the beacon layout and every receipt byte — must match.
  for (const std::size_t workers : {0u, 2u, 4u}) {
    ReplayOptions opts;
    opts.job_queue = make_queue(workers);
    auto run = replay(trace.value(), opts);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    EXPECT_EQ(run.value().mismatched_blocks, 0u) << "workers=" << workers;
    EXPECT_EQ(run.value().committed_txs, trace.value().total_txs());
    EXPECT_TRUE(run.value().violations.empty())
        << run.value().violations.front();
  }
  EXPECT_EQ(crypto::to_hex(trace.value().rounds.back().commitment_root),
            "c0e8eec4b069e40f14a2dbed71f7b5b2c54d78ea8dd052b4887ea123cbd066ac");
}

/// SHA-256 over Transaction::encode() of every tx, round by round in order.
std::string tx_column_hex(const Trace& trace) {
  crypto::Sha256 h;
  for (const TraceRound& round : trace.rounds) {
    for (const ledger::Transaction& tx : round.txs) {
      const Bytes bytes = tx.encode();
      h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    }
  }
  return crypto::to_hex(h.finalize());
}

TEST(ScenarioGolden, TxColumnsArePinned) {
  // Re-recording a golden trace because a root moved must keep what it
  // replays: the transactions, byte for byte.
  const std::pair<const char*, const char*> pins[] = {
      {"governance_wave_1k.trace",
       "e11e1d44b1f53bf8434a7988063ff9b412682fd3593cbddc905314ae301caa40"},
      {"market_rush_1k.trace",
       "c9ad5de481c84da5b2ccbd29569065ee88d863e22463ca2b3c8144b544246141"},
      {"multi_world_3.trace",
       "94cdc2478a12e12b4e3484946a399efe7f859b3434f3b4f6c945f688c2568b2b"},
  };
  for (const auto& [file, pin] : pins) {
    auto trace = load_trace(std::string(kTraceDir) + "/" + file);
    ASSERT_TRUE(trace.ok()) << file << ": " << trace.error().to_string();
    EXPECT_EQ(tx_column_hex(trace.value()), pin) << file;
  }
}

// -------------------------------------------------------------- invariants

TEST(ScenarioInvariant, CleanRunEveryBlockNoViolations) {
  ReplayOptions opts;
  opts.invariant_every = 1;  // audit after every replayed block
  auto rec = record(small_config(), opts);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_TRUE(rec.value().run.violations.empty())
      << rec.value().run.violations.front();
}

TEST(ScenarioInvariant, ConservationViolationDetected) {
  Rng rng(1);
  crypto::Wallet w(rng);
  ledger::LedgerState state;
  state.credit(w.address(), 100);
  InvariantOptions opts;
  opts.total_supply = 50;  // lie about the genesis supply
  opts.check_full_rehash = false;
  const auto violations = check_invariants(state, opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("conservation"), std::string::npos);
}

TEST(ScenarioInvariant, ReputationBoundViolationDetected) {
  Rng rng(2);
  crypto::Wallet rater(rng), subject(rng);
  auto contracts = std::make_shared<ledger::ContractRegistry>();
  reputation::ReputationContractConfig rc;
  rc.cooldown_blocks = 0;
  rc.max_score = 500;  // permissive contract...
  contracts->install(std::make_shared<reputation::ReputationContract>(rc));
  ledger::LedgerState state;
  state.credit(rater.address(), 100);
  for (int i = 0; i < 3; ++i) {
    const auto tx = ledger::make_contract_call(
        rater, state.nonce(rater.address()), rc.name, "rate",
        reputation::ReputationContract::encode_rate(subject.address(), 5), 0,
        rng);
    ASSERT_TRUE(state.apply(tx, *contracts, i).ok());
  }
  InvariantOptions opts;
  opts.total_supply = 100;
  opts.check_full_rehash = false;
  opts.rep_max = 10;  // ...audited against a tighter bound
  const auto violations = check_invariants(state, opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("reputation"), std::string::npos);
}

// ---------------------------------------------------------------- harness

TEST(ScenarioHarness, AllValidDisciplineCommitsEverySubmittedTx) {
  auto rec = record(small_config());
  ASSERT_TRUE(rec.ok());
  const auto& run = rec.value().run;
  EXPECT_EQ(run.submitted_txs, run.committed_txs);
  EXPECT_EQ(run.submitted_txs,
            static_cast<std::size_t>(small_config().rounds) *
                small_config().txs_per_round);
}

TEST(ScenarioHarness, ScamPatternsLandOnChain) {
  ScenarioConfig config;
  config.mix = "market_rush";
  config.seed = 3;
  config.avatars = 200;
  config.rounds = 30;
  config.txs_per_round = 150;
  auto rec = record(config);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  const auto& g = rec.value().generated;
  EXPECT_GT(g.scam_txs, 0u);
  EXPECT_GT(g.wash_trades, 0u);   // completed wash buy-back legs
  EXPECT_GT(g.rug_pulls, 0u);     // completed mint-list-abandon exits
  EXPECT_GT(g.mints, 0u);
  EXPECT_GT(g.buys, 0u);
  // Scams are protocol-valid: everything still committed.
  EXPECT_EQ(rec.value().run.submitted_txs, rec.value().run.committed_txs);
}

TEST(ScenarioHarness, TamperedCommitmentRootIsReported) {
  Trace trace = small_trace();
  trace.rounds.back().commitment_root[0] ^= 0x01;
  auto run = replay(trace);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().mismatched_blocks, 1u);
}

TEST(ScenarioHarness, DroppedTransactionDivergesReplay) {
  Trace trace = small_trace();
  ASSERT_GT(trace.rounds[2].txs.size(), 1u);
  trace.rounds[2].txs.erase(trace.rounds[2].txs.begin());
  auto run = replay(trace);
  // Either the stack refuses the nonce-gapped round outright, or the state
  // drifts and the recorded roots stop matching — silence is not an option.
  if (run.ok()) {
    EXPECT_GT(run.value().mismatched_blocks, 0u);
  } else {
    EXPECT_EQ(run.error().code, errc::kTraceReplayDiverged);
  }
}

TEST(ScenarioHarness, GenesisDriftIsRefusedBeforeReplay) {
  Trace trace = small_trace();
  trace.header.seed += 1;  // derives a different population
  auto run = replay(trace);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, errc::kTraceGenesisMismatch);
}

TEST(ScenarioHarness, SubscribersFollowEveryCommit) {
  ReplayOptions opts;
  opts.job_queue = make_queue(0);  // inline: deterministic fan-out, nothing shed
  opts.subscribers = 6;
  opts.client_queries_per_round = 8;
  auto rec = record(small_config(), opts);
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  const auto& run = rec.value().run;
  EXPECT_EQ(run.subscriptions.commits_published,
            static_cast<std::uint64_t>(small_config().rounds));
  EXPECT_EQ(run.subscriptions.subscribers, 6u);
  EXPECT_GT(run.feed_pushes_consumed, 0u);
  EXPECT_EQ(run.feed_gaps_detected, 0u);
  EXPECT_GT(run.queries_served, 0u);
  EXPECT_EQ(run.queries_shed, 0u);
}

TEST(ScenarioHarness, ClientQueriesShedUnderTightLimitWithoutStateDrift) {
  const Trace trace = small_trace();
  const std::uint32_t kJammedRound = 2;
  const std::size_t kQueriesPerRound = 4;

  JobQueueConfig qc;
  qc.threads = 1;
  qc.limit(JobClass::kClientQuery).max_depth = 1;
  auto queue = std::make_shared<JobQueue>(qc);

  // Deterministic lane pressure: in one round, park the single worker on a
  // lower-priority job and fill the client lane to its depth ceiling right
  // before the harness issues its queries. Every query that round must be
  // shed at admission; the gate opens before the end-of-round drain.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> parked{false};

  ReplayOptions opts;
  opts.job_queue = queue;
  opts.client_queries_per_round = kQueriesPerRound;
  opts.before_queries = [&](std::uint32_t round) {
    if (round != kJammedRound) return;
    ASSERT_TRUE(queue->submit(JobClass::kSnapshotServe, [&] {
      parked.store(true);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
    }));
    while (!parked.load()) std::this_thread::yield();
    ASSERT_TRUE(queue->submit(JobClass::kClientQuery, [] {}));
  };
  opts.after_queries = [&](std::uint32_t round) {
    if (round != kJammedRound) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  };

  auto run = replay(trace, opts);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  // All queries in the jammed round rejected as chain.overloaded ...
  EXPECT_EQ(run.value().queries_shed, kQueriesPerRound);
  EXPECT_GE(run.value().queue.of(JobClass::kClientQuery).shed_depth,
            kQueriesPerRound);
  // ... every other round served normally through the same lane ...
  EXPECT_EQ(run.value().queries_served,
            (trace.rounds.size() - 1) * kQueriesPerRound);
  // ... and load shedding on the query lane never perturbs consensus state.
  EXPECT_EQ(run.value().mismatched_blocks, 0u);
  EXPECT_TRUE(run.value().violations.empty());
}

TEST(ScenarioHarness, UnknownMixAndBadPopulationRejected) {
  ScenarioConfig config = small_config();
  config.mix = "metaverse_apocalypse";
  EXPECT_FALSE(record(config).ok());

  config = small_config();
  config.avatars = 4;  // below the documented floor of 8
  auto rec = record(config);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.error().code, errc::kTraceBadCount);
}

Trace tiny_worlds() {
  ScenarioConfig config;
  config.mix = "multi_world:2";
  config.avatars = 8;
  config.rounds = 2;
  config.txs_per_round = 6;
  auto rec = record(config);
  EXPECT_TRUE(rec.ok()) << (rec.ok() ? "" : rec.error().to_string());
  return std::move(rec).value().trace;
}

/// tiny_worlds() with the header field `field` bytes past the scenario name
/// overwritten by `value` (little-endian, `width` bytes) and the checksum
/// re-sealed, so the trace decodes and reaches replay's environment bounds.
Trace resealed_worlds(std::size_t field, std::uint64_t value,
                      std::size_t width) {
  const Trace trace = tiny_worlds();
  Bytes b = trace.encode();
  const std::size_t off = 4 + 4 + trace.header.scenario.size() + field;
  for (std::size_t i = 0; i < width; ++i) {
    b[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  auto decoded = Trace::decode(reseal(std::move(b)));
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error().to_string());
  return std::move(decoded).value();
}

TEST(ScenarioHarness, MultiWorldHeaderBoundsRefusedBeforeDerivation) {
  // avatars (u64 after the seed): 2^40 wallets would exhaust memory if the
  // environment were derived before its bounds were checked.
  auto huge = replay(resealed_worlds(8, std::uint64_t{1} << 40, 8));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error().code, errc::kTraceBadCount);
  // validators (u32 after avatars): above the 64-validator cap.
  auto crowd = replay(resealed_worlds(16, 65, 4));
  ASSERT_FALSE(crowd.ok());
  EXPECT_EQ(crowd.error().code, errc::kTraceBadCount);
}

TEST(ScenarioHarness, BadWorldCountsRefused) {
  Trace trace = tiny_worlds();
  for (const char* name : {"multi_world:0", "multi_world:x", "multi_world:1025",
                           "multi_world:", "multi_world:3x"}) {
    ScenarioConfig config = small_config();
    config.mix = name;
    auto rec = record(config);
    ASSERT_FALSE(rec.ok()) << name;
    EXPECT_EQ(rec.error().code, errc::kShardBadConfig) << name;
    trace.header.scenario = name;
    auto run = replay(trace);
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.error().code, errc::kShardBadConfig) << name;
  }
}

// ------------------------------------------------------------ multi-world

/// 3 worlds, 24 avatars, 6 rounds of 9 txs: 6 intra-world transfers and 3
/// cross-world locks a round (the same run tests/data/multi_world_3.trace
/// holds).
ScenarioConfig small_worlds() {
  ScenarioConfig config;
  config.mix = "multi_world:3";
  config.seed = 42;
  config.avatars = 24;
  config.rounds = 6;
  config.txs_per_round = 9;
  return config;
}

TEST(MultiWorldShard, RecordDrivesCrossShardTrafficCleanly) {
  auto rec = record(small_worlds());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();
  EXPECT_EQ(rec.value().trace.header.scenario, "multi_world:3");
  EXPECT_EQ(rec.value().trace.rounds.size(), 6u);
  EXPECT_GT(rec.value().run.committed_txs, 0u);
  // Locks produced receipts that minted on their destination worlds.
  EXPECT_GT(rec.value().generated.cross_transfers, 0u);
  // check_sharded_invariants ran over the final fleet state: conservation
  // across shards, receipt ledger shape, spent-marker integrity.
  EXPECT_TRUE(rec.value().run.violations.empty())
      << rec.value().run.violations.front();
}

TEST(MultiWorldShard, TraceCodecRoundTripsAndReplaysByteIdentically) {
  auto rec = record(small_worlds());
  ASSERT_TRUE(rec.ok()) << rec.error().to_string();

  // The multi-world trace rides the unmodified mv.trace.v1 codec.
  const Bytes encoded = rec.value().trace.encode();
  auto decoded = Trace::decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().encode(), encoded);

  // Replay from the decoded bytes: every beacon root must match, serial and
  // fanned out across JobQueue worker counts alike, with shard 0's commit
  // hook feeding subscribers and composed proofs served on the client lane.
  for (const std::size_t workers : {0u, 2u, 4u}) {
    ReplayOptions opts;
    opts.job_queue = make_queue(workers);
    opts.subscribers = 4;
    opts.client_queries_per_round = 4;
    auto run = replay(decoded.value(), opts);
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    EXPECT_EQ(run.value().mismatched_blocks, 0u) << "workers=" << workers;
    EXPECT_EQ(run.value().roots, rec.value().run.roots);
    EXPECT_TRUE(run.value().violations.empty())
        << run.value().violations.front();
    EXPECT_EQ(run.value().subscriptions.commits_published, 6u);
    EXPECT_EQ(run.value().queries_served, 6u * 4u);
  }
}

TEST(MultiWorldShard, SameSeedSameTraceDifferentSeedDifferentTrace) {
  auto a = record(small_worlds());
  auto b = record(small_worlds());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().trace.encode(), b.value().trace.encode());

  ScenarioConfig other = small_worlds();
  other.seed = 43;
  auto c = record(other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c.value().trace.encode(), a.value().trace.encode());
}

TEST(MultiWorldShard, TamperedBeaconRootIsReported) {
  auto rec = record(small_worlds());
  ASSERT_TRUE(rec.ok());
  Trace trace = rec.value().trace;
  trace.rounds[2].commitment_root[0] ^= 0x01;
  auto run = replay(trace);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  EXPECT_EQ(run.value().mismatched_blocks, 1u);
}

TEST(MultiWorldShard, ForeignAndMalformedTracesRefused) {
  // Genesis drift (tampered header) is refused before any round replays.
  auto rec = record(small_worlds());
  ASSERT_TRUE(rec.ok());
  Trace trace = rec.value().trace;
  trace.header.genesis_root[0] ^= 0x01;
  auto drift = replay(trace);
  ASSERT_FALSE(drift.ok());
  EXPECT_EQ(drift.error().code, errc::kTraceGenesisMismatch);
}

}  // namespace
}  // namespace mv::scenario
