#include "scenario/harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <memory>
#include <optional>

#include "common/clock.h"
#include "ledger/header_check.h"
#include "net/network.h"
#include "scenario/invariants.h"

namespace mv::scenario {

namespace {

/// Salts for the harness's own deterministic streams (distinct from the
/// generators' and the environment's).
constexpr std::uint64_t kExecSalt = 0x6d762e657865632eULL;
constexpr std::uint64_t kNetSalt = 0x6d762e6e65742e31ULL;
constexpr std::uint64_t kQuerySalt = 0x6d762e7172792e31ULL;

constexpr std::string_view kMultiWorldPrefix = "multi_world:";
constexpr std::size_t kMaxWorlds = 1024;

/// The world count a scenario name asks for: n for "multi_world:<n>", 0 for
/// a catalog mix (which runs on one shard).
Result<std::size_t> worlds_of(const std::string& scenario) {
  if (!scenario.starts_with(kMultiWorldPrefix)) return std::size_t{0};
  const char* first = scenario.data() + kMultiWorldPrefix.size();
  const char* last = scenario.data() + scenario.size();
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(first, last, n);
  if (ec != std::errc{} || end != last || n == 0 || n > kMaxWorlds) {
    return make_error(errc::kShardBadConfig,
                      "world count out of [1, " + std::to_string(kMaxWorlds) +
                          "] in: " + scenario);
  }
  return n;
}

/// Replay's traffic source: the recorded rounds, in order.
struct TraceSource {
  const std::vector<TraceRound>& rounds;
  std::size_t next = 0;

  std::vector<ledger::Transaction> next_round() { return rounds[next++].txs; }
  void on_round_committed(const ledger::ShardedLedger&) {}
};

Error diverged(std::size_t round, const std::string& what) {
  return make_error(errc::kTraceReplayDiverged,
                    "round " + std::to_string(round) + ": " + what);
}

/// The one round loop. Exactly one of `recording` (record: append each round
/// to it) and `expected` (replay: count rounds whose root differs) is set.
template <typename Source>
Result<ReplayResult> execute(const ScenarioEnv& env, const TraceHeader& header,
                             std::size_t shards, std::size_t rounds,
                             Source& source, const ReplayOptions& opts,
                             std::vector<TraceRound>* recording,
                             const std::vector<TraceRound>* expected) {
  const auto started = std::chrono::steady_clock::now();
  ReplayResult result;

  SimClock clock;
  net::Network network(clock, Rng(header.seed ^ kNetSalt));
  JobQueue* const queue = opts.job_queue.get();

  ledger::ShardConfig sc;
  sc.num_shards = shards;
  sc.validators = env.validator_keys();
  sc.max_txs_per_block = header.max_txs_per_block;
  sc.validation.job_queue = opts.job_queue;
  sc.seed = header.seed ^ kExecSalt;
  ledger::ShardedLedger ledger(std::move(sc), env.genesis, env.contracts);

  // Subscription read path: N push-fed light clients following shard 0,
  // each watching its own account, on the same queue's kClientQuery lane as
  // the proof queries.
  std::unique_ptr<net::SubscriptionServer> server;
  std::unique_ptr<ledger::SubscriptionPublisher> publisher;
  std::vector<std::unique_ptr<ledger::SubscriptionFeed>> feeds;
  if (opts.subscribers > 0) {
    server = std::make_unique<net::SubscriptionServer>(
        network, net::SubscriptionConfig{}, queue);
    auto* sp = server.get();
    const auto server_node =
        network.add_node([sp](const net::Message& m) { sp->handle(m); });
    server->bind(server_node);
    publisher = std::make_unique<ledger::SubscriptionPublisher>(
        ledger.shard(0), *server);
    const std::size_t n = std::min(opts.subscribers, env.avatars.size());
    feeds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ledger::SubscriptionFeedConfig fc;
      fc.light_client.validators = ledger.config().validators;
      fc.light_client.genesis_hash = ledger.shard(0).genesis_hash();
      fc.accounts = {env.avatars[i].address()};
      auto feed = std::make_unique<ledger::SubscriptionFeed>(network, fc);
      auto* fp = feed.get();
      const auto node =
          network.add_node([fp](const net::Message& m) { fp->handle(m); });
      feed->bind(node);
      feed->subscribe(server_node);
      feeds.push_back(std::move(feed));
    }
    network.run_until_idle();
  }

  InvariantOptions inv;
  inv.total_supply = env.total_supply;
  inv.dao_contract = env.dao.name;
  inv.reputation_contract = env.reputation.name;
  inv.moderation_contract = env.moderation.name;
  inv.rep_min = env.reputation.min_score;
  inv.rep_max = env.reputation.max_score;
  inv.check_full_rehash = opts.check_full_rehash;

  Rng query_rng(header.seed ^ kQuerySalt);

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto tick = static_cast<Tick>(r);
    std::vector<ledger::Transaction> txs = source.next_round();
    result.submitted_txs += txs.size();
    for (const auto& tx : txs) {
      if (Status s = ledger.submit(tx, tick); !s.ok()) {
        return diverged(r, "mempool rejected a submitted tx: " +
                               s.error().to_string());
      }
    }
    auto beacon = ledger.commit_round(
        env.validators[ledger::proposer_index(r, env.validators.size())], tick);
    if (!beacon.ok()) return diverged(r, beacon.error().to_string());
    // The all-valid discipline, enforced: a dropped tx means the generator
    // (or a stack regression) broke the determinism contract. Count what the
    // shard blocks committed.
    std::size_t committed = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const ledger::Blockchain& chain = ledger.shard(s);
      committed += chain.block_at(chain.height() - 1)->txs.size();
    }
    if (committed != txs.size()) {
      return diverged(r, "blocks committed " + std::to_string(committed) +
                             " of " + std::to_string(txs.size()) +
                             " submitted txs");
    }
    result.committed_txs += committed;

    // The trace's root column (scenario/trace.h).
    const ledger::BeaconHeader& b = beacon.value();
    const crypto::Digest root =
        shards == 1 ? b.shards[0].state_root : b.beacon_root;
    result.roots.push_back(root);
    if (recording != nullptr) {
      recording->push_back(TraceRound{std::move(txs), root});
    } else if (root != (*expected)[r].commitment_root) {
      ++result.mismatched_blocks;
    }

    const auto round = static_cast<std::uint32_t>(r);
    if (opts.before_queries) opts.before_queries(round);
    for (std::size_t q = 0; q < opts.client_queries_per_round; ++q) {
      const auto addr =
          env.avatars[query_rng.next_below(env.avatars.size())].address();
      std::optional<Result<ledger::ShardedAccountProof>> proof;
      const auto prove = [&] { proof = ledger.prove_account(addr); };
      if (queue == nullptr) {
        prove();
      } else if (!queue->run(JobClass::kClientQuery, prove)) {
        ++result.queries_shed;
        continue;
      }
      if (proof->ok()) ++result.queries_served;
    }
    if (opts.after_queries) opts.after_queries(round);

    if (queue != nullptr) queue->drain();
    if (server) network.run_until_idle();
    clock.advance();

    source.on_round_committed(ledger);

    const bool periodic =
        opts.invariant_every > 0 && (r + 1) % opts.invariant_every == 0;
    if (periodic || r + 1 == rounds) {
      for (auto& v : check_sharded_invariants(ledger, inv)) {
        result.violations.push_back("block " + std::to_string(r) + ": " +
                                    std::move(v));
      }
    }
  }

  if (queue != nullptr) {
    queue->drain();
    result.queue = queue->stats();
  }
  if (server) {
    network.run_until_idle();
    result.subscriptions = server->stats();
    for (const auto& f : feeds) {
      result.feed_pushes_consumed += f->pushes_consumed();
      result.feed_gaps_detected += f->gaps_detected();
    }
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    result.validation += ledger.shard(s).validation_stats();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace

Result<RecordResult> record(const ScenarioConfig& config,
                            const ReplayOptions& opts) {
  auto worlds = worlds_of(config.mix);
  if (!worlds.ok()) return worlds.error();
  const bool multi = worlds.value() > 0;
  auto mix = multi ? Result<ScenarioMix>(ScenarioMix{}) : mix_by_name(config.mix);
  if (!mix.ok()) return mix.error();
  TraceHeader header = config.header();
  auto env = build_env(header);
  if (!env.ok()) return env.error();
  header.genesis_root = env.value().genesis.commitment().root;

  RecordResult out;
  out.trace.header = header;
  const auto run = [&](auto source, std::size_t shards) -> Result<RecordResult> {
    auto ran = execute(env.value(), header, shards, config.rounds, source,
                       opts, &out.trace.rounds, nullptr);
    if (!ran.ok()) return ran.error();
    out.run = std::move(ran).value();
    out.generated = source.stats();
    return std::move(out);
  };
  if (multi) {
    return run(MultiWorldGenerator(config, worlds.value(), env.value()),
               worlds.value());
  }
  return run(ScenarioGenerator(config, mix.value(), env.value()), 1);
}

Result<ReplayResult> replay(const Trace& trace, const ReplayOptions& opts) {
  auto worlds = worlds_of(trace.header.scenario);
  if (!worlds.ok()) return worlds.error();
  auto env = build_env(trace.header);
  if (!env.ok()) return env.error();
  if (env.value().genesis.commitment().root != trace.header.genesis_root) {
    return make_error(errc::kTraceGenesisMismatch,
                      "derived genesis root differs from the trace header");
  }
  TraceSource source{trace.rounds};
  return execute(env.value(), trace.header,
                 std::max<std::size_t>(worlds.value(), 1), trace.rounds.size(),
                 source, opts, nullptr, &trace.rounds);
}

}  // namespace mv::scenario
