#include "scenario/harness.h"

#include <chrono>
#include <memory>

#include "common/clock.h"
#include "net/network.h"
#include "scenario/invariants.h"

namespace mv::scenario {

namespace {

/// Salts for the harness's own deterministic streams (distinct from the
/// generator's and the environment's).
constexpr std::uint64_t kExecSalt = 0x6d762e657865632eULL;
constexpr std::uint64_t kNetSalt = 0x6d762e6e65742e31ULL;
constexpr std::uint64_t kQuerySalt = 0x6d762e7172792e31ULL;

/// Where each round's transactions come from: the generator (recording) or
/// the trace (replay).
struct RoundSource {
  ScenarioGenerator* gen = nullptr;
  const std::vector<TraceRound>* rounds = nullptr;
};

Result<ReplayResult> execute(const ScenarioEnv& env, const TraceHeader& header,
                             std::size_t rounds, RoundSource src,
                             const ReplayOptions& opts,
                             std::vector<TraceRound>* out_rounds) {
  const auto started = std::chrono::steady_clock::now();
  ReplayResult result;

  SimClock clock;
  net::Network network(clock, Rng(header.seed ^ kNetSalt));

  std::shared_ptr<JobQueue> queue = opts.job_queue;
  if (!queue && opts.use_job_queue) {
    JobQueueConfig qc;
    qc.threads = opts.queue_workers;
    qc.limit(JobClass::kClientQuery) = opts.client_query_limit;
    queue = std::make_shared<JobQueue>(qc);
  }
  auto sig_cache = std::make_shared<crypto::DigestLruSet>();

  ledger::ChainConfig cc;
  cc.validators = env.validator_keys();
  cc.max_txs_per_block = header.max_txs_per_block;
  cc.validation.sig_cache = sig_cache;
  cc.validation.job_queue = queue;
  ledger::Blockchain chain(cc, env.contracts, env.genesis);

  ledger::MempoolConfig mc;
  mc.sig_cache = sig_cache;
  ledger::Mempool pool(mc);

  // Subscription read path: N push-fed light clients, each watching its own
  // account, riding the same queue's kClientQuery lane as proof queries.
  std::unique_ptr<net::SubscriptionServer> server;
  std::unique_ptr<ledger::SubscriptionPublisher> publisher;
  std::vector<std::unique_ptr<ledger::SubscriptionFeed>> feeds;
  if (opts.subscribers > 0) {
    server = std::make_unique<net::SubscriptionServer>(
        network, net::SubscriptionConfig{}, queue.get());
    auto* sp = server.get();
    const auto server_node =
        network.add_node([sp](const net::Message& m) { sp->handle(m); });
    server->bind(server_node);
    publisher = std::make_unique<ledger::SubscriptionPublisher>(chain, *server);
    const std::size_t n = std::min(opts.subscribers, env.avatars.size());
    feeds.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ledger::SubscriptionFeedConfig fc;
      fc.light_client.validators = cc.validators;
      fc.light_client.genesis_hash = chain.genesis_hash();
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

  Rng exec_rng(header.seed ^ kExecSalt);
  Rng query_rng(header.seed ^ kQuerySalt);

  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<ledger::Transaction> txs =
        src.gen != nullptr ? src.gen->next_round() : (*src.rounds)[r].txs;
    result.submitted_txs += txs.size();
    for (const auto& tx : txs) {
      Status added = pool.add(tx, chain.state(), static_cast<Tick>(r));
      if (!added.ok()) {
        return make_error(errc::kTraceReplayDiverged,
                          "round " + std::to_string(r) +
                              ": mempool rejected a submitted tx: " +
                              added.error().to_string());
      }
    }
    const auto selected = pool.select(header.max_txs_per_block, chain.state());
    const auto& proposer = env.validators[r % env.validators.size()];
    const ledger::Block block =
        chain.assemble(proposer, selected, static_cast<Tick>(r), exec_rng);
    // The generator's all-valid discipline, enforced: a dropped tx means the
    // generator (or a stack regression) broke the determinism contract.
    if (block.txs.size() != txs.size()) {
      return make_error(
          errc::kTraceReplayDiverged,
          "round " + std::to_string(r) + ": block committed " +
              std::to_string(block.txs.size()) + " of " +
              std::to_string(txs.size()) + " submitted txs");
    }
    if (Status appended = chain.append(block); !appended.ok()) {
      return make_error(errc::kTraceReplayDiverged,
                        "round " + std::to_string(r) +
                            ": append failed: " + appended.error().to_string());
    }
    pool.remove_included(block.txs);
    result.committed_txs += block.txs.size();

    const auto* commitment = chain.commitment_at(static_cast<std::int64_t>(r));
    if (commitment == nullptr) {
      return make_error(errc::kTraceReplayDiverged,
                        "round " + std::to_string(r) + ": tip commitment lost");
    }
    result.commitments.push_back(*commitment);
    if (out_rounds != nullptr) {
      TraceRound round;
      round.txs = std::move(txs);
      round.commitment_root = commitment->root;
      out_rounds->push_back(std::move(round));
    } else if (opts.verify_against_trace &&
               commitment->root != (*src.rounds)[r].commitment_root) {
      ++result.mismatched_blocks;
    }

    if (opts.before_queries) opts.before_queries(static_cast<std::uint32_t>(r));
    for (std::size_t q = 0; q < opts.client_queries_per_round; ++q) {
      const auto& w = env.avatars[query_rng.next_below(env.avatars.size())];
      auto proof = chain.prove_account(w.address(), chain.height() - 1);
      if (proof.ok()) {
        ++result.queries_served;
      } else if (proof.error().code == "chain.overloaded") {
        ++result.queries_shed;
      }
    }
    if (opts.after_queries) opts.after_queries(static_cast<std::uint32_t>(r));

    if (queue) queue->drain();
    if (server) network.run_until_idle();
    clock.advance();

    if (src.gen != nullptr) src.gen->on_round_committed(chain.state());

    const bool periodic =
        opts.invariant_every > 0 && (r + 1) % opts.invariant_every == 0;
    if (periodic || r + 1 == rounds) {
      for (auto& v : check_invariants(chain.state(), inv, &pool)) {
        result.violations.push_back("block " + std::to_string(r) + ": " +
                                    std::move(v));
      }
    }
  }

  if (queue) {
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
  result.mempool = pool.stats();
  result.validation = chain.validation_stats();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace

Result<RecordResult> record(const ScenarioConfig& config,
                            const ReplayOptions& opts) {
  auto mix = mix_by_name(config.mix);
  if (!mix.ok()) return mix.error();
  TraceHeader header = config.header();
  auto env = build_env(header);
  if (!env.ok()) return env.error();
  header.genesis_root = env.value().genesis.commitment().root;

  ScenarioGenerator gen(config, mix.value(), env.value());
  RecordResult out;
  out.trace.header = header;
  RoundSource src;
  src.gen = &gen;
  ReplayOptions ropts = opts;
  ropts.verify_against_trace = false;
  auto run = execute(env.value(), header, config.rounds, src, ropts,
                     &out.trace.rounds);
  if (!run.ok()) return run.error();
  out.run = std::move(run).value();
  out.generated = gen.stats();
  return out;
}

Result<ReplayResult> replay(const Trace& trace, const ReplayOptions& opts) {
  auto env = build_env(trace.header);
  if (!env.ok()) return env.error();
  if (env.value().genesis.commitment().root != trace.header.genesis_root) {
    return make_error(errc::kTraceGenesisMismatch,
                      "derived genesis root differs from the trace header");
  }
  RoundSource src;
  src.rounds = &trace.rounds;
  return execute(env.value(), trace.header, trace.rounds.size(), src, opts,
                 nullptr);
}

}  // namespace mv::scenario
