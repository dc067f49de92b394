// Record/replay harness: scenarios as whole-stack differential tests.
//
// record() drives a traffic source through the real stack and freezes the
// run into a Trace; replay() rebuilds the environment from the trace header
// (refusing to run if the derived genesis root differs), feeds the recorded
// rounds through a freshly configured stack, and compares every round's root
// against the recording. Both run one round loop on a ShardedLedger
// (ledger/shard.h): each round submits its transactions, commits the round,
// checks that every submitted tx committed, serves the client queries and
// runs the invariant checker. A catalog mix (scenario/scenario.h) runs on one
// shard with ScenarioGenerator as its source; "multi_world:<n>" runs on n
// shards (n in [1, 1024]) with MultiWorldGenerator. The root a round records
// is defined once, in scenario/trace.h.
//
// Because the recorded roots are a pure function of (genesis, transaction
// sequence), ANY replay configuration — no queue, inline or threaded
// JobQueue, with or without subscribers — must reproduce them bit for bit;
// a mismatch localizes a regression to the round where the roots first
// diverge.
//
// The determinism contract (DESIGN.md §12), concretely:
//   1. same seed + config      => byte-identical Trace (generator purity);
//   2. same trace, any opts    => same root sequence;
//   3. a round that drops any submitted tx aborts the run
//      (trace.replay_diverged) — the generators' all-valid discipline is an
//      enforced invariant, not a hope.
#pragma once

#include <functional>
#include <memory>

#include "common/job_queue.h"
#include "ledger/parallel.h"
#include "ledger/subscription.h"
#include "scenario/scenario.h"
#include "scenario/trace.h"

namespace mv::scenario {

/// Stack configuration swept by the determinism tests. Every combination
/// must replay a trace to the same roots.
struct ReplayOptions {
  /// The process executor. It fans shard commits out on its kConsensus lane
  /// (more than one shard only), carries subscription fan-out, and runs
  /// every client query on its sheddable kClientQuery lane. null = all of
  /// it inline on the calling thread.
  std::shared_ptr<JobQueue> job_queue;
  /// Push-fed light clients subscribed to their own accounts; the feeds
  /// follow shard 0.
  std::size_t subscribers = 0;
  /// Composed prove_account calls issued per round.
  std::size_t client_queries_per_round = 0;
  /// Run the cross-module invariant checker every N rounds (0 = only after
  /// the final round). Violations land in ReplayResult::violations.
  std::uint32_t invariant_every = 0;
  bool check_full_rehash = true;  ///< include the O(n) rehash cross-check
  /// Test seams: invoked with the round index immediately before/after the
  /// round's client queries are issued, ahead of the end-of-round drain.
  std::function<void(std::uint32_t)> before_queries;
  std::function<void(std::uint32_t)> after_queries;
};

struct ReplayResult {
  /// One root per round: the trace's commitment_root column.
  std::vector<crypto::Digest> roots;
  std::size_t submitted_txs = 0;
  std::size_t committed_txs = 0;
  /// Rounds whose root differed from the trace (0 == byte-identical replay).
  std::size_t mismatched_blocks = 0;
  std::vector<std::string> violations;  ///< invariant checker output
  std::size_t queries_served = 0;
  std::size_t queries_shed = 0;  ///< refused by the kClientQuery lane
  JobQueueStats queue{};
  net::SubscriptionStats subscriptions{};
  std::uint64_t feed_pushes_consumed = 0;  ///< summed over all subscribers
  std::uint64_t feed_gaps_detected = 0;
  ledger::ValidationStats validation{};  ///< summed over shards
  double wall_seconds = 0.0;
};

struct RecordResult {
  Trace trace;
  GeneratorStats generated;
  ReplayResult run;  ///< execution metrics of the recording run itself
};

/// Generate and execute a scenario, freezing it into a Trace. The trace
/// contents depend only on (config), never on opts — the stack sweep is the
/// point — but opts shapes the run's metrics (bench_e2e records under load).
[[nodiscard]] Result<RecordResult> record(const ScenarioConfig& config,
                                          const ReplayOptions& opts = {});

/// Re-execute a trace through a fresh stack configured by opts.
[[nodiscard]] Result<ReplayResult> replay(const Trace& trace,
                                          const ReplayOptions& opts = {});

}  // namespace mv::scenario
