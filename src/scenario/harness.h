// Record/replay harness: scenarios as whole-stack differential tests.
//
// record() drives a ScenarioGenerator through the real stack — Mempool
// admission, Blockchain assembly/append, optional JobQueue lanes and
// subscription fan-out — and freezes the run into a Trace. replay() rebuilds
// the environment from the trace header (refusing to run if the derived
// genesis root differs), feeds the recorded rounds through a freshly
// configured stack, and compares every per-block StateCommitment root
// against the recording. Because the recorded roots are a pure function of
// (genesis, transaction sequence), ANY replay configuration — no queue,
// inline or threaded JobQueue, with or without subscribers — must
// reproduce them bit for bit; a mismatch localizes a
// regression to the block where the roots first diverge.
//
// The determinism contract (DESIGN.md §12), concretely:
//   1. same seed + config      => byte-identical Trace (generator purity);
//   2. same trace, any opts    => same commitment root sequence;
//   3. a block that drops any submitted tx aborts the run
//      (trace.replay_diverged) — the generator's all-valid discipline is an
//      enforced invariant, not a hope.
#pragma once

#include <functional>
#include <memory>

#include "common/job_queue.h"
#include "ledger/mempool.h"
#include "ledger/parallel.h"
#include "ledger/subscription.h"
#include "scenario/scenario.h"
#include "scenario/trace.h"

namespace mv::scenario {

/// Stack configuration swept by the determinism tests. Every combination
/// must replay a trace to the same commitment roots.
struct ReplayOptions {
  /// Route proof queries and subscription fan-out through one shared
  /// JobQueue. Blocks apply serially on the calling thread either way.
  bool use_job_queue = false;
  std::size_t queue_workers = 0;  ///< 0 = deterministic inline execution
  JobQueueConfig::Limit client_query_limit{};  ///< kClientQuery shedding
  /// Push-fed light clients subscribed to their own accounts.
  std::size_t subscribers = 0;
  /// prove_account calls issued per round (sheddable kClientQuery traffic).
  std::size_t client_queries_per_round = 0;
  /// Run the cross-module invariant checker every N blocks (0 = only after
  /// the final block). Violations land in ReplayResult::violations.
  std::uint32_t invariant_every = 0;
  bool check_full_rehash = true;  ///< include the O(n) rehash cross-check
  /// Compare each block's root against the trace (off while recording).
  bool verify_against_trace = true;
  /// Externally configured queue; overrides use_job_queue/queue_workers/
  /// client_query_limit. Lets tests hold a handle to the lanes the chain is
  /// actually using (e.g. to park a worker and force deterministic shedding).
  std::shared_ptr<JobQueue> job_queue;
  /// Test seams: invoked with the round index immediately before/after the
  /// round's client queries are issued, ahead of the end-of-round drain.
  std::function<void(std::uint32_t)> before_queries;
  std::function<void(std::uint32_t)> after_queries;
};

struct ReplayResult {
  std::vector<ledger::StateCommitment> commitments;  ///< one per block
  std::size_t submitted_txs = 0;
  std::size_t committed_txs = 0;
  /// Blocks whose root differed from the trace (0 == byte-identical replay).
  std::size_t mismatched_blocks = 0;
  std::vector<std::string> violations;  ///< invariant checker output
  std::size_t queries_served = 0;
  std::size_t queries_shed = 0;  ///< prove_account rejected "chain.overloaded"
  JobQueueStats queue{};
  net::SubscriptionStats subscriptions{};
  std::uint64_t feed_pushes_consumed = 0;  ///< summed over all subscribers
  std::uint64_t feed_gaps_detected = 0;
  ledger::MempoolStats mempool{};
  ledger::ValidationStats validation{};
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
