// Prioritized job queue with per-class load monitoring and admission shedding.
//
// World services absorb bursty, mixed-priority traffic: consensus rounds,
// block validation, gossip relay, snapshot chunk serving, and client proof
// queries all compete for the same cores. This queue (modeled on rippled's
// JobQueue/LoadMonitor) gives each traffic class its own FIFO lane, executes
// the highest-priority non-empty lane first on its own worker threads, and
// sheds new work at admission when a lane backs up past its configured
// ceiling — a rejected job is counted, never queued, so overload degrades
// the lowest classes first instead of stalling consensus. It is the
// process's only worker pool: block validation fans out through run_batch().
//
// Execution modes:
//   threads == 0  — inline: submit()/run()/run_batch() execute the job
//                   synchronously on the calling thread, in call order, so a
//                   deterministic simulation routed through the queue behaves
//                   byte-identically to calling the work directly (telemetry
//                   is still recorded; depth is always 0, so depth/wait
//                   ceilings never trigger).
//   threads >= 1  — queued: jobs are pulled by `threads` worker threads
//                   the queue owns. Per-class FIFO order is start order;
//                   jobs of different classes overlap freely.
//
// Shedding policy (per class, both knobs 0 = unlimited):
//   - depth ceiling: a submit()/run() while the class already holds
//     max_depth queued jobs is rejected (shed_depth).
//   - wait ceiling: a submit()/run() while the class's recent p99 queue-wait
//     exceeds max_p99_wait_us is rejected (shed_wait). The check only applies
//     while the class has queued work and enough recent samples, so a burst
//     that drained long ago cannot latch the lane shut — admission recovers
//     as soon as the backlog clears.
//   - run_batch() is never shed: a batch is one unit of already-admitted
//     work (e.g. a block's signature verifications) and partial execution
//     would corrupt it. Admission control belongs at the batch's submitter.
//
// Threading contract: submit/run/run_batch/drain/stats are safe from any
// thread. A job must not call run()/run_batch()/drain() on its own queue
// (with few workers that self-wait deadlocks). The destructor abandons jobs
// still queued (counted per class) after finishing the ones already running;
// drain() first if completion matters.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"

namespace mv {

/// Traffic classes, highest priority first (enum order IS the priority).
enum class JobClass : std::uint8_t {
  /// Consensus-critical fan-out: ShardedLedger::commit_round runs one job
  /// per shard here. Block application itself never enters the queue.
  kConsensus = 0,
  /// Batches of pure verification work. No ledger path submits here: block
  /// application verifies signatures inline.
  kValidation = 1,
  kGossipRelay = 2,   ///< rumor relays (net/gossip.h)
  kSnapshotServe = 3, ///< snapshot chunk serving (net/snapshot_transfer.h)
  kClientQuery = 4,   ///< client proof queries (Blockchain::prove_account)
};
inline constexpr std::size_t kJobClassCount = 5;

[[nodiscard]] const char* job_class_name(JobClass cls);

struct JobQueueConfig {
  /// Worker threads; 0 = deterministic inline mode (see file comment).
  std::size_t threads = 0;

  struct Limit {
    std::size_t max_depth = 0;     ///< queued-job ceiling; 0 = unlimited
    double max_p99_wait_us = 0.0;  ///< recent-p99 wait ceiling; 0 = unlimited
  };
  /// Per-class ceilings, indexed by JobClass. Defaults never shed, so a
  /// queue constructed without limits is pure telemetry.
  std::array<Limit, kJobClassCount> limits{};

  [[nodiscard]] Limit& limit(JobClass cls) {
    return limits[static_cast<std::size_t>(cls)];
  }
};

/// One class's counters and latency digest, snapshotted by JobQueue::stats().
/// Means/max are lifetime (RunningStats); p50/p99 are over the most recent
/// window of samples (so they track current load, not history).
struct JobClassStats {
  const char* name = "";
  std::uint64_t submitted = 0;   ///< admitted jobs (sheds are NOT counted here)
  std::uint64_t completed = 0;
  std::uint64_t shed_depth = 0;  ///< rejected: depth ceiling
  std::uint64_t shed_wait = 0;   ///< rejected: recent p99 wait ceiling
  std::uint64_t abandoned = 0;   ///< queued at destruction, never run
  std::size_t depth = 0;         ///< queued right now
  double wait_mean_us = 0.0;
  double wait_p50_us = 0.0;
  double wait_p99_us = 0.0;
  double wait_max_us = 0.0;
  double run_mean_us = 0.0;
  double run_p50_us = 0.0;
  double run_p99_us = 0.0;
  double run_max_us = 0.0;

  [[nodiscard]] std::uint64_t shed() const { return shed_depth + shed_wait; }
};

/// Overload observability for the whole queue — the job-side counterpart of
/// NetworkStats / MempoolStats.
struct JobQueueStats {
  std::array<JobClassStats, kJobClassCount> classes{};

  [[nodiscard]] const JobClassStats& of(JobClass cls) const {
    return classes[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t shed() const;
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueConfig config);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Configured worker count (0 = inline mode).
  [[nodiscard]] std::size_t workers() const { return config_.threads; }

  /// Fire-and-forget: admission-checked enqueue (inline mode: admission
  /// check, then synchronous execution). False = shed; fn was not and will
  /// not be run.
  bool submit(JobClass cls, std::function<void()> fn);

  /// Synchronous sheddable execution: admission-checked, then blocks until
  /// fn has run (on a worker, or inline). False = shed, fn not run. This is
  /// the admission-control shape for request/response work (client queries).
  bool run(JobClass cls, const std::function<void()>& fn);

  /// Run fn(0)..fn(tasks-1) as `tasks` jobs of `cls` and block until all
  /// finished. Never shed. Tasks may run concurrently and in any order
  /// (inline mode: ascending order on the calling thread) — callers needing
  /// determinism write to disjoint slots and fold on the calling thread
  /// after the batch returns.
  void run_batch(JobClass cls, std::size_t tasks,
                 const std::function<void(std::size_t)>& fn);

  /// Block until every admitted job has finished (inline mode: no-op).
  void drain();

  [[nodiscard]] JobQueueStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Completion latch shared by the jobs of one run()/run_batch() call;
  /// `remaining` is guarded by mu_ and done_cv_ fires when it hits zero.
  struct Batch {
    explicit Batch(std::size_t n) : remaining(n) {}
    std::size_t remaining;
  };

  struct Job {
    std::function<void()> fn;
    std::shared_ptr<Batch> batch;  ///< null for fire-and-forget submits
    Clock::time_point enqueued;
  };

  /// Latency digest window: recent sample ring feeding the p50/p99 the
  /// shedding decision and stats() read (common/stats.h RecentWindow).
  static constexpr std::size_t kLatencyWindow = 128;
  /// Minimum recent wait samples before the wait ceiling may shed.
  static constexpr std::size_t kMinShedSamples = 8;

  struct ClassState {
    std::deque<Job> queue;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed_depth = 0;
    std::uint64_t shed_wait = 0;
    std::uint64_t abandoned = 0;
    RunningStats wait_stats;
    RunningStats run_stats;
    RecentWindow wait_window{kLatencyWindow};
    RecentWindow run_window{kLatencyWindow};

    void record_wait(double us);
    void record_run(double us);
  };

  /// Admission decision; callers hold mu_. True = admit.
  bool admit_locked(ClassState& cs, const JobQueueConfig::Limit& limit);
  /// Inline-mode execution: record a zero wait, time the run, count it.
  void execute_inline(ClassState& cs, const std::function<void()>& fn);
  /// Enqueue under mu_ (caller already admitted) and wake a worker.
  void enqueue_locked(ClassState& cs, Job job);
  void worker_loop();

  JobQueueConfig config_;

  mutable std::mutex mu_;  ///< guards classes_, pending_, running_, stop_
  std::condition_variable work_cv_;  ///< workers: work available or stop
  std::condition_variable done_cv_;  ///< waiters: batch done / queue drained
  std::array<ClassState, kJobClassCount> classes_;
  std::size_t pending_ = 0;  ///< queued jobs, all classes
  std::size_t running_ = 0;  ///< jobs currently executing on workers
  bool stop_ = false;

  /// `threads` workers, each running worker_loop() until stop.
  std::vector<std::thread> workers_;
};

}  // namespace mv
