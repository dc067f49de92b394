// JobQueue tests: inline-mode determinism, strict priority and per-class
// FIFO under a single worker, depth/wait shedding and recovery, caller-runs
// run() (on the caller when idle, in turn behind queued work of its priority
// or higher, counted by drain() while it runs), run_batch as
// a thread pool (every task once, reuse across batches, inline on 0 workers),
// caller-helps batches (nested in a job, with every worker busy),
// exactly the configured number of worker threads, never-shed batches, stats
// consistency, absence of consensus starvation under a mixed overload,
// destructor abandonment, and the ledger integration (queue-routed block
// application bit-identical to serial; prove_account shed under overload).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/job_queue.h"
#include "ledger/chain.h"

namespace mv {
namespace {

using namespace std::chrono_literals;
using namespace mv::ledger;

/// Manual gate: jobs park in wait() until the test hands out tokens.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  std::size_t tokens = 0;

  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return tokens > 0; });
    --tokens;
  }
  void release(std::size_t n = 1) {
    {
      std::lock_guard<std::mutex> lock(m);
      tokens += n;
    }
    cv.notify_all();
  }
};

/// Spin until `pred` holds (bounded; the suite runs on a single-core box, so
/// sleeps instead of raw spinning).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ---------------------------------------------------------------- inline

TEST(JobQueueInline, ExecutesSynchronouslyInCallOrder) {
  JobQueue q(JobQueueConfig{});  // threads = 0
  EXPECT_EQ(q.workers(), 0u);
  std::vector<int> order;
  EXPECT_TRUE(q.submit(JobClass::kClientQuery, [&] { order.push_back(1); }));
  EXPECT_TRUE(q.run(JobClass::kConsensus, [&] { order.push_back(2); }));
  // Priority never reorders inline mode: execution is call order, exactly as
  // if the queue were not there.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  std::vector<std::size_t> batch_order;
  q.run_batch(JobClass::kValidation, 5,
              [&](std::size_t i) { batch_order.push_back(i); });
  EXPECT_EQ(batch_order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  const JobQueueStats stats = q.stats();
  EXPECT_EQ(stats.submitted(), 7u);
  EXPECT_EQ(stats.completed(), 7u);
  EXPECT_EQ(stats.shed(), 0u);
  EXPECT_EQ(stats.of(JobClass::kValidation).completed, 5u);
}

TEST(JobQueueInline, DepthCeilingsNeverTrigger) {
  // Inline mode holds nothing queued, so even max_depth = 1 admits every job.
  JobQueueConfig config;
  config.limit(JobClass::kClientQuery).max_depth = 1;
  JobQueue q(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.submit(JobClass::kClientQuery, [] {}));
  }
  EXPECT_EQ(q.stats().shed(), 0u);
}

// ---------------------------------------------------------------- priority

TEST(JobQueueThreaded, StrictPriorityAndPerClassFifo) {
  JobQueueConfig config;
  config.threads = 1;  // single worker => total execution order is observable
  JobQueue q(config);

  Gate gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(q.submit(JobClass::kSnapshotServe, [&] {
    started.store(true);
    gate.wait();
  }));
  ASSERT_TRUE(eventually([&] { return started.load(); }));

  // The worker is parked; everything below lands in the queues before any of
  // it can run, in submission order: low classes first on purpose.
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto mark = [&](std::string tag) {
    return [&order, &order_mu, tag = std::move(tag)] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(q.submit(JobClass::kClientQuery, mark("query-a")));
  ASSERT_TRUE(q.submit(JobClass::kGossipRelay, mark("gossip-a")));
  ASSERT_TRUE(q.submit(JobClass::kClientQuery, mark("query-b")));
  ASSERT_TRUE(q.submit(JobClass::kConsensus, mark("consensus")));
  ASSERT_TRUE(q.submit(JobClass::kValidation, mark("validation")));
  ASSERT_TRUE(q.submit(JobClass::kGossipRelay, mark("gossip-b")));

  gate.release();
  q.drain();

  // Highest class drains first regardless of submission order; within one
  // class, submission (FIFO) order holds.
  EXPECT_EQ(order,
            (std::vector<std::string>{"consensus", "validation", "gossip-a",
                                      "gossip-b", "query-a", "query-b"}));
}

// ---------------------------------------------------------------- shedding

TEST(JobQueueThreaded, DepthCeilingShedsAndRecovers) {
  JobQueueConfig config;
  config.threads = 1;
  config.limit(JobClass::kClientQuery).max_depth = 2;
  JobQueue q(config);

  Gate gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(q.submit(JobClass::kSnapshotServe, [&] {
    started.store(true);
    gate.wait();
  }));
  ASSERT_TRUE(eventually([&] { return started.load(); }));

  std::atomic<int> ran{0};
  EXPECT_TRUE(q.submit(JobClass::kClientQuery, [&] { ++ran; }));
  EXPECT_TRUE(q.submit(JobClass::kClientQuery, [&] { ++ran; }));
  // Third submit sees depth == max_depth: shed, fn never runs.
  EXPECT_FALSE(q.submit(JobClass::kClientQuery, [&] { ran += 100; }));
  EXPECT_EQ(q.stats().of(JobClass::kClientQuery).shed_depth, 1u);

  gate.release();
  q.drain();
  EXPECT_EQ(ran.load(), 2);

  // Backlog cleared: admission recovers immediately.
  EXPECT_TRUE(q.run(JobClass::kClientQuery, [&] { ++ran; }));
  EXPECT_EQ(ran.load(), 3);
  const JobClassStats cs = q.stats().of(JobClass::kClientQuery);
  EXPECT_EQ(cs.submitted, 3u);
  EXPECT_EQ(cs.completed, 3u);
  EXPECT_EQ(cs.shed_depth, 1u);
}

TEST(JobQueueThreaded, WaitCeilingShedsUnderBacklogAndRecoversWhenDrained) {
  JobQueueConfig config;
  config.threads = 1;
  // Any measurable queueing violates a 1us p99 ceiling; the test only relies
  // on waits being bigger than that while a real backlog exists — lenient
  // enough for the single-core CI box.
  config.limit(JobClass::kGossipRelay).max_p99_wait_us = 1.0;
  JobQueue q(config);

  Gate gate;
  constexpr int kJobs = 12;
  constexpr int kReleased = 8;  // >= kMinShedSamples dequeues, 3 left queued
  std::atomic<int> ran{0};
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(q.submit(JobClass::kGossipRelay, [&] {
      gate.wait();
      ++ran;
    }));
  }
  // Feed the worker one token at a time so every dequeued job accumulated
  // genuine wall-clock wait while parked behind its predecessors. After
  // kReleased tokens the worker sits inside job kReleased+1 (its wait
  // already sampled) and the lane still holds queued jobs behind it.
  for (int i = 0; i < kReleased; ++i) {
    gate.release();
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(eventually([&] { return ran.load() >= kReleased; }));
  ASSERT_GE(q.stats().of(JobClass::kGossipRelay).depth, 1u);

  // The lane still holds queued work and its recent p99 wait is milliseconds:
  // a fresh submit must shed.
  EXPECT_FALSE(q.submit(JobClass::kGossipRelay, [&] { ran += 100; }));
  EXPECT_GE(q.stats().of(JobClass::kGossipRelay).shed_wait, 1u);

  gate.release(kJobs);  // drain the last job
  q.drain();
  EXPECT_EQ(ran.load(), kJobs);

  // Recovery: the wait ceiling only applies while a backlog exists, so the
  // stale p99 from the burst cannot latch the lane shut.
  EXPECT_TRUE(q.run(JobClass::kGossipRelay, [&] { ++ran; }));
  EXPECT_EQ(ran.load(), kJobs + 1);
}

// ---------------------------------------------------------------- caller-runs
// A blocking run() with nothing queued ahead of it runs on its caller; with a
// job queued at its priority or higher it waits its turn on a worker.

TEST(JobQueueThreaded, IdleRunExecutesOnTheCallerWithZeroWait) {
  JobQueueConfig config;
  config.threads = 2;
  JobQueue q(config);
  const JobClassStats before = q.stats().of(JobClass::kClientQuery);
  std::thread::id ran_on;
  ASSERT_TRUE(q.run(JobClass::kClientQuery,
                    [&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  const JobClassStats after = q.stats().of(JobClass::kClientQuery);
  EXPECT_EQ(after.submitted, before.submitted + 1);
  EXPECT_EQ(after.completed, before.completed + 1);
  EXPECT_EQ(after.depth, 0u);
  EXPECT_EQ(after.wait_max_us, 0.0);  // the one wait recorded is 0
}

TEST(JobQueueThreaded, RunQueuedBehindHigherClassWaitsItsTurn) {
  JobQueueConfig config;
  config.threads = 1;
  JobQueue q(config);
  Gate gate;
  std::atomic<bool> started{false};
  std::thread::id worker;
  ASSERT_TRUE(q.submit(JobClass::kSnapshotServe, [&] {
    worker = std::this_thread::get_id();
    started.store(true);
    gate.wait();
  }));
  ASSERT_TRUE(eventually([&] { return started.load(); }));

  std::mutex order_mu;
  std::vector<std::string> order;
  ASSERT_TRUE(q.submit(JobClass::kConsensus, [&] {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back("consensus");
  }));
  std::thread::id query_ran_on;
  std::atomic<bool> query_returned{false};
  std::thread client([&] {
    EXPECT_TRUE(q.run(JobClass::kClientQuery, [&] {
      query_ran_on = std::this_thread::get_id();
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back("query");
    }));
    query_returned.store(true);
  });
  // The query joins its lane instead of running on the client thread.
  ASSERT_TRUE(eventually(
      [&] { return q.stats().of(JobClass::kClientQuery).depth == 1; }));
  EXPECT_FALSE(query_returned.load());

  gate.release();
  client.join();
  EXPECT_EQ(order, (std::vector<std::string>{"consensus", "query"}));
  EXPECT_EQ(query_ran_on, worker);
  q.drain();
  EXPECT_EQ(q.stats().completed(), 3u);
}

TEST(JobQueueThreaded, RunAboveQueuedLowerClassesRunsAtOnceOnTheCaller) {
  JobQueueConfig config;
  config.threads = 1;
  JobQueue q(config);
  Gate gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(q.submit(JobClass::kSnapshotServe, [&] {
    started.store(true);
    gate.wait();
  }));
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  std::atomic<int> low_ran{0};
  ASSERT_TRUE(q.submit(JobClass::kValidation, [&] { ++low_ran; }));
  ASSERT_TRUE(q.submit(JobClass::kClientQuery, [&] { ++low_ran; }));

  // The only worker is parked, so run() returns before the gate opens only
  // if its caller ran fn.
  std::thread::id ran_on;
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    EXPECT_TRUE(q.run(JobClass::kConsensus,
                      [&] { ran_on = std::this_thread::get_id(); }));
    returned.store(true);
  });
  const std::thread::id caller_id = caller.get_id();
  EXPECT_TRUE(eventually([&] { return returned.load(); }));
  EXPECT_EQ(low_ran.load(), 0);
  const JobQueueStats during = q.stats();
  EXPECT_EQ(during.of(JobClass::kValidation).depth, 1u);
  EXPECT_EQ(during.of(JobClass::kClientQuery).depth, 1u);

  gate.release();
  caller.join();
  EXPECT_EQ(ran_on, caller_id);
  q.drain();
  EXPECT_EQ(low_ran.load(), 2);
  EXPECT_EQ(q.stats().of(JobClass::kConsensus).wait_max_us, 0.0);
}

TEST(JobQueueThreaded, DrainWaitsForACallerRunJob) {
  JobQueueConfig config;
  config.threads = 2;
  JobQueue q(config);
  Gate gate;
  std::atomic<bool> in_job{false};
  std::thread::id ran_on;
  std::thread caller([&] {
    EXPECT_TRUE(q.run(JobClass::kClientQuery, [&] {
      ran_on = std::this_thread::get_id();
      in_job.store(true);
      gate.wait();
    }));
  });
  ASSERT_TRUE(eventually([&] { return in_job.load(); }));
  EXPECT_EQ(ran_on, caller.get_id());

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    q.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(drained.load()) << "drain() returned while a job still ran";

  gate.release();
  caller.join();
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(q.stats().of(JobClass::kClientQuery).completed, 1u);
}

// ------------------------------------------------------------- batch fan-out
// run_batch is the fan-out the sharded ledger commits its shards on: each
// task runs exactly once, one queue serves batch after batch, an empty batch
// calls nothing, and zero workers runs the batch inline on the caller.

TEST(JobQueueBatch, RunsEveryTaskExactlyOnce) {
  JobQueueConfig config;
  config.threads = 4;
  JobQueue q(config);
  EXPECT_EQ(q.workers(), 4u);
  std::vector<int> hits(1000, 0);
  q.run_batch(JobClass::kValidation, hits.size(),
              [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "task " << i;
  }
  EXPECT_EQ(q.stats().completed(), hits.size());
}

TEST(JobQueueBatch, ReusableAcrossBatches) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    JobQueueConfig config;
    config.threads = workers;
    JobQueue q(config);
    for (int batch = 0; batch < 50; ++batch) {
      std::vector<std::size_t> out(7, 0);
      q.run_batch(JobClass::kConsensus, out.size(),
                  [&](std::size_t i) { out[i] = i * i; });
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], i * i) << "batch " << batch;
      }
    }
    q.run_batch(JobClass::kConsensus, 0,
                [](std::size_t) { ADD_FAILURE() << "no tasks, no calls"; });
    EXPECT_EQ(q.stats().completed(), 50u * 7u);
  }
}

TEST(JobQueueBatch, ZeroWorkersRunsInline) {
  JobQueueConfig config;
  config.threads = 0;
  JobQueue q(config);
  EXPECT_EQ(q.workers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(16, 0);
  q.run_batch(JobClass::kValidation, hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "task " << i;
    ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(q.stats().completed(), hits.size());
}

/// Ids of this process's threads, or none where /proc is unavailable.
std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return ids;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ids.insert(static_cast<pid_t>(std::stol(it->path().filename().string())));
  }
  return ids;
}

// The queue owns exactly `threads` threads, all of them workers: that many
// jobs run at once on distinct threads that did not exist before the queue,
// a job queued while every one of them is busy waits for one, and the
// destructor joins them all. The ids are read inside submit() jobs, which
// never run on the caller, rather than by counting /proc/self/task, which
// also lists the threads a sanitizer runtime starts.
TEST(JobQueueThreaded, OwnsExactlyTheConfiguredWorkerThreads) {
  constexpr std::size_t kWorkers = 4;
  const std::set<pid_t> before = thread_ids();
  std::set<pid_t> workers;
  {
    std::mutex m;
    std::condition_variable cv;
    std::vector<pid_t> held;  ///< one id per job holding a worker
    bool release = false;
    std::atomic<pid_t> extra{0};
    JobQueueConfig config;
    config.threads = kWorkers;
    JobQueue q(config);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      ASSERT_TRUE(q.submit(JobClass::kConsensus, [&] {
        std::unique_lock<std::mutex> lock(m);
        held.push_back(::gettid());
        cv.notify_all();
        cv.wait_for(lock, 5s, [&] { return release; });
      }));
    }
    {
      std::unique_lock<std::mutex> lock(m);
      EXPECT_TRUE(cv.wait_for(lock, 5s, [&] { return held.size() == kWorkers; }))
          << "fewer than " << kWorkers << " concurrent workers";
    }
    // Every worker is held, so a further job has no thread to start on.
    ASSERT_TRUE(q.submit(JobClass::kConsensus, [&] { extra = ::gettid(); }));
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(extra.load(), 0) << "a job ran while every worker was held";
    {
      std::lock_guard<std::mutex> lock(m);
      release = true;
    }
    cv.notify_all();
    q.drain();
    workers.insert(held.begin(), held.end());
    EXPECT_EQ(workers.size(), kWorkers) << "held jobs shared a thread";
    EXPECT_TRUE(workers.contains(extra.load())) << "a job ran off the workers";
  }
  const std::set<pid_t> after = thread_ids();
  for (const pid_t tid : workers) {
    EXPECT_FALSE(before.contains(tid)) << "worker " << tid << " predates the queue";
    EXPECT_FALSE(after.contains(tid)) << "worker " << tid << " outlived the queue";
  }
}

TEST(JobQueueThreaded, RunBatchIsNeverShed) {
  JobQueueConfig config;
  config.threads = 2;
  config.limit(JobClass::kConsensus).max_depth = 1;  // would shed submits
  JobQueue q(config);

  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> out(kTasks, 0);
  q.run_batch(JobClass::kConsensus, kTasks,
              [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(out[i], i * i);

  const JobClassStats cs = q.stats().of(JobClass::kConsensus);
  EXPECT_EQ(cs.submitted, kTasks);
  EXPECT_EQ(cs.completed, kTasks);
  EXPECT_EQ(cs.shed(), 0u);
}

// A batch never waits for a free worker: the caller claims tasks itself, so
// a batch finishes with every worker busy and may nest inside a job.

TEST(JobQueueThreaded, RunBatchNestedInsideAJobCompletes) {
  JobQueueConfig config;
  config.threads = 1;
  JobQueue q(config);
  std::vector<int> hits(8, 0);
  std::thread::id job_thread;
  std::vector<std::thread::id> ran_on(hits.size());
  // submit, not run: an idle run() would execute on this thread and leave
  // the worker free to pick up the batch's helper.
  ASSERT_TRUE(q.submit(JobClass::kConsensus, [&] {
    job_thread = std::this_thread::get_id();
    // The only worker is running this job: the batch's helper can never
    // start, so the job's own thread runs every task.
    q.run_batch(JobClass::kValidation, hits.size(), [&](std::size_t i) {
      ++hits[i];
      ran_on[i] = std::this_thread::get_id();
    });
  }));
  q.drain();
  EXPECT_NE(job_thread, std::this_thread::get_id());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "task " << i;
    EXPECT_EQ(ran_on[i], job_thread) << "task " << i;
  }
  const JobQueueStats stats = q.stats();
  EXPECT_EQ(stats.of(JobClass::kValidation).submitted, hits.size());
  EXPECT_EQ(stats.of(JobClass::kValidation).completed, hits.size());
  EXPECT_EQ(stats.of(JobClass::kValidation).depth, 0u);  // helper taken back
  EXPECT_EQ(stats.of(JobClass::kConsensus).completed, 1u);
}

TEST(JobQueueThreaded, RunBatchCompletesWhileWorkersAreBusy) {
  constexpr std::size_t kWorkers = 2;
  JobQueueConfig config;
  config.threads = kWorkers;
  JobQueue q(config);
  Gate gate;
  std::atomic<std::size_t> parked{0};
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_TRUE(q.submit(JobClass::kConsensus, [&] {
      ++parked;
      gate.wait();
    }));
  }
  ASSERT_TRUE(eventually([&] { return parked.load() == kWorkers; }));

  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(10, 0);
  q.run_batch(JobClass::kValidation, hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "task " << i;
    ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  const JobClassStats during = q.stats().of(JobClass::kValidation);
  EXPECT_EQ(during.submitted, hits.size());
  EXPECT_EQ(during.completed, hits.size());
  EXPECT_EQ(during.depth, 0u);  // unstarted helpers were taken back

  gate.release(kWorkers);
  q.drain();
  EXPECT_EQ(q.stats().of(JobClass::kConsensus).completed, kWorkers);
  EXPECT_EQ(q.stats().of(JobClass::kValidation).completed, hits.size());
}

// ---------------------------------------------------------------- stats

TEST(JobQueueThreaded, StatsConsistentAfterDrain) {
  JobQueueConfig config;
  config.threads = 2;
  JobQueue q(config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.submit(JobClass::kValidation,
                         [] { std::this_thread::sleep_for(100us); }));
  }
  q.run_batch(JobClass::kGossipRelay, 10, [](std::size_t) {});
  q.drain();

  const JobQueueStats stats = q.stats();
  EXPECT_EQ(stats.submitted(), 30u);
  EXPECT_EQ(stats.completed(), 30u);
  EXPECT_EQ(stats.shed(), 0u);
  for (const JobClassStats& cs : stats.classes) {
    EXPECT_EQ(cs.depth, 0u);
    EXPECT_EQ(cs.submitted, cs.completed + cs.abandoned);
    EXPECT_LE(cs.wait_p50_us, cs.wait_p99_us);
    EXPECT_LE(cs.wait_p99_us, cs.wait_max_us + 1e-9);
    EXPECT_LE(cs.run_p50_us, cs.run_p99_us);
    EXPECT_GE(cs.wait_mean_us, 0.0);
  }
  EXPECT_STREQ(stats.of(JobClass::kConsensus).name, "consensus");
  EXPECT_STREQ(stats.of(JobClass::kClientQuery).name, "client_query");
}

// ---------------------------------------------------------------- overload

TEST(JobQueueThreaded, ConsensusNeverStarvesUnderMixedOverload) {
  JobQueueConfig config;
  config.threads = 2;
  config.limit(JobClass::kGossipRelay).max_depth = 32;
  config.limit(JobClass::kClientQuery).max_depth = 16;
  JobQueue q(config);

  std::atomic<bool> flooding{true};
  std::atomic<std::uint64_t> low_attempts{0};
  std::thread flooder([&] {
    while (flooding.load()) {
      q.submit(JobClass::kGossipRelay,
               [] { std::this_thread::sleep_for(200us); });
      q.submit(JobClass::kClientQuery,
               [] { std::this_thread::sleep_for(200us); });
      ++low_attempts;
    }
  });
  // Start the consensus jobs only once the flood is running: otherwise all
  // 50 can finish before the flooder is first scheduled, and the test would
  // measure an idle queue.
  EXPECT_TRUE(eventually([&] { return low_attempts.load() > 0; }));

  // Every consensus job must be admitted (no ceiling on the class) and must
  // complete — the flood may only slow it down, never reject or starve it.
  std::atomic<int> consensus_done{0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(q.run(JobClass::kConsensus, [&] { ++consensus_done; }));
  }
  flooding.store(false);
  flooder.join();
  q.drain();

  EXPECT_EQ(consensus_done.load(), 50);
  const JobQueueStats stats = q.stats();
  EXPECT_EQ(stats.of(JobClass::kConsensus).completed, 50u);
  EXPECT_EQ(stats.of(JobClass::kConsensus).shed(), 0u);
  EXPECT_GT(low_attempts.load(), 0u);
  // Only the bounded lower classes may have shed.
  EXPECT_EQ(stats.shed(), stats.of(JobClass::kGossipRelay).shed() +
                              stats.of(JobClass::kClientQuery).shed());
}

// ---------------------------------------------------------------- shutdown

TEST(JobQueueThreaded, DestructorAbandonsQueuedJobsWithoutHanging) {
  Gate gate;
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  {
    JobQueueConfig config;
    config.threads = 1;
    JobQueue q(config);
    ASSERT_TRUE(q.submit(JobClass::kSnapshotServe, [&] {
      started.store(true);
      gate.wait();
      ++ran;
    }));
    ASSERT_TRUE(eventually([&] { return started.load(); }));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.submit(JobClass::kClientQuery, [&] { ++ran; }));
    }
    EXPECT_EQ(q.stats().of(JobClass::kClientQuery).depth, 5u);
    gate.release();
    // ~JobQueue: finishes the running job, abandons whatever is still queued.
  }
  EXPECT_GE(ran.load(), 1);  // the running job always completes
  EXPECT_LE(ran.load(), 6);
}

// ------------------------------------------------------------- ledger glue

ChainConfig queue_chain_config(const crypto::Wallet& proposer,
                               std::shared_ptr<JobQueue> queue) {
  ChainConfig config;
  config.validators = {proposer.public_key()};
  config.validation.job_queue = std::move(queue);
  return config;
}

TEST(JobQueueLedger, QueueRoutedApplicationMatchesSerialCommitments) {
  Rng rng(404);
  auto contracts = std::make_shared<ContractRegistry>();
  crypto::Wallet proposer{rng};
  std::vector<crypto::Wallet> wallets;
  LedgerState genesis;
  for (int i = 0; i < 8; ++i) {
    wallets.emplace_back(rng);
    genesis.credit(wallets.back().address(), 1'000'000);
  }

  ChainConfig serial_config;
  serial_config.validators = {proposer.public_key()};
  Blockchain serial(serial_config, contracts, genesis);

  // Inline queue (workers() == 0) and a threaded queue: both must commit
  // bit-identical blocks to the serial chain.
  auto inline_queue = std::make_shared<JobQueue>(JobQueueConfig{});
  JobQueueConfig threaded_config;
  threaded_config.threads = 2;
  auto threaded_queue = std::make_shared<JobQueue>(threaded_config);
  Blockchain inline_chain(queue_chain_config(proposer, inline_queue),
                          contracts, genesis);
  Blockchain threaded_chain(queue_chain_config(proposer, threaded_queue),
                            contracts, genesis);

  std::vector<std::uint64_t> nonces(wallets.size(), 0);
  Rng block_rng(17);
  for (int b = 0; b < 6; ++b) {
    std::vector<Transaction> txs;
    for (int t = 0; t < 12; ++t) {
      const std::size_t w = block_rng.next_below(wallets.size());
      txs.push_back(make_transfer(
          wallets[w], nonces[w]++,
          wallets[block_rng.next_below(wallets.size())].address(),
          1 + block_rng.next_below(100), 1, block_rng));
    }
    const Block block = serial.assemble(proposer, txs, /*timestamp=*/b, rng);
    ASSERT_TRUE(serial.append(block).ok());
    ASSERT_TRUE(inline_chain.append(block).ok());
    ASSERT_TRUE(threaded_chain.append(block).ok());
  }
  EXPECT_EQ(serial.tip_hash(), inline_chain.tip_hash());
  EXPECT_EQ(serial.tip_hash(), threaded_chain.tip_hash());
  EXPECT_EQ(serial.state().commitment().root,
            threaded_chain.state().commitment().root);

  // Neither chain fanned work out: the inline queue has no workers, and the
  // threaded chain has no sig cache (no signature batch) and too few
  // accounts for a depth-2 subtree to re-hash (no flush tasks).
  for (const JobQueue* queue : {inline_queue.get(), threaded_queue.get()}) {
    const JobQueueStats stats = queue->stats();
    EXPECT_EQ(stats.of(JobClass::kConsensus).completed, 0u);
    EXPECT_EQ(stats.of(JobClass::kValidation).completed, 0u);
  }
  // Every apply is one serial group; the engine counters stay at zero.
  for (const Blockchain* chain : {&inline_chain, &threaded_chain}) {
    const ValidationStats& v = chain->validation_stats();
    EXPECT_GT(v.applies, 0u);
    EXPECT_EQ(v.conflict_groups, v.applies);
    EXPECT_EQ(v.parallel_applies, 0u);
    EXPECT_EQ(v.serial_fallbacks, 0u);
    EXPECT_EQ(v.repairs, 0u);
  }
}

TEST(JobQueueLedger, ProveAccountShedsWhenClientLaneIsFull) {
  Rng rng(505);
  crypto::Wallet proposer{rng};
  crypto::Wallet user{rng};
  LedgerState genesis;
  genesis.credit(user.address(), 1000);

  JobQueueConfig qconfig;
  qconfig.threads = 1;
  qconfig.limit(JobClass::kClientQuery).max_depth = 1;
  auto queue = std::make_shared<JobQueue>(qconfig);
  Blockchain chain(queue_chain_config(proposer, queue),
                   std::make_shared<ContractRegistry>(), genesis);

  const Block block = chain.assemble(
      proposer,
      {make_transfer(user, 0, proposer.address(), 10, 1, rng)},
      /*timestamp=*/1, rng);
  ASSERT_TRUE(chain.append(block).ok());

  // Unloaded: the query runs through the queue and succeeds.
  const auto ok = chain.prove_account(user.address(), /*block_height=*/0);
  ASSERT_TRUE(ok.ok());

  // Park the worker and fill the client lane to its ceiling; the next query
  // is shed at admission and surfaces as chain.overloaded.
  Gate gate;
  std::atomic<bool> started{false};
  ASSERT_TRUE(queue->submit(JobClass::kSnapshotServe, [&] {
    started.store(true);
    gate.wait();
  }));
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  ASSERT_TRUE(queue->submit(JobClass::kClientQuery, [] {}));

  const auto shed = chain.prove_account(user.address(), /*block_height=*/0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, "chain.overloaded");

  gate.release();
  queue->drain();
  // Backlog gone: queries are admitted again.
  EXPECT_TRUE(chain.prove_account(user.address(), 0).ok());
}

}  // namespace
}  // namespace mv
