#include "common/job_queue.h"

#include <algorithm>
#include <span>
#include <utility>

namespace mv {

const char* job_class_name(JobClass cls) {
  switch (cls) {
    case JobClass::kConsensus:
      return "consensus";
    case JobClass::kValidation:
      return "validation";
    case JobClass::kGossipRelay:
      return "gossip_relay";
    case JobClass::kSnapshotServe:
      return "snapshot_serve";
    case JobClass::kClientQuery:
      return "client_query";
  }
  return "unknown";
}

std::uint64_t JobQueueStats::submitted() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.submitted;
  return n;
}

std::uint64_t JobQueueStats::completed() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.completed;
  return n;
}

std::uint64_t JobQueueStats::shed() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.shed();
  return n;
}

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void JobQueue::ClassState::record_wait(double us) {
  wait_stats.add(us);
  wait_window.add(us);
}

void JobQueue::ClassState::record_run(double us) {
  run_stats.add(us);
  run_window.add(us);
}

JobQueue::JobQueue(JobQueueConfig config) : config_(config) {
  workers_.reserve(config_.threads);
  for (std::size_t i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobQueue::~JobQueue() {
  if (config_.threads == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Jobs already running finish; jobs still queued are abandoned (counted,
    // per the contract in the header — drain() first if completion matters).
    for (auto& cs : classes_) {
      cs.abandoned += cs.queue.size();
      pending_ -= cs.queue.size();
      cs.queue.clear();
    }
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool JobQueue::admit_locked(ClassState& cs, const JobQueueConfig::Limit& limit) {
  if (limit.max_depth != 0 && cs.queue.size() >= limit.max_depth) {
    ++cs.shed_depth;
    return false;
  }
  // The wait ceiling applies only while the class actually has a backlog and
  // a meaningful sample base: an idle lane cannot be latched shut by stale
  // latency from a burst that drained long ago.
  if (limit.max_p99_wait_us > 0.0 && !cs.queue.empty() &&
      cs.wait_window.seen() >= kMinShedSamples &&
      cs.wait_window.percentile(99.0) > limit.max_p99_wait_us) {
    ++cs.shed_wait;
    return false;
  }
  return true;
}

void JobQueue::run_on_caller(ClassState& cs,
                             const std::function<void()>& fn) noexcept {
  const auto t0 = Clock::now();
  fn();
  const double run_us = elapsed_us(t0, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  cs.record_wait(0.0);
  cs.record_run(run_us);
  ++cs.completed;
  if (--running_ == 0 && pending_ == 0) done_cv_.notify_all();
}

void JobQueue::enqueue_locked(ClassState& cs, Job job) {
  ++cs.submitted;
  cs.queue.push_back(std::move(job));
  ++pending_;
}

bool JobQueue::submit(JobClass cls, std::function<void()> fn) {
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  const auto& limit = config_.limits[static_cast<std::size_t>(cls)];
  if (config_.threads == 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!admit_locked(cs, limit)) return false;
      ++cs.submitted;
      ++running_;
    }
    run_on_caller(cs, fn);
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || !admit_locked(cs, limit)) return false;
    enqueue_locked(cs, Job{std::move(fn), nullptr, nullptr, Clock::now()});
  }
  work_cv_.notify_one();
  return true;
}

bool JobQueue::run(JobClass cls, const std::function<void()>& fn) {
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  const auto& limit = config_.limits[static_cast<std::size_t>(cls)];
  std::shared_ptr<bool> ran;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || !admit_locked(cs, limit)) return false;
    // A worker would start any job queued at cls's priority or higher first,
    // so fn waits its turn behind them. Otherwise the caller, blocked either
    // way, runs fn itself (inline mode queues nothing, so always).
    const auto ahead = std::span(classes_).first(static_cast<std::size_t>(cls) + 1);
    if (std::any_of(ahead.begin(), ahead.end(),
                    [](const ClassState& lane) { return !lane.queue.empty(); })) {
      ran = std::make_shared<bool>(false);
      enqueue_locked(cs, Job{fn, ran, nullptr, Clock::now()});
    } else {
      ++cs.submitted;
      ++running_;
    }
  }
  if (ran == nullptr) {
    run_on_caller(cs, fn);
    return true;
  }
  work_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return *ran; });
  return true;
}

void JobQueue::run_batch(JobClass cls, std::size_t tasks,
                         const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  auto& cs = classes_[static_cast<std::size_t>(cls)];
  if (config_.threads == 0) {
    for (std::size_t i = 0; i < tasks; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++cs.submitted;
        ++running_;
      }
      run_on_caller(cs, [&fn, i] { fn(i); });
    }
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->tasks = tasks;
  batch->cs = &cs;
  batch->start = Clock::now();
  std::size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Every task counts as one submitted job; the helpers are lanes, not
    // work, so they are queued without being counted.
    cs.submitted += tasks;
    if (!stop_) {
      helpers = std::min(config_.threads, tasks - 1);
      for (std::size_t h = 0; h < helpers; ++h) {
        cs.queue.push_back(Job{{}, nullptr, batch, batch->start});
      }
      pending_ += helpers;
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
  run_lane(*batch);
  std::unique_lock<std::mutex> lock(mu_);
  // Every task is claimed now, so a helper no worker has started would find
  // nothing to do: take it back out of the lane.
  const std::size_t queued = cs.queue.size();
  std::erase_if(cs.queue, [&](const Job& job) { return job.batch == batch; });
  pending_ -= queued - cs.queue.size();
  if (pending_ == 0 && running_ == 0) done_cv_.notify_all();
  done_cv_.wait(lock, [&] { return batch->done == tasks; });
}

void JobQueue::run_lane(Batch& batch) noexcept {
  std::vector<std::pair<double, double>> samples;  // (wait, run) per task
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
       i < batch.tasks; i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    const auto t0 = Clock::now();
    (*batch.fn)(i);
    const auto t1 = Clock::now();
    samples.emplace_back(elapsed_us(batch.start, t0), elapsed_us(t0, t1));
  }
  if (samples.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [wait_us, run_us] : samples) {
    batch.cs->record_wait(wait_us);
    batch.cs->record_run(run_us);
  }
  batch.cs->completed += samples.size();
  batch.done += samples.size();
  if (batch.done == batch.tasks) done_cv_.notify_all();
}

void JobQueue::drain() {
  if (config_.threads == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0 && running_ == 0; });
}

JobQueueStats JobQueue::stats() const {
  JobQueueStats out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kJobClassCount; ++i) {
    const ClassState& cs = classes_[i];
    JobClassStats& s = out.classes[i];
    s.name = job_class_name(static_cast<JobClass>(i));
    s.submitted = cs.submitted;
    s.completed = cs.completed;
    s.shed_depth = cs.shed_depth;
    s.shed_wait = cs.shed_wait;
    s.abandoned = cs.abandoned;
    s.depth = cs.queue.size();
    s.wait_mean_us = cs.wait_stats.mean();
    s.wait_max_us = cs.wait_stats.max();
    s.wait_p50_us = cs.wait_window.percentile(50.0);
    s.wait_p99_us = cs.wait_window.percentile(99.0);
    s.run_mean_us = cs.run_stats.mean();
    s.run_max_us = cs.run_stats.max();
    s.run_p50_us = cs.run_window.percentile(50.0);
    s.run_p99_us = cs.run_window.percentile(99.0);
  }
  return out;
}

void JobQueue::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (pending_ == 0) {
      if (stop_) return;
      continue;
    }
    // Highest-priority non-empty lane, FIFO within the lane.
    ClassState* cs = nullptr;
    for (auto& candidate : classes_) {
      if (!candidate.queue.empty()) {
        cs = &candidate;
        break;
      }
    }
    Job job = std::move(cs->queue.front());
    cs->queue.pop_front();
    --pending_;
    ++running_;
    if (job.batch == nullptr) cs->record_wait(elapsed_us(job.enqueued, Clock::now()));
    lock.unlock();
    if (job.batch != nullptr) {
      run_lane(*job.batch);  // records its own tasks
      lock.lock();
    } else {
      const auto t0 = Clock::now();
      job.fn();
      const double run_us = elapsed_us(t0, Clock::now());
      lock.lock();
      cs->record_run(run_us);
      ++cs->completed;
    }
    --running_;
    bool wake_waiters = pending_ == 0 && running_ == 0;
    if (job.ran != nullptr) {
      *job.ran = true;
      wake_waiters = true;
    }
    if (wake_waiters) done_cv_.notify_all();
  }
}

}  // namespace mv
