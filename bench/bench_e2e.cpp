// E16 — city-at-scale macro workloads through the whole stack (DESIGN.md §12).
//
// Each named mix drives the scenario generator's avatars — NFT churn with
// scam-pattern injection, DAO proposal/ballot waves, moderation report
// storms, reputation updates, privacy-audit records — through real Mempool
// admission, Blockchain assembly/append, JobQueue lanes, and subscription
// fan-out. The table records end-to-end throughput plus the queue/fan-out
// observability the paper's governance story depends on; every recording
// is then replayed serial+inline and must reproduce the per-block
// commitment roots bit for bit (the §12 determinism contract).
//
// The timed benchmarks re-run the same mixes at a reduced round count and
// export throughput, per-class queue p50/p99 waits, shed rates, and fan-out
// latency as counters into BENCH_e2e.json (scripts/check.sh).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "scenario/harness.h"
#include "scenario/shard_harness.h"

namespace {

using namespace mv;
using namespace mv::scenario;

constexpr const char* kMixes[] = {"market_rush", "governance_wave",
                                  "report_storm", "mixed_city"};

ScenarioConfig city_config(const std::string& mix, std::uint64_t avatars,
                           std::uint32_t rounds, std::uint32_t txs_per_round) {
  ScenarioConfig config;
  config.mix = mix;
  config.seed = 2022;
  config.avatars = avatars;
  config.rounds = rounds;
  config.txs_per_round = txs_per_round;
  config.max_txs_per_block = txs_per_round;
  return config;
}

/// The full stack: a 4-worker queue serving proof queries, push-fed
/// subscribers, and per-round proof queries. The O(n) full-rehash
/// cross-check is a test-only safety net, off here so the numbers measure
/// the pipeline, not the auditor.
ReplayOptions city_stack() {
  ReplayOptions opts;
  opts.use_job_queue = true;
  opts.queue_workers = 4;
  opts.subscribers = 64;
  opts.client_queries_per_round = 64;
  opts.check_full_rehash = false;
  return opts;
}

void print_row(const char* label, const RecordResult& rec, bool replay_ok) {
  const ReplayResult& run = rec.run;
  const auto& client = run.queue.of(JobClass::kClientQuery);
  const double txs_per_sec =
      run.wall_seconds > 0.0
          ? static_cast<double>(run.committed_txs) / run.wall_seconds
          : 0.0;
  const std::uint64_t query_attempts = run.queries_served + run.queries_shed;
  const double shed_rate =
      query_attempts > 0
          ? static_cast<double>(run.queries_shed) /
                static_cast<double>(query_attempts)
          : 0.0;
  std::printf("%-16s %8zu %10.0f %9.1f %9.1f %9.3f %9.1f %9.1f %7zu %s\n",
              label, run.committed_txs, txs_per_sec, client.wait_p50_us,
              client.wait_p99_us, shed_rate, run.subscriptions.fanout_p50_us,
              run.subscriptions.fanout_p99_us, rec.generated.scam_txs,
              replay_ok ? "ok" : "DIVERGED");
}

void print_table() {
  std::printf("=== E16: city-at-scale macro workloads (src/scenario/) ===\n");
  std::printf(
      "full stack: 4 queue workers, 64 subscribers, 64 proof queries/round;\n"
      "every trace replayed serial+inline and compared block-by-block\n"
      "against the recording.\n\n");
  std::printf("%-16s %8s %10s %9s %9s %9s %9s %9s %7s %s\n", "mix", "txs",
              "txs/sec", "q_p50us", "q_p99us", "shed", "fan_p50", "fan_p99",
              "scams", "replay");

  auto run_mix = [&](const char* label, const ScenarioConfig& config) {
    auto rec = record(config, city_stack());
    if (!rec.ok()) {
      std::printf("%-16s FAILED: %s\n", label, rec.error().to_string().c_str());
      return;
    }
    // The §12 contract: a serial, inline, subscriber-free replay of the same
    // trace must land on the identical per-block commitment roots.
    auto check = replay(rec.value().trace, ReplayOptions{});
    const bool ok = check.ok() && check.value().mismatched_blocks == 0 &&
                    check.value().violations.empty();
    print_row(label, rec.value(), ok);
  };

  for (const char* mix : kMixes) {
    run_mix(mix, city_config(mix, 10'000, 50, 512));
  }
  run_mix("mixed_city@1e5", city_config("mixed_city", 100'000, 20, 512));
  std::printf(
      "\nshape: tens of thousands of avatars clear the pipeline at\n"
      "ledger speed; queue waits stay bounded, fan-out tracks commits,\n"
      "and every mix replays byte-identically.\n\n");
}

// ------------------------------------------------------------- timed runs

/// One full record() per iteration at reduced depth; counters export the
/// queue/fan-out observability into BENCH_e2e.json.
void BM_E2ERecord(benchmark::State& state, const char* mix) {
  const ScenarioConfig config = city_config(mix, 10'000, 10, 256);
  const ReplayOptions opts = city_stack();
  std::size_t committed = 0;
  RecordResult last;
  for (auto _ : state) {
    auto rec = record(config, opts);
    if (!rec.ok()) {
      state.SkipWithError(rec.error().to_string().c_str());
      return;
    }
    committed += rec.value().run.committed_txs;
    last = std::move(rec).value();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
  const ReplayResult& run = last.run;
  for (const auto cls : {JobClass::kConsensus, JobClass::kValidation,
                         JobClass::kClientQuery}) {
    const auto& cs = run.queue.of(cls);
    if (cs.submitted == 0 && cs.shed() == 0) continue;
    const std::string name = cs.name;
    state.counters[name + "_wait_p50_us"] = cs.wait_p50_us;
    state.counters[name + "_wait_p99_us"] = cs.wait_p99_us;
    const double attempts = static_cast<double>(cs.submitted + cs.shed());
    state.counters[name + "_shed_rate"] =
        attempts > 0 ? static_cast<double>(cs.shed()) / attempts : 0.0;
  }
  state.counters["fanout_p50_us"] = run.subscriptions.fanout_p50_us;
  state.counters["fanout_p99_us"] = run.subscriptions.fanout_p99_us;
  state.counters["queries_shed"] =
      static_cast<double>(run.queries_shed);
}
BENCHMARK_CAPTURE(BM_E2ERecord, market_rush, "market_rush")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_E2ERecord, governance_wave, "governance_wave")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_E2ERecord, report_storm, "report_storm")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_E2ERecord, mixed_city, "mixed_city")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Replay cost of a pre-recorded trace across stack configurations — the
/// regression oracle's own overhead. Arg 0: serial, no queue; 1: 4 queue
/// workers; 2: 4 queue workers + subscribers and proof queries.
void BM_E2EReplay(benchmark::State& state) {
  auto rec = record(city_config("mixed_city", 10'000, 10, 256));
  if (!rec.ok()) {
    state.SkipWithError(rec.error().to_string().c_str());
    return;
  }
  const Trace trace = std::move(rec).value().trace;
  ReplayOptions opts;
  opts.check_full_rehash = false;
  if (state.range(0) >= 1) {
    opts.use_job_queue = true;
    opts.queue_workers = 4;
  }
  if (state.range(0) >= 2) {
    opts.subscribers = 64;
    opts.client_queries_per_round = 64;
  }
  std::size_t committed = 0;
  for (auto _ : state) {
    auto run = replay(trace, opts);
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    if (run.value().mismatched_blocks != 0) {
      state.SkipWithError("replay diverged from recording");
      return;
    }
    committed += run.value().committed_txs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
}
BENCHMARK(BM_E2EReplay)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Cross-shard-heavy multi-world mix through the sharded harness: 4 worlds,
/// every round carries lock-and-mint receipt traffic alongside intra-world
/// transfers, and each iteration replays the recorded trace end to end
/// (beacon roots verified against the recording). Arg = JobQueue workers
/// fanning the per-shard commits out (0 = serial). Single-core container:
/// worker counts > 0 price the fan-out, not wall-clock speedup.
void BM_E2EMultiWorldReplay(benchmark::State& state) {
  MultiWorldConfig config;
  config.num_shards = 4;
  config.seed = 2022;
  config.avatars = 64;
  config.validators = 3;
  config.rounds = 10;
  config.intra_per_round = 16;
  config.cross_per_round = 8;
  auto rec = record_multi_world(config);
  if (!rec.ok()) {
    state.SkipWithError(rec.error().to_string().c_str());
    return;
  }
  MultiWorldOptions opts;
  opts.queue_workers = static_cast<std::size_t>(state.range(0));
  opts.check_invariants = false;  // measure the pipeline, not the auditor
  std::size_t committed = 0;
  for (auto _ : state) {
    auto run = replay_multi_world(rec.value().trace, opts);
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    if (run.value().mismatched_rounds != 0) {
      state.SkipWithError("multi-world replay diverged from recording");
      return;
    }
    committed += run.value().committed_txs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
  state.counters["cross_transfers"] =
      static_cast<double>(rec.value().cross_transfers);
}
BENCHMARK(BM_E2EMultiWorldReplay)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // The 10^4–10^5-avatar table takes several seconds; timed CI emission
  // (scripts/check.sh) skips it, as with the other experiment binaries.
  if (std::getenv("MV_BENCH_NO_TABLE") == nullptr) print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
