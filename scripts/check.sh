#!/usr/bin/env bash
# Build and test three configurations: the normal RelWithDebInfo build, the
# ASan+UBSan build, and a ThreadSanitizer build that runs the suites
# exercising the job queue's worker threads. Also emits ledger
# benchmark medians to BENCH_ledger.json. Run from the repository root.
# Exits non-zero on the first failing build, test, or missing gate.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure + build: default (RelWithDebInfo) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "${jobs}"

echo "== ctest: default =="
ctest --test-dir build --output-on-failure -j "${jobs}"

echo "== gate: differential commitment test must run (not be skipped) =="
# The incremental-vs-full-rehash differential test is the commitment format's
# safety net; --no-tests=error fails if a rename makes the filter match
# nothing, and the grep fails if gtest reports it skipped.
diff_out="$(ctest --test-dir build -R 'Differential' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${diff_out}"
  echo "FAIL: differential commitment test did not run or did not pass"
  exit 1
}
if echo "${diff_out}" | grep -qi 'skipped'; then
  echo "${diff_out}"
  echo "FAIL: differential commitment test was skipped"
  exit 1
fi

echo "== gate: proof fuzz (10k keys + mutation sweep) must run (not be skipped) =="
# Every present key must prove, every absent key must non-membership-prove,
# and no single-byte mutation of an encoded proof may survive verification.
fuzz_out="$(ctest --test-dir build -R 'ProofFuzz' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${fuzz_out}"
  echo "FAIL: proof fuzz test did not run or did not pass"
  exit 1
}
if echo "${fuzz_out}" | grep -qi 'skipped'; then
  echo "${fuzz_out}"
  echo "FAIL: proof fuzz test was skipped"
  exit 1
fi

echo "== gate: snapshot differential + mutation fuzz must run (not be skipped) =="
# The snapshot codec's safety net: decode must reproduce the commitment
# byte-identically (differential vs full_rehash_commitment) and no
# single-byte mutation of a manifest or chunk may survive the trust chain.
snap_out="$(ctest --test-dir build -R 'Snapshot(Codec|ManifestCodec|Assembly)' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${snap_out}"
  echo "FAIL: snapshot codec/mutation tests did not run or did not pass"
  exit 1
}
if echo "${snap_out}" | grep -qi 'skipped'; then
  echo "${snap_out}"
  echo "FAIL: snapshot codec/mutation tests were skipped"
  exit 1
fi

echo "== gate: job queue battery (priority, shedding, determinism) must run =="
# The queue is the scheduler under every subsystem; its suite must never be
# silently renamed away or skipped.
jq_out="$(ctest --test-dir build -R 'JobQueue' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${jq_out}"
  echo "FAIL: job queue tests did not run or did not pass"
  exit 1
}
if echo "${jq_out}" | grep -qi 'skipped'; then
  echo "${jq_out}"
  echo "FAIL: job queue tests were skipped"
  exit 1
fi

echo "== gate: subscription read path + client API taxonomy must run =="
# The streaming read path's contract: lifecycle edge cases (eviction,
# unsubscribe-during-push, stale rejection), flood isolation (consensus
# never sheds while pushes do), gap recovery, the ClientApi error taxonomy,
# and the snapshot server's busy-NACK backoff.
sub_out="$(ctest --test-dir build -R 'Subscription|ClientApi|SnapshotBusyNack' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${sub_out}"
  echo "FAIL: subscription/client-api tests did not run or did not pass"
  exit 1
}
if echo "${sub_out}" | grep -qi 'skipped'; then
  echo "${sub_out}"
  echo "FAIL: subscription/client-api tests were skipped"
  exit 1
fi

echo "== gate: swarm catch-up (striping, byzantine demotion, diff snapshots) =="
# The multi-peer transfer's contract: striped fetch over a lossy network must
# converge byte-identically, a corrupt peer must be demoted while the sync
# still completes, busy NACKs must reroute instead of dead-ending, and diff
# snapshots must fetch exactly the changed chunks.
swarm_out="$(ctest --test-dir build -R 'SnapshotSwarm|SnapshotDiff|SnapshotExportCachePinning' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${swarm_out}"
  echo "FAIL: swarm catch-up tests did not run or did not pass"
  exit 1
}
if echo "${swarm_out}" | grep -qi 'skipped'; then
  echo "${swarm_out}"
  echo "FAIL: swarm catch-up tests were skipped"
  exit 1
fi

echo "== gate: scenario replay regression (golden traces, codec fuzz, invariants) =="
# The macro-workload harness (DESIGN.md §12): checked-in golden traces must
# replay byte-identically, every single-byte trace mutation must be rejected,
# the determinism sweep must agree across stack configurations, the
# cross-module invariant checker must pass on every replayed block, and a
# proposer committing sealed proposals must match a fully validating
# follower at every height (DESIGN.md §7).
scen_out="$(ctest --test-dir build -R 'Scenario(Trace|Golden|Invariant|Harness|Sealed)' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${scen_out}"
  echo "FAIL: scenario replay-regression tests did not run or did not pass"
  exit 1
}
if echo "${scen_out}" | grep -qi 'skipped'; then
  echo "${scen_out}"
  echo "FAIL: scenario replay-regression tests were skipped"
  exit 1
fi

echo "== gate: follower rollback (forged state roots leave no trace) =="
# An unsealed append commits first and checks the state root on the
# committed state; a forged root is rolled back through the undo. These
# cases pin that state, commitment, tip, retention ring, commit hook and
# account proofs are exactly as before a rejected block (DESIGN.md §7).
rollback_out="$(ctest --test-dir build -R 'FollowerRollback' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${rollback_out}"
  echo "FAIL: follower rollback tests did not run or did not pass"
  exit 1
}
if echo "${rollback_out}" | grep -qi 'skipped'; then
  echo "${rollback_out}"
  echo "FAIL: follower rollback tests were skipped"
  exit 1
fi

echo "== gate: sharded ledger (beacon anchors, cross-shard receipts, multi-world) =="
# The shard split's contract: N=1 byte-identity with the plain chain, beacon
# roots stable across thread counts, lock-and-mint receipts with replay and
# stale/foreign-root rejection, the receipt-codec mutation fuzz, and the
# multi-world trace replaying byte-identically through the sharded harness.
shard_out="$(ctest --test-dir build -R 'Shard|Beacon|CrossShard|MultiWorld' --no-tests=error --output-on-failure 2>&1)" || {
  echo "${shard_out}"
  echo "FAIL: sharded ledger tests did not run or did not pass"
  exit 1
}
if echo "${shard_out}" | grep -qi 'skipped'; then
  echo "${shard_out}"
  echo "FAIL: sharded ledger tests were skipped"
  exit 1
fi

echo "== lint: benches with off-thread work report wall-clock rates =="
# A benchmark whose work runs on JobQueue/ThreadPool workers must not derive
# its rates from the benchmark thread's CPU time: every registration in a
# bench file that uses either needs UseRealTime() (or UseManualTime()).
lint_fail=0
for f in bench/*.cpp; do
  grep -qE 'JobQueue|ThreadPool' "${f}" || continue
  missing="$(tr '\n' ' ' < "${f}" | grep -oE 'BENCHMARK(_CAPTURE)?\([^;]*;' \
    | grep -vE 'UseRealTime|UseManualTime' | grep -oE '^BENCHMARK(_CAPTURE)?\([^,)]*' || true)"
  if [[ -n "${missing}" ]]; then
    echo "${f}: registered without UseRealTime():"
    echo "${missing}"
    lint_fail=1
  fi
done
if [[ "${lint_fail}" -ne 0 ]]; then
  echo "FAIL: bench timing lint"
  exit 1
fi

echo "== bench: e2e macro workloads -> BENCH_e2e.json =="
MV_BENCH_NO_TABLE=1 ./build/bench/bench_e2e \
  --benchmark_out=BENCH_e2e.json \
  --benchmark_out_format=json

echo "== bench: ledger microbenchmarks -> BENCH_ledger.json (median of 3) =="
MV_BENCH_NO_TABLE=1 ./build/bench/bench_ledger \
  --benchmark_filter='BM_BlockAssembleValidate|BM_BlockValidate|BM_CommitmentAfterTouch|BM_TxApplyTransfer|BM_MempoolSelectRemove|BM_AccountProofRoundTrip|BM_CatchUp|BM_DiffSnapshot|BM_SnapshotExportImport|BM_BlockValidateSigCache|BM_JobQueue|BM_SubscriptionFanout|BM_ShardedPipeline' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_ledger.json \
  --benchmark_out_format=json

echo "== configure + build: asan-ubsan =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMV_SANITIZE=ON
cmake --build build-asan -j "${jobs}"

echo "== ctest: asan-ubsan =="
ctest --test-dir build-asan --output-on-failure -j "${jobs}"

echo "== configure + build: tsan =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMV_TSAN=ON
cmake --build build-tsan -j "${jobs}" --target \
  common_test job_queue_test crypto_test parallel_test ledger_test snapshot_test subscription_test net_test scenario_test shard_test sealed_test

echo "== tsan: suites that run work on job queue workers =="
# halt_on_error turns the first data race into a non-zero exit instead of a
# warning that scrolls past; the suites below cover the job queue
# (priority/shedding under real workers, destructor-during-batch), chains and
# consensus replicas configured with threaded queues (proof queries on
# workers while blocks apply inline), the queue-routed gossip/snapshot paths,
# the subscription fan-out (worker-thread pushes racing subscribe/ack
# handling), the end-to-end scenarios, and the sharded commit fan-out and
# sealed-proposal differential (shard chains on queue workers).
for t in common_test job_queue_test crypto_test parallel_test ledger_test snapshot_test subscription_test net_test scenario_test shard_test sealed_test; do
  echo "-- tsan: ${t}"
  TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/${t}"
done

echo "All checks passed."
