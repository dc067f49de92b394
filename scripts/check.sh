#!/usr/bin/env bash
# Build and test three configurations: the normal RelWithDebInfo build, the
# ASan+UBSan build, and a ThreadSanitizer build that runs the suites
# exercising the job queue's worker threads. Also runs the e2e and ledger
# benchmarks into build/BENCH_e2e.json and build/BENCH_ledger.json, so a
# check leaves the tree clean. The committed BENCH_*.json at the repository
# root are re-recorded only on purpose: after a check on the machine whose
# figures they should hold, `cp build/BENCH_e2e.json build/BENCH_ledger.json .`
# and commit them. Run from the repository root. Exits non-zero on the first
# failing build, test, or missing gate.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure + build: default (RelWithDebInfo) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "${jobs}"

echo "== ctest: default =="
ctest --test-dir build --output-on-failure -j "${jobs}"

# gate <label> <regex>: run the ctest cases matching <regex>. Fails if the
# filter matches nothing (--no-tests=error, so a rename cannot silently empty
# a gate), if any case fails, or if gtest reports one skipped.
gate() {
  local label="$1" regex="$2" out verb="was"
  if [[ "${label}" == *tests ]]; then verb="were"; fi
  out="$(ctest --test-dir build -R "${regex}" --no-tests=error --output-on-failure 2>&1)" || {
    echo "${out}"
    echo "FAIL: ${label} did not run or did not pass"
    exit 1
  }
  if echo "${out}" | grep -qi 'skipped'; then
    echo "${out}"
    echo "FAIL: ${label} ${verb} skipped"
    exit 1
  fi
}

echo "== gate: differential commitment test must run (not be skipped) =="
# The incremental-vs-full-rehash differential test is the commitment format's
# safety net; --no-tests=error fails if a rename makes the filter match
# nothing, and the grep fails if gtest reports it skipped. The overlay's own
# cases ride along: commit, tombstones, the flattened store oracle and the
# death tests for committing a reader or hashing an indirect overlay.
gate "differential commitment test" 'Differential|LedgerStateOverlay'

echo "== gate: proof fuzz (10k keys + mutation sweep) must run (not be skipped) =="
# Every present key must prove, every absent key must non-membership-prove,
# and no single-byte mutation of an encoded proof may survive verification.
# WireIdentity pins the encoding of every public wire type to a SHA-256 and
# requires decode + re-encode to reproduce it byte for byte; its
# DecodeOutcomes case pins which error each truncation and byte flip decodes
# to. StrictDecode rides along: one trailing byte after a transaction body,
# contract arguments or a block stream must be refused, so a decoder that
# stops calling ByteReader::finish() fails this gate.
gate "proof fuzz test" 'ProofFuzz|WireIdentity|StrictDecode'

echo "== gate: ledger state layout (account table + arena Merkle map) =="
# The flat state's safety net: the open-addressing AccountTable against a
# std::map model (growth, erases inside probe chains, undo), and the arena
# MerkleMap against the structural oracle under erase-heavy churn that
# reuses freed slots, including proofs and copies with dirty hash caches.
gate "ledger state layout tests" 'AccountTable|MerkleMap'

echo "== gate: mempool: one record per (sender, nonce) =="
# A pending transaction's one identity is its (sender, nonce) slot: a
# duplicate is the slot's own occupant, replace-by-fee swaps it, and a
# committed block removes the slots it consumed, whatever variant pends
# there. These cases pin admission, selection, eviction and removal, TTL
# expiry against a brute-force stamp model (clock regressions included), and
# the audit that no entry pends below its sender's committed nonce.
gate "mempool: one record per (sender, nonce)" 'Mempool'

echo "== gate: one commit path (replica, committee, sharded ledger) =="
# Both drivers admit, propose and commit through ledger::Replica (DESIGN.md
# §7). These cases pin that a commit empties the pool on every path (the
# committee's quorum and sync paths, every shard of a round), that each
# replica owns the signature cache its chain and pool share, and the
# committee's behaviour under partitions, message loss and misdirected votes.
gate "one commit path" 'Replica|Consensus|ShardedLedger'

echo "== gate: snapshot differential + mutation fuzz must run (not be skipped) =="
# The snapshot codec's safety net: decode must reproduce the commitment
# byte-identically (differential vs full_rehash_commitment) and no
# single-byte mutation of a manifest or chunk may survive the trust chain.
gate "snapshot codec/mutation tests" 'Snapshot(Codec|ManifestCodec|Assembly)'

echo "== gate: job queue battery (priority, shedding, determinism) must run =="
# The queue is the scheduler under every subsystem; its suites (JobQueue*,
# including the JobQueueBatch run_batch cases) must never be silently renamed
# away or skipped.
gate "job queue tests" 'JobQueue'

echo "== gate: subscription read path + client API taxonomy must run =="
# The streaming read path's contract: lifecycle edge cases (eviction,
# unsubscribe-during-push, stale rejection), flood isolation (consensus
# never sheds while pushes do), gap recovery, the ClientApi error taxonomy,
# and the snapshot server's busy-NACK backoff.
gate "subscription/client-api tests" 'Subscription|ClientApi|SnapshotBusyNack'

echo "== gate: swarm catch-up (striping, byzantine demotion, diff snapshots) =="
# The multi-peer transfer's contract: striped fetch over a lossy network must
# converge byte-identically, a corrupt peer must be demoted while the sync
# still completes, busy NACKs must reroute instead of dead-ending, and diff
# snapshots must fetch exactly the changed chunks.
gate "swarm catch-up tests" 'SnapshotSwarm|SnapshotDiff|SnapshotExportCachePinning'

echo "== gate: scenario replay regression (golden traces, codec fuzz, invariants) =="
# The macro-workload harness (DESIGN.md §12): checked-in golden traces must
# replay byte-identically, every single-byte trace mutation must be rejected,
# the determinism sweep must agree across stack configurations, the
# cross-module invariant checker must pass on every replayed block, and a
# proposer committing sealed proposals must match a fully validating
# follower at every height (DESIGN.md §7).
gate "scenario replay-regression tests" 'Scenario(Trace|Golden|Invariant|Harness|Sealed)'

echo "== gate: on-chain contract tallies (DAO, reputation, store codec) =="
# Contracts read their stores by key only: a DAO vote adds its ballot to the
# tally in the proposal record, and finalize decides from that tally. These
# cases pin the tally (saturating under token weighting, quorum a head
# count), the reputation counters and the shared store-value codec.
gate "on-chain contract tallies" 'DaoContract|ReputationContract|StoreCodec'

echo "== gate: parallel block check (caller-helps batches, byte-identical results) =="
# On a threaded queue a block check verifies signatures and re-hashes the
# accounts tree as caller-helps run_batch tasks. These cases pin that the
# signature look-ahead keeps the serial loop's outcome and cache behaviour,
# that the parallel re-hash gives the serial root at every worker count,
# and that a batch finishes nested in a job or with every worker busy.
gate "parallel block check tests" 'ParallelBlockCheck|ParallelFlush|RunBatchNested|RunBatchCompletes'

echo "== gate: follower rollback (forged state roots leave no trace) =="
# An unsealed append commits first and checks the state root on the
# committed state; a forged root is rolled back through the undo. These
# cases pin that state, commitment, tip, retention ring, commit hook and
# account proofs are exactly as before a rejected block (DESIGN.md §7).
# GenesisAdoption pins that a chain commits every block (and rolls back a
# forged one) in the genesis object it adopted, and that chains started
# from copies of one genesis commit alike and never write the original.
gate "follower rollback tests" 'FollowerRollback|GenesisAdoption'

echo "== gate: sealed commits hash once (staged digests adopted, never trusted blind) =="
# A sealed append installs the digests assemble() or validate() staged
# instead of hashing the block again (DESIGN.md §7). These cases pin that
# every cached digest stays equal to the from-scratch commitment after each
# sealed commit, that every seal miss takes the full path, that a proposer
# on the sealed path matches a fully validating follower at every height,
# and that MerkleMap::adopt of a stage lands on update()'s tree with no
# dirty node, or stamps nothing on a changed base.
gate "sealed commits hash once" 'SealedProposal|ScenarioSealed|StageThenAdopt'

echo "== gate: sharded ledger (beacon anchors, cross-shard receipts, multi-world) =="
# The shard split's contract: N=1 byte-identity with the plain chain, beacon
# roots stable across thread counts, lock-and-mint receipts with replay and
# stale/foreign-root rejection, the receipt-codec mutation fuzz, and
# multi_world:<n> traces replaying byte-identically through the scenario
# harness at every queue worker count.
gate "sharded ledger tests" 'Shard|Beacon|CrossShard|MultiWorld'

echo "== gate: trust chain: one header check (blocks, anchors, light clients, beacons) =="
# Every header consumer decides through ledger/header_check.h. The table
# sends the same forged headers (height, parent, off-schedule proposer,
# flipped signature) to append, validate, a LightClient, a SubscriptionFeed
# push, the snapshot anchor and a BeaconFollower and pins one header.* code
# for all of them; the light-client battery and the beacon follower cases
# (forgeries rejected, composed proofs only at an accepted beacon) ride along.
gate "trust chain: one header check" 'HeaderCheck|LightClient|Beacon'

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

echo "== bench: e2e macro workloads -> build/BENCH_e2e.json =="
MV_BENCH_NO_TABLE=1 ./build/bench/bench_e2e \
  --benchmark_out=build/BENCH_e2e.json \
  --benchmark_out_format=json

echo "== bench: ledger microbenchmarks -> build/BENCH_ledger.json (median of 3) =="
MV_BENCH_NO_TABLE=1 ./build/bench/bench_ledger \
  --benchmark_filter='BM_BlockAssembleValidate|BM_BlockValidate|BM_FollowerAppend|BM_ProposerRound|BM_GenesisBuild|BM_CommitmentAfterTouch|BM_TxApplyTransfer|BM_MempoolSelectRemove|BM_AccountProofRoundTrip|BM_AccountProofWire|BM_CatchUp|BM_DiffSnapshot|BM_SnapshotExportImport|BM_BlockValidateSigCache|BM_JobQueue|BM_SubscriptionFanout|BM_ShardedPipeline' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=build/BENCH_ledger.json \
  --benchmark_out_format=json

echo "== configure + build: asan-ubsan =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMV_SANITIZE=ON
cmake --build build-asan -j "${jobs}"

echo "== ctest: asan-ubsan =="
ctest --test-dir build-asan --output-on-failure -j "${jobs}"

# The suites that run work on job queue workers, built and run under TSan.
tsan_suites=(common_test job_queue_test crypto_test parallel_test ledger_test
  snapshot_test subscription_test net_test scenario_test shard_test sealed_test)

echo "== configure + build: tsan =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMV_TSAN=ON
cmake --build build-tsan -j "${jobs}" --target "${tsan_suites[@]}"

echo "== tsan: suites that run work on job queue workers =="
# halt_on_error turns the first data race into a non-zero exit instead of a
# warning that scrolls past; the suites below cover the job queue
# (priority/shedding under real workers, destructor-during-batch), chains and
# consensus replicas configured with threaded queues (proof queries on
# workers, signature checks and the accounts re-hash as caller-helps batches
# while blocks apply on the calling thread), the parallel Merkle flush, the
# queue-routed gossip/snapshot paths,
# the subscription fan-out (worker-thread pushes racing subscribe/ack
# handling), the end-to-end scenarios, and the sharded commit fan-out and
# sealed-proposal differential (shard chains on queue workers).
# Each binary runs outside ctest, so `timeout` turns a hang into a failure
# (the slowest binary, ledger_test, takes ~33 s under TSan on 4 cores).
for t in "${tsan_suites[@]}"; do
  echo "-- tsan: ${t}"
  TSAN_OPTIONS="halt_on_error=1" timeout 900 "./build-tsan/tests/${t}"
done

echo "All checks passed."
