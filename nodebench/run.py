#!/usr/bin/env python3
"""Node benchmark: end-to-end and per-layer figures for the ledger node.

Usage (from the root of a checkout):

    python3 nodebench/run.py --workload city_proposer --seed 1 --seconds 10 --trace 0

Steps:
  1. Build `nodebench` (this directory's CMake package, which compiles the
     repository's library sources) into .bench_build/nodebench.
  2. Generator phase: one `nodebench gen` process turns (workload, seed) into
     encoded inputs. It is excluded from every metric.
  3. Node phase: several `nodebench node` processes in turn replay those
     inputs. Machine noise moves whole processes, so the figures are medians
     over processes (and over rounds), not one long process. End-to-end
     timings are scaled by a reference kernel timed next to them (see
     REFERENCE_MS); the unscaled figures are printed alongside.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced processes, which
alternate with untraced ones so that trace.overhead compares the two.
Earlier stdout lines list every metric with its unit and sample count.
The command exits non-zero when any output is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "nodebench"
BINARY = BUILD / "nodebench"
# Every run ends within this many seconds of its node phase starting, even
# when a node hangs (its process is killed and the run fails).
RUN_LIMIT_S = 160

# Seconds one node process takes on the 4-core machine the bounds were
# recorded on. A run starts round(seconds / this) processes and stops
# launching more at DEADLINE_FACTOR * seconds (after at least MIN_PROCESSES),
# which keeps a run's length bounded on a slower or busier machine.
WORKLOADS = {
    "city_proposer": 0.9,
    "transfer_follower": 2.3,
    "multi_world": 1.2,
}
MIN_PROCESSES = 4
DEADLINE_FACTOR = 1.2
# The reference kernel's time in ms (node/drive.cpp, Reference) on the
# machine the bounds were recorded on. Each process runs the kernel before
# every round, on that round's core, and end-to-end timings are scaled by
# REFERENCE_MS / (the kernel's time next to them): slowdowns from other
# tenants move the kernel and the node alike and cancel, while a change to
# the node's code moves only the node. This constant only sets the scale.
REFERENCE_MS = 1.0
# Tail percentiles, highest first: a tail reports the highest one that
# leaves at least TAIL_MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log(f"nodebench: {message}")
    sys.exit(2)


def declared_metrics():
    """name -> unit for the end-to-end and per-layer metrics BENCHMARK.json
    declares; each run reports exactly one of the two sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(cpu_count())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def generate(workload, seed):
    """Encoded inputs for (workload, seed), cached until the binary changes."""
    inputs = BUILD / "inputs" / f"{workload}-{seed}.bin"
    inputs.parent.mkdir(exist_ok=True)
    if inputs.is_file() and inputs.stat().st_mtime >= BINARY.stat().st_mtime:
        return inputs
    started = time.monotonic()
    tmp = inputs.with_suffix(".tmp")
    subprocess.run([str(BINARY), "gen", workload, str(seed), str(tmp)],
                   check=True, stdout=sys.stderr, timeout=RUN_LIMIT_S / 2)
    tmp.replace(inputs)
    log(f"generated {inputs.name} in {time.monotonic() - started:.2f}s")
    return inputs


def run_node(inputs, traced, workers, spans, timeout):
    """(exit code, report or None); a node that outlives `timeout` is killed."""
    cmd = [str(BINARY), "node", str(inputs), "1" if traced else "0",
           str(workers), str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else None
    return proc.returncode, report


def tail(samples):
    """(percentile, value): the highest listed percentile that has at least
    TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            idx = min(n - 1, int(round(p / 100.0 * (n - 1))))
            return p, ordered[idx]
    return 50.0, statistics.median(ordered)


def tails(reports):
    """round.tail_ms and read.tail_us over the pooled samples of `reports`.
    They swing too much from run to run to bound, so they are per-layer
    figures (and printed, not bounded, in untraced runs)."""
    rounds = [x for r in reports for x in r["round_ms"]]
    reads = [x for r in reports for x in r["read_us"]]
    round_pct, round_tail = tail(rounds)
    read_pct, read_tail = tail(reads)
    return {
        "round.tail_ms": (round_tail, len(rounds), f"p{round_pct:g} of rounds"),
        "read.tail_us": (read_tail, len(reads), f"p{read_pct:g} of reads"),
    }


def machine_scale(report):
    """REFERENCE_MS over the process's median reference time."""
    return REFERENCE_MS / statistics.median(report["ref_ms"])


def raw_figures(reports):
    """Unscaled timings, printed next to the scaled end-to-end metrics."""
    return {
        "raw.commit_tps": (statistics.median(r["committed"] / r["loop_s"]
                                             for r in reports),
                           len(reports), "tx/s, unscaled"),
        "raw.round_p50_ms": (statistics.median(statistics.median(r["round_ms"])
                                               for r in reports),
                             len(reports), "ms, unscaled"),
        "reference.run_ms": (statistics.median(x for r in reports for x in r["ref_ms"]),
                             sum(len(r["ref_ms"]) for r in reports),
                             "ms, reference kernel"),
    }


def end_to_end(reports):
    """Metric name -> (value, sample count, note). Timings are scaled to the
    reference kernel (see REFERENCE_MS); rounds one by one, the rest per
    process."""
    setups = [x * machine_scale(r) for r in reports for x in r["setup_s"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "commit_tps": (statistics.median(r["committed"] / r["loop_s"] / machine_scale(r)
                                         for r in reports),
                       len(reports), "median over processes, scaled"),
        "round_p50_ms": (statistics.median(
                             statistics.median(x * REFERENCE_MS / ref for x, ref
                                               in zip(r["round_ms"], r["ref_ms"]))
                             for r in reports),
                         sum(len(r["round_ms"]) for r in reports),
                         "median of process medians, each round scaled"),
        "read_p50_us": (statistics.median(statistics.median(r["read_us"]) * machine_scale(r)
                                          for r in reports),
                        sum(len(r["read_us"]) for r in reports),
                        "median of process medians, scaled"),
        "ok_ratio": ((attempted - failed) / attempted, attempted, "ops"),
        "setup_s": (statistics.median(setups), len(setups), "median, scaled"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports),
                        len(reports), "median over processes"),
    }


def per_layer(traced, untraced):
    """The node's own layer figures (median over traced processes), the
    tracing overhead, and the tails of the untraced processes."""
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        out[name] = (statistics.median(values), len(values), "median over processes")
    traced_p50 = statistics.median(statistics.median(r["round_ms"]) for r in traced)
    plain_p50 = statistics.median(statistics.median(r["round_ms"]) for r in untraced)
    out["trace.overhead"] = (traced_p50 / plain_p50, len(traced) + len(untraced),
                             "traced / untraced round_p50_ms")
    out.update(tails(untraced))
    out["reference.run_ms"] = raw_figures(untraced)["reference.run_ms"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ledger" / "chain.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    end_to_end_units, per_layer_units = declared_metrics()
    build()
    begun = time.monotonic()
    inputs = generate(args.workload, args.seed)

    nproc = cpu_count()
    # The calling thread and the thread hosting the JobQueue's pool come on
    # top of the workers, so 2 workers fill a 4-core machine.
    workers = max(0, min(2, nproc - 2))
    processes = max(MIN_PROCESSES, round(args.seconds / WORKLOADS[args.workload]))
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)

    reports, problems = [], []
    started = time.monotonic()
    budget = RUN_LIMIT_S - (started - begun)
    for i in range(processes):
        if (i >= MIN_PROCESSES and
                time.monotonic() - started > DEADLINE_FACTOR * args.seconds):
            log(f"deadline: stopping after {i} of {processes} processes")
            break
        # Traced runs alternate traced and untraced processes.
        traced = args.trace == 1 and i % 2 == 1
        spans = spans_dir / f"{args.workload}-{i}.csv"
        left = budget - (time.monotonic() - started)
        code, report = run_node(inputs, traced, workers, spans, max(1.0, left))
        if report is None:
            problems.append(f"node process {i} exited {code} without a report")
            break
        reports.append(report)
        if code != 0 or report["failed"]:
            problems.append(f"node process {i} exited {code}: {report['errors']}")
        if report["threads"] > nproc:
            problems.append(f"node process {i} ran {report['threads']} threads "
                            f"on {nproc} cores")
    if not reports:
        fail("; ".join(problems))
    log(f"{len(reports)} node processes in {time.monotonic() - started:.1f}s, "
        f"{reports[0]['threads']} threads each ({workers} queue workers, "
        f"nproc {nproc})")

    if args.trace:
        traced = [r for r in reports if r["traced"]]
        untraced = [r for r in reports if not r["traced"]]
        if not traced or not untraced:
            fail("traced run needs traced and untraced processes")
        metrics, units = per_layer(traced, untraced), per_layer_units
        shown = {}
    else:
        metrics, units = end_to_end(reports), end_to_end_units
        shown = {**tails(reports), **raw_figures(reports)}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"no figure for declared metrics {missing}")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(reports)} processes, threads {reports[0]['threads']}")
    for name in units:
        value, count, note = metrics.get(name, (float("nan"), 0, "missing"))
        print(f"  {name:30s} {value:14.6g} {units[name]:6s} n={count:<7d} {note}")
    for name, (value, count, note) in shown.items():
        unit = per_layer_units.get(name, "")
        print(f"  {name:30s} {value:14.6g} {unit:6s} n={count:<7d} {note} (unbounded)")
    for problem in problems:
        print(f"  FAIL {problem}")

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
