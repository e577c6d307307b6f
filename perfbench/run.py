#!/usr/bin/env python3
"""Seeded benchmark of the simulator and its choice-resolving runtime.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, then runs reps of the workload,
each in a fresh process, for about S seconds (at least MIN_REPS reps).
A rep of a seed repeats the same work unit for unit, so wall_s sums
each timed unit's fastest time over the reps. setup_s is the fastest
rep's; alloc_mw and heap_peak_mb are medians over reps.
Every rep of a seed must produce the same digest of simulated results.

--trace 0 prints the end-to-end metrics.
--trace 1 runs an untraced rep, an untraced rep that times runtime
decisions and a traced rep, checks that their digests agree, and
prints the per-layer metrics of the traced rep and the decision
latencies of the second; on paxos5-steady it also runs the layer
ladder.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when the build fails or the outputs disagree.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
MIN_REPS = 2
REP_TIMEOUT = 150


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("run from the root of the repository (no dune-project here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def run_exe(args):
    r = subprocess.run(
        [EXE] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("rep failed: " + " ".join(args))
    return json.loads(r.stdout.strip().splitlines()[-1])


def rep(workload, seed, *flags):
    return run_exe(["--workload", workload, "--seed", str(seed)] + list(flags))


def measure(workload, seed, seconds):
    """Reps until the next one would end past [seconds]."""
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            break
        r = rep(workload, seed)
        log(
            "rep %d: wall_s=%.4f setup_s=%.6f alloc_mw=%.3f heap_peak_mb=%.2f digest=%s"
            % (len(reps) + 1, r["wall_s"], r["setup_s"], r["alloc_mw"], r["heap_peak_mb"], r["digest"])
        )
        reps.append(r)
    return reps


def fastest_units(reps):
    """Each timed unit's fastest time over the reps, in ms.

    A seed repeats the same work unit for unit in every rep, so unit i
    of one rep is unit i of every other. Other tenants of a shared host
    can only slow a unit down, and they do so for seconds to minutes at
    a time, so a unit's fastest repeat is the one least disturbed by
    them.
    """
    lengths = {len(r["units_ms"]) for r in reps}
    if len(lengths) != 1:
        fail("reps of one seed timed different numbers of units: %s" % sorted(lengths))
    return [min(xs) for xs in zip(*(r["units_ms"] for r in reps))]


def end_to_end(reps):
    """wall_s from each unit's fastest repeat, setup_s from the fastest
    rep, memory figures as medians over reps."""
    values = {k: statistics.median(r[k] for r in reps) for k in ("alloc_mw", "heap_peak_mb")}
    values["wall_s"] = sum(fastest_units(reps)) / 1000
    values["setup_s"] = min(r["setup_s"] for r in reps)
    log(
        "median over reps: wall_s=%.4f setup_s=%.6f"
        % (statistics.median(r["wall_s"] for r in reps), statistics.median(r["setup_s"] for r in reps))
    )
    return values


def main():
    # A SIGTERM ends the run through SystemExit, on which subprocess.run
    # kills and reaps the rep it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    build()

    metrics = spec["per_layer"] if a.trace else spec["end_to_end"]
    values = {}
    if a.trace:
        base = rep(a.workload, a.seed)
        timed = rep(a.workload, a.seed, "--decisions")
        traced = rep(a.workload, a.seed, "--trace")
        digests = [base["digest"], timed["digest"], traced["digest"]]
        first = base
        values.update(traced["layers"])
        values.update(timed["decide"])
        values["trace_overhead"] = traced["wall_s"] / base["wall_s"]
        log("untraced wall_s=%.4f traced wall_s=%.4f" % (base["wall_s"], traced["wall_s"]))
        if a.workload == "paxos5-steady":
            ladder = run_exe(["--ladder", str(max(3.0, a.seconds)), "--seed", str(a.seed)])
            log("ladder: %d paired reps" % ladder["reps"])
            values.update(ladder["layers"])
        else:
            # The ladder runs on paxos5-steady only.
            values.update({m["name"]: 0.0 for m in metrics if m["name"].startswith("ladder.")})
        for k in sorted(traced["layers"]):
            log("layer %-24s %s" % (k, traced["layers"][k]))
    else:
        reps = measure(a.workload, a.seed, a.seconds)
        digests = [r["digest"] for r in reps]
        first = reps[0]
        values.update(end_to_end(reps))
    log("sim: " + json.dumps(first["sim"]))

    correct = len(set(digests)) == 1
    if not correct:
        log("digest mismatch between reps of seed %d: %s" % (a.seed, sorted(set(digests))))
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        fail("metrics missing from the reps: " + ", ".join(missing))
    result = {
        "correct": correct,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result), flush=True)
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
