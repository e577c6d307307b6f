#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload it makes a short untraced run (two reps, so their
digests are compared) and a traced run (traced against untraced
digest), and checks the printed result against the schema and the
metric lists of BENCHMARK.json, and that the traced per-layer self
times plus the untimed remainder add up to the traced wall time. It also checks that run.py refuses to
run, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

# The per-layer self times: with the untimed remainder they must add up
# to the traced wall time.
SELF_TIMES = [
    "engine.self_ms",
    "engine.fork_ms",
    "props.ms",
    "objective.ms",
    "resolver.ms",
    "app.handler_ms",
    "app.guard_ms",
    "durable.log_ms",
    "validate.ms",
    "fingerprint.ms",
    "explore.ms",
    "checkpoint.ms",
    "steer.ms",
]

def check(cond, msg):
    if not cond:
        print("FAIL: " + msg, flush=True)
        sys.exit(1)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    check(lines, "no output")
    return json.loads(lines[-1])


def check_schema(res, metrics, what):
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, what + ": result keys " + str(sorted(res)))
    check(res["correct"] is True, what + ": outputs disagree")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1, what + ": attempted")
    check(isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"], what + ": failed")
    check(
        sorted(res["metrics"]) == sorted(m["name"] for m in metrics),
        what + ": metric names differ from BENCHMARK.json",
    )
    for m in metrics:
        got = res["metrics"][m["name"]]
        check(set(got) == {"value", "unit"}, what + ": keys of " + m["name"])
        check(got["unit"] == m["unit"], what + ": unit of " + m["name"])
        check(isinstance(got["value"], (int, float)), what + ": value of " + m["name"])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = "%s --trace %d" % (w["name"], trace)
            r = subprocess.run(
                spec["command"]
                + ["--workload", w["name"], "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            check(r.returncode == 0, what + ": exit code %d" % r.returncode)
            res = result_of(r.stdout)
            check_schema(res, metrics, what)
            values = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                for m in metrics:
                    check(values[m["name"]] > 0, what + ": %s is 0" % m["name"])
            else:
                covered = sum(values[k] for k in SELF_TIMES) + values["trace.untimed_ms"]
                check(
                    abs(covered - 1000 * values["trace.wall_s"]) < 1.0,
                    what + ": self times add up to %.3f ms, traced wall is %.3f ms"
                    % (covered, 1000 * values["trace.wall_s"]),
                )
            print("ok " + what, flush=True)

    bare = os.path.join(".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    r = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    shutil.rmtree(bare)
    check(r.returncode != 0, "run.py succeeded without the repository")
    check('"metrics"' not in r.stdout, "run.py printed a result without the repository")
    print("ok refuses to run without the repository", flush=True)


if __name__ == "__main__":
    main()
