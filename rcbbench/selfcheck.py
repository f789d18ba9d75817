"""The benchmark's own check: every workload, briefly, under two seeds.

    python3 rcbbench/selfcheck.py

Runs ``run.py`` one round at a time (``--seconds 1 --rounds 1``) for
each workload under seeds 1 and 2, seed 1 twice, and once traced.  It
fails unless every run reports ``correct``, the metric names and units
match ``BENCHMARK.json``, the sync-time and byte metrics of the two
seed-1 runs are identical, the failed share is the same under both
seeds, and the traced run's layer self times add up to its traced wall
time within 5%.  Each run is a child process that is waited for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("sync_sim_ms_p50", "sync_sim_ms_p95", "wire_bytes_per_op")


def run(workload, seed, trace=0):
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--rounds", "1",
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, again, other = run(workload, 1), run(workload, 1), run(workload, 2)
        traced = run(workload, 1, trace=1)
        for label, result, names in (
            ("seed 1", first, end_to_end),
            ("seed 1 again", again, end_to_end),
            ("seed 2", other, end_to_end),
            ("traced", traced, per_layer),
        ):
            if not result["correct"]:
                problems.append("%s %s: correct is false" % (workload, label))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                problems.append("%s %s: metrics differ from BENCHMARK.json" % (workload, label))
        for name in DETERMINISTIC:
            a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s is %r then %r under one seed" % (workload, name, a, b))
        shares = [r["failed"] / r["attempted"] for r in (first, again, other, traced)]
        if len(set(shares)) != 1:
            problems.append("%s: failed share differs between runs: %r" % (workload, shares))
        share = traced["metrics"]["trace.self_time_share"]["value"]
        if abs(share - 1.0) > 0.05:
            problems.append("%s: layer self times cover %.3f of traced wall" % (workload, share))
        print(
            "%-9s ok=%s  failed share %.4f  self-time share %.4f  %s"
            % (
                workload,
                all(r["correct"] for r in (first, again, other, traced)),
                shares[0],
                share,
                "  ".join("%s=%g" % (n, first["metrics"][n]["value"]) for n in DETERMINISTIC),
            )
        )
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
