#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at a tiny KB scale.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced and
checks that each run exits 0, prints the result object as its last line
with exactly the keys correct/attempted/failed/metrics, passes its
output checks (correct, no failed operation), and emits every metric
BENCHMARK.json names for that mode, with its unit.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.005"
SECONDS = "3"


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def problems(result, wanted):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        out.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        out.append("failed %r" % result.get("failed"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        out.append("attempted %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        out.append("metrics missing %s extra %s" % (missing, extra))
    for name, unit in names.items():
        m = metrics.get(name)
        if m is not None and m.get("unit") != unit:
            out.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
        if m is not None and not isinstance(m.get("value"), (int, float)):
            out.append("%s value %r" % (name, m.get("value")))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, err = run(w["name"], trace)
            issues = [err] if err else problems(result, wanted)
            if trace == 0 and not issues:
                issues = ["%s is 0" % m["name"] for m in wanted
                          if result["metrics"][m["name"]]["value"] == 0]
            status = "ok" if not issues else "FAIL " + "; ".join(issues)
            print("%-14s trace=%d  %s" % (w["name"], trace, status), flush=True)
            failures += bool(issues)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
