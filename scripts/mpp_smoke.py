#!/usr/bin/env python3
"""One closure loop, two executors: `probkb expand --sc` on the single
node and on the simulated MPP cluster.

Expands a generated KB with its semantic constraints enforced on each
route at PROBKB_DOMAINS=1 and 4, once to convergence and once capped at
`--max-iterations 2`.  The four runs of one budget must write the same
file (`--out`), line for line: it lists TΠ in row order, so the comparison
covers every fact's id as well as the facts, and the MPP executor
returns every query's rows in the single node's order.  They must also
report the same `new_fact_count`, `removed_by_constraints`,
`n_factors`, `iterations` and trajectory in `--metrics json`.  The
constraints must have removed something, so the comparison covers the
constraint passes.  The capped runs must stop short of convergence:
their factors then come in part from the one extra delta pass the
closure runs over its last iteration's facts, so that pass runs end to
end on every route.

Usage: mpp_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv, rules.mln and constraints.tsv (from
`probkb generate`).
"""

import json
import os
import subprocess
import sys
import tempfile

FIELDS = ("new_fact_count", "removed_by_constraints", "n_factors",
          "iterations", "trajectory")

ROUTES = ("single", "mpp")

# The iteration budgets: the default (the closure converges) and a cap
# it stops at.
CAPS = (None, 2)


def fail(msg):
    print(f"mpp smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def run(exe, data, out_dir, route, domains, cap):
    name = f"{route}-{domains}" + ("" if cap is None else f"-cap{cap}")
    out = os.path.join(out_dir, name + ".tsv")
    cmd = [exe, "expand",
           "--facts", os.path.join(data, "facts.tsv"),
           "--rules", os.path.join(data, "rules.mln"),
           "--constraints", os.path.join(data, "constraints.tsv"),
           "--sc", "--metrics", "json", "--out", out]
    if cap is not None:
        cmd += ["--max-iterations", str(cap)]
    if route == "mpp":
        cmd.append("--mpp")
    env = dict(os.environ, PROBKB_DOMAINS=str(domains))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    expansion = json.loads(proc.stdout)["expansion"]
    if cap is not None and expansion["converged"]:
        fail(f"{name}: converged within {cap} iterations, so the capped "
             f"run does not cover the extra delta pass")
    with open(out) as f:
        lines = f.readlines()
    return name, {k: expansion[k] for k in FIELDS}, lines


def check_agree(runs):
    """All runs of one budget agree with the first single-node one."""
    ref_name, ref, ref_lines = runs[0]
    if ref["removed_by_constraints"] == 0:
        fail(f"{ref_name}: the constraints removed nothing")
    for name, report, lines in runs:
        for k in FIELDS:
            if report[k] != ref[k]:
                fail(f"{k} differs:\n  {ref_name}: {ref[k]}\n"
                     f"  {name}: {report[k]}")
        if lines != ref_lines:
            first = next((i for i, (a, b) in enumerate(zip(lines, ref_lines))
                          if a != b), min(len(lines), len(ref_lines)))
            fail(f"{name} wrote another file than {ref_name} "
                 f"({len(lines)} vs {len(ref_lines)} lines, first "
                 f"difference at line {first + 1})")
    return ref


def main():
    exe, data = sys.argv[1], sys.argv[2]
    refs = []
    with tempfile.TemporaryDirectory() as out_dir:
        for cap in CAPS:
            refs.append(check_agree(
                [run(exe, data, out_dir, route, d, cap)
                 for d in (1, 4) for route in ROUTES]))
    full, capped = refs
    print(f"mpp smoke ok ({full['new_fact_count']} new facts, "
          f"{full['removed_by_constraints']} removed by constraints, "
          f"{full['n_factors']} factors; capped at {CAPS[1]} iterations: "
          f"{capped['new_fact_count']} new facts, {capped['n_factors']} "
          f"factors; single node and MPP agree at pools 1 and 4)")


if __name__ == "__main__":
    main()
