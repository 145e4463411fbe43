#!/usr/bin/env python3
"""One closure loop, three routes: `probkb expand --sc` on the single
node, on the single node with an out-of-core fact table, and on the
simulated MPP cluster.

Expands a generated KB with its semantic constraints enforced on each
route at PROBKB_DOMAINS=1 and 4.  The spilled route runs with
`--spill-threshold 0 --segment-rows 128`, so the fact table spills
before the first join and every constraint pass compacts a spilled
table; its spill directory must hold exactly one fact-table store
(`tpi-*`) at the end: the copy a compaction made stale is removed, the
live one kept.  All six runs must write the same file (`--out`), line
for line: it lists TΠ in row order, so the comparison covers every
fact's id as well as the facts, and the MPP executor returns every
query's rows in the single node's order.  They must also report the
same `new_fact_count`, `removed_by_constraints`, `n_factors`,
`iterations` and trajectory in `--metrics json`.  The constraints must
have removed something, so the comparison covers the constraint
passes.

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

ROUTES = ("single", "spilled", "mpp")


def fail(msg):
    print(f"mpp smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def run(exe, data, out_dir, route, domains):
    name = f"{route}-{domains}"
    out = os.path.join(out_dir, name + ".tsv")
    cmd = [exe, "expand",
           "--facts", os.path.join(data, "facts.tsv"),
           "--rules", os.path.join(data, "rules.mln"),
           "--constraints", os.path.join(data, "constraints.tsv"),
           "--sc", "--metrics", "json", "--out", out]
    spill_dir = os.path.join(out_dir, name + ".spill")
    if route == "mpp":
        cmd.append("--mpp")
    elif route == "spilled":
        os.mkdir(spill_dir)
        cmd += ["--spill-dir", spill_dir, "--spill-threshold", "0",
                "--segment-rows", "128"]
    env = dict(os.environ, PROBKB_DOMAINS=str(domains))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    if route == "spilled":
        stores = [e for e in os.listdir(spill_dir) if e.startswith("tpi-")]
        if len(stores) != 1:
            fail(f"{name}: {len(stores)} fact-table stores left in "
                 f"{spill_dir}, not one: {sorted(stores)}")
    expansion = json.loads(proc.stdout)["expansion"]
    with open(out) as f:
        lines = f.readlines()
    return name, {k: expansion[k] for k in FIELDS}, lines


def main():
    exe, data = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as out_dir:
        runs = {(route, d): run(exe, data, out_dir, route, d)
                for d in (1, 4) for route in ROUTES}
    ref_name, ref, ref_lines = runs[("single", 1)]
    if ref["removed_by_constraints"] == 0:
        fail(f"{ref_name}: the constraints removed nothing")
    for name, report, lines in runs.values():
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
    print(f"mpp smoke ok ({ref['new_fact_count']} new facts, "
          f"{ref['removed_by_constraints']} removed by constraints, "
          f"{ref['n_factors']} factors; single node, spilled single node "
          f"and MPP agree at pools 1 and 4)")


if __name__ == "__main__":
    main()
