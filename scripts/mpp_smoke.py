#!/usr/bin/env python3
"""MPP = single-node smoke: `probkb expand --sc` with and without `--mpp`.

Expands a generated KB with its semantic constraints enforced, once on
the single node and once on the simulated MPP cluster, each at
PROBKB_DOMAINS=1 and 4.  All four runs must write the same facts
(`--out`, compared sorted) and report the same `new_fact_count`,
`removed_by_constraints`, `n_factors`, `iterations` and trajectory in
`--metrics json`; the constraints must have removed something, so the
comparison covers the constraint passes.

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


def fail(msg):
    print(f"mpp smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def run(exe, data, out_dir, mpp, domains):
    name = f"{'mpp' if mpp else 'single'}-{domains}"
    out = os.path.join(out_dir, name + ".tsv")
    cmd = [exe, "expand",
           "--facts", os.path.join(data, "facts.tsv"),
           "--rules", os.path.join(data, "rules.mln"),
           "--constraints", os.path.join(data, "constraints.tsv"),
           "--sc", "--metrics", "json", "--out", out]
    if mpp:
        cmd.append("--mpp")
    env = dict(os.environ, PROBKB_DOMAINS=str(domains))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{name} exited {proc.returncode}:\n{proc.stderr}")
    expansion = json.loads(proc.stdout)["expansion"]
    with open(out) as f:
        facts = sorted(f)
    return name, {k: expansion[k] for k in FIELDS}, facts


def main():
    exe, data = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as out_dir:
        runs = [run(exe, data, out_dir, mpp, d)
                for d in (1, 4) for mpp in (False, True)]
    ref_name, ref, ref_facts = runs[0]
    if ref["removed_by_constraints"] == 0:
        fail(f"{ref_name}: the constraints removed nothing")
    for name, report, facts in runs[1:]:
        for k in FIELDS:
            if report[k] != ref[k]:
                fail(f"{k} differs:\n  {ref_name}: {ref[k]}\n"
                     f"  {name}: {report[k]}")
        if facts != ref_facts:
            fail(f"{name} wrote other facts than {ref_name} "
                 f"({len(facts)} vs {len(ref_facts)} lines)")
    print(f"mpp smoke ok ({ref['new_fact_count']} new facts, "
          f"{ref['removed_by_constraints']} removed by constraints, "
          f"{ref['n_factors']} factors; single node and MPP agree at "
          f"pools 1 and 4)")


if __name__ == "__main__":
    main()
