#!/usr/bin/env python3
"""Inference smoke: `probkb infer` reports one hybrid solve and a live stream.

Runs `probkb infer --samples 200 --snapshots F --trace T --metrics json`
on a generated KB.  Stdout must be one JSON document whose inference
report is the per-component dispatcher's: method "hybrid", an exact
fraction in [0, 1], peeled variables between 0 and the sampled ones, and
-- when the sampled components left a core to sample -- a residual
sampler that ran the 200 requested sweeps.  The NDJSON snapshot stream
must hold one well-formed snapshot per line, with monotone seq and
timestamps.

Usage: infer_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv and rules.mln (from `probkb generate`);
the snapshot stream and the Chrome trace are left there as
snapshots.ndjson and trace.json.
"""

import json
import os
import subprocess
import sys

SAMPLES = 200


def fail(msg):
    print(f"inference smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    exe, data = sys.argv[1], sys.argv[2]
    snapshots = os.path.join(data, "snapshots.ndjson")
    out = subprocess.run(
        [exe, "infer",
         "--facts", os.path.join(data, "facts.tsv"),
         "--rules", os.path.join(data, "rules.mln"),
         "--samples", str(SAMPLES),
         "--snapshots", snapshots,
         "--trace", os.path.join(data, "trace.json"),
         "--metrics", "json"],
        check=True, capture_output=True, text=True).stdout
    inference = json.loads(out)["result"]["inference"]
    if inference["method"] != "hybrid":
        fail(f"method is {inference['method']!r}, not 'hybrid'")
    fraction = inference["exact_fraction"]
    if not 0 <= fraction <= 1:
        fail(f"exact_fraction {fraction} outside [0, 1]")
    sampled = inference["sampled_components"]
    sampled_vars, peeled = inference["sampled_vars"], inference["peeled_vars"]
    if not 0 <= peeled <= sampled_vars:
        fail(f"peeled_vars {peeled} outside [0, {sampled_vars}]")
    if peeled < sampled_vars and inference["sampler"]["sweeps_run"] != SAMPLES:
        fail(f"sampler ran {inference['sampler']['sweeps_run']} sweeps, "
             f"not {SAMPLES}")

    seqs, ats = [], []
    with open(snapshots) as f:
        for line in f:
            snap = json.loads(line)
            for key in ("seq", "stage", "point", "step", "at", "data"):
                if key not in snap:
                    fail(f"snapshot missing {key!r}")
            seqs.append(snap["seq"])
            ats.append(snap["at"])
    if not seqs:
        fail("no snapshots emitted")
    if seqs != sorted(seqs):
        fail("seq not monotone")
    if ats != sorted(ats):
        fail("timestamps not monotone")
    print(f"inference smoke ok: hybrid, exact fraction {fraction:.3f}, "
          f"{sampled} sampled components, {peeled} of {sampled_vars} sampled "
          f"variables peeled, {len(seqs)} snapshots")


if __name__ == "__main__":
    main()
