#!/usr/bin/env python3
"""Point-query smoke: `probkb query --local` = the full pipeline.

Picks the first few base facts of a generated KB whose `--local` answer
is solved exactly (`local-exact`), whose neighbourhood holds a rule
factor, and whose full-pipeline marginal moves under `--theta 0.5`
(rule cleaning reaches them).  For each, `query --local` and `query`
(the full pipeline: expand, then inference over the whole factor graph)
must print the same marginal, with and without `--theta 0.5`, at
PROBKB_DOMAINS=1 and 4.  An unbounded local walk covers the query's
whole component, so an exact solve of it is the full answer, bit for
bit; a `--local` that skipped a pipeline stage (rule cleaning, say)
answers over other factors and fails here.

Usage: query_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv and rules.mln (from `probkb generate`).
"""

import json
import os
import subprocess
import sys

N_KEYS = 3
MAX_CANDIDATES = 200
THETA = "0.5"


def fail(msg):
    print(f"query smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def keys_of(data):
    with open(os.path.join(data, "facts.tsv")) as f:
        for line in f:
            cols = line.rstrip("\n").split("\t")
            if len(cols) >= 5 and not any("," in c for c in cols[:5]):
                yield ",".join(cols[:5])


_replies = {}


def query(exe, data, key, local, theta=None, domains=1):
    """One `probkb query`; its JSON reply, cached per argument set."""
    args = (key, local, theta, domains)
    if args not in _replies:
        cmd = [exe, "query",
               "--facts", os.path.join(data, "facts.tsv"),
               "--rules", os.path.join(data, "rules.mln"),
               "--key", key]
        if local:
            cmd.append("--local")
        if theta is not None:
            cmd += ["--theta", theta]
        env = dict(os.environ, PROBKB_DOMAINS=str(domains))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=600)
        if proc.returncode != 0:
            fail(f"query {args} exited {proc.returncode}:\n{proc.stderr}")
        reply = json.loads(proc.stdout)
        if not reply.get("found"):
            fail(f"query {args} did not find a fact of facts.tsv: {reply}")
        _replies[args] = reply
    return _replies[args]


def pick_keys(exe, data):
    picked = []
    for i, key in enumerate(keys_of(data)):
        if i == MAX_CANDIDATES or len(picked) == N_KEYS:
            break
        local = query(exe, data, key, local=True)
        if local["method"] != "local-exact" or local["factors"] < 2:
            continue
        full = query(exe, data, key, local=False)
        cleaned = query(exe, data, key, local=False, theta=THETA)
        if full["marginal"] != cleaned["marginal"]:
            picked.append(key)
    if len(picked) < N_KEYS:
        fail(f"only {len(picked)} of the first {MAX_CANDIDATES} facts have "
             f"an exact neighbourhood that --theta {THETA} reaches")
    return picked


def main():
    exe, data = sys.argv[1], sys.argv[2]
    keys = pick_keys(exe, data)
    for key in keys:
        for theta in (None, THETA):
            for domains in (1, 4):
                name = (f"{key}{'' if theta is None else ' --theta ' + theta}"
                        f" at PROBKB_DOMAINS={domains}")
                full = query(exe, data, key, False, theta, domains)
                local = query(exe, data, key, True, theta, domains)
                if local["method"] != "local-exact":
                    fail(f"{name}: --local solved by {local['method']}")
                if local["marginal"] != full["marginal"]:
                    fail(f"{name}: --local answers {local['marginal']!r}, "
                         f"the full pipeline {full['marginal']!r}")
    print(f"query smoke ok ({len(keys)} keys: --local = the full pipeline "
          f"with and without --theta {THETA}, at pools 1 and 4)")


if __name__ == "__main__":
    main()
