#!/usr/bin/env python3
"""Session-epoch smoke: DRed retract and ingest epochs through `probkb session`.

Retracts three base facts of a generated KB (facts whose relation
appears in some rule body, so the retraction has a consequence cone to
overdelete) and ingests them back with their weights, twice; then
refreshes the marginals and queries the three facts -- once with
PROBKB_DOMAINS=1 and once with PROBKB_DOMAINS=4.  The two reply streams
must be identical once timing fields are stripped, and the epochs must
have done their work: the three facts enter the retraction's cone, the
ingest brings all three back, and each query finds a base fact with a
marginal.  The second retract/ingest round must reply exactly as the
first (epoch numbers and timing stripped): a round trip restores the
store, so a wrong count that both pools share still fails here.

Usage: session_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv and rules.mln (from `probkb generate`).
"""

import json
import os
import re
import subprocess
import sys


def fail(msg):
    print(f"session smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def body_relations(rules_path):
    rels = set()
    with open(rules_path) as f:
        for line in f:
            if ":-" in line and not line.lstrip().startswith("#"):
                rels.update(re.findall(r"(\w+)\(", line.split(":-", 1)[1]))
    return rels


def pick_facts(facts_path, rels, n=3):
    picked, seen = [], set()
    with open(facts_path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 6 or fields[5] == "-" or fields[0] not in rels:
                continue
            key = tuple(fields[:5])
            if key not in seen:
                seen.add(key)
                picked.append((list(key), float(fields[5])))
            if len(picked) == n:
                break
    return picked


def strip(doc, drop=("seconds", "wall_seconds")):
    if isinstance(doc, dict):
        return {k: strip(v, drop) for k, v in doc.items() if k not in drop}
    if isinstance(doc, list):
        return [strip(v, drop) for v in doc]
    return doc


def run(exe, facts, rules, ops, domains):
    env = dict(os.environ, PROBKB_DOMAINS=str(domains))
    proc = subprocess.run(
        [exe, "session", "--facts", facts, "--rules", rules,
         "--samples", "100"],
        input="".join(json.dumps(op) + "\n" for op in ops),
        capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        fail(f"probkb session exited {proc.returncode} at "
             f"PROBKB_DOMAINS={domains}:\n{proc.stderr}")
    replies = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if len(replies) != len(ops):
        fail(f"{len(replies)} replies to {len(ops)} ops at "
             f"PROBKB_DOMAINS={domains}")
    closed = re.search(r"session closed: \d+ facts, \d+ factors; (\d+) dead "
                       r"facts and (\d+) dead factors await compaction; "
                       r"(\d+) compactions", proc.stderr)
    if closed is None:
        fail(f"no closing summary at PROBKB_DOMAINS={domains}:\n"
             f"{proc.stderr}")
    return [strip(r) for r in replies]


def main():
    exe, data = sys.argv[1], sys.argv[2]
    facts = os.path.join(data, "facts.tsv")
    rules = os.path.join(data, "rules.mln")
    picked = pick_facts(facts, body_relations(rules))
    if len(picked) != 3:
        fail("fewer than three base facts in rule-body relations")
    keys = [k for k, _ in picked]
    round_trip = [{"op": "retract", "keys": keys},
                  {"op": "ingest", "facts": [k + [w] for k, w in picked]}]
    ops = (round_trip + round_trip + [{"op": "refresh"}]
           + [{"op": "query", "key": k} for k in keys])

    one = run(exe, facts, rules, ops, 1)
    four = run(exe, facts, rules, ops, 4)
    if one != four:
        for op, a, b in zip(ops, one, four):
            if a != b:
                fail(f"replies differ on {op['op']}:\n  pool 1: {a}\n"
                     f"  pool 4: {b}")

    for replies, domains in ((one, 1), (four, 4)):
        first = [strip(r, ("epoch",)) for r in replies[0:2]]
        second = [strip(r, ("epoch",)) for r in replies[2:4]]
        for op, a, b in zip(round_trip, first, second):
            if a != b:
                fail(f"second round trip differs on {op['op']} at "
                     f"PROBKB_DOMAINS={domains}:\n  first:  {a}\n"
                     f"  second: {b}")

    retract, ingest, refresh = one[0], one[1], one[4]
    if "error" in retract or retract.get("cone", 0) < 3:
        fail(f"retraction did not take the three facts: {retract}")
    if ingest.get("inserted", 0) + ingest.get("promoted", 0) != 3:
        fail(f"ingest did not bring the three facts back: {ingest}")
    if "error" in refresh:
        fail(f"refresh failed: {refresh}")
    for k, q in zip(keys, one[5:]):
        if not (q.get("found") and q.get("base")
                and q.get("marginal") is not None):
            fail(f"query {k} after the round trip: {q}")
    print(f"session smoke ok (cone {retract['cone']}, "
          f"{retract['retracted']} retracted, {ingest['inserted']} "
          f"re-inserted, {ingest['derived']} re-derived; both round trips "
          f"and pools 1 and 4 agree)")


if __name__ == "__main__":
    main()
