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

A second pair of sessions checks the incremental refresh: session A
refreshes, runs a retract/ingest round and refreshes again, which
re-solves only the components the round touched; session B runs the
same round and refreshes once, solving everything.  Their query
replies, marginals included, must be identical at both pool sizes, and
A's closing stderr line must report that its refreshes reused
components.

Last, a session opened with `--max-iterations 1` (each epoch's closure
capped at one iteration) is sent `reexpand` until a reply has
"derived":0, at both pool sizes.  A rule epoch grounds the whole store
as the batch does, so that reply's `facts` and `factors` must equal
`probkb expand`'s on the same files: the fact lines it writes and its
`n_factors`.

Usage: session_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv and rules.mln (from `probkb generate`).
"""

import json
import os
import re
import subprocess
import sys
import tempfile


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
                       r"(\d+) compactions; (\d+) refreshes; solves "
                       r"re-solved (\d+) components and reused (\d+)",
                       proc.stderr)
    if closed is None:
        fail(f"no closing summary at PROBKB_DOMAINS={domains}:\n"
             f"{proc.stderr}")
    refreshes, resolved, reused = (int(g) for g in closed.groups()[3:])
    if refreshes != sum(op["op"] == "refresh" for op in ops):
        fail(f"closing summary counts {refreshes} refreshes at "
             f"PROBKB_DOMAINS={domains}:\n{proc.stderr}")
    return [strip(r) for r in replies], (resolved, reused)


def incremental_round(exe, facts, rules, round_trip, queries):
    """Session A refreshes before and after the round, session B only
    after it: the same graph, solved incrementally and from scratch."""
    a_ops = [{"op": "refresh"}] + round_trip + [{"op": "refresh"}] + queries
    b_ops = round_trip + [{"op": "refresh"}] + queries
    answers = None
    for domains in (1, 4):
        a, (resolved, reused) = run(exe, facts, rules, a_ops, domains)
        b, _ = run(exe, facts, rules, b_ops, domains)
        a_q, b_q = a[-len(queries):], b[-len(queries):]
        if a_q != b_q:
            fail(f"incremental refresh answers differ from a full one at "
                 f"PROBKB_DOMAINS={domains}:\n  A: {a_q}\n  B: {b_q}")
        if any(q.get("marginal") is None for q in a_q):
            fail(f"a query after the incremental refresh has no marginal: "
                 f"{a_q}")
        if reused == 0:
            fail(f"session A's second refresh reused no component at "
                 f"PROBKB_DOMAINS={domains} ({resolved} re-solved)")
        if answers not in (None, a_q):
            fail(f"incremental refresh answers differ between pools:\n"
                 f"  pool 1: {answers}\n  pool 4: {a_q}")
        answers = a_q
    return resolved, reused


def capped_reaches_batch(exe, facts, rules, workdir):
    """Re-expand a capped session until an epoch derives nothing; it
    must then hold the batch expansion's facts and factors."""
    out = os.path.join(workdir, "expanded.tsv")
    proc = subprocess.run(
        [exe, "expand", "--facts", facts, "--rules", rules,
         "--metrics", "json", "--out", out],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"probkb expand exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as f:
        batch = (sum(1 for line in f if line.strip()),
                 json.loads(proc.stdout)["expansion"]["n_factors"])
    for domains in (1, 4):
        env = dict(os.environ, PROBKB_DOMAINS=str(domains))
        session = subprocess.Popen(
            [exe, "session", "--facts", facts, "--rules", rules,
             "--max-iterations", "1", "--samples", "100"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env)
        replies = []
        try:
            while not replies or replies[-1].get("derived") != 0:
                if len(replies) == 50:
                    fail(f"50 capped reexpands at PROBKB_DOMAINS={domains} "
                         f"still derive facts: {replies[-1]}")
                session.stdin.write(json.dumps({"op": "reexpand"}) + "\n")
                session.stdin.flush()
                line = session.stdout.readline()
                if not line:
                    fail(f"capped session ended at PROBKB_DOMAINS={domains} "
                         f"after {len(replies)} replies")
                replies.append(json.loads(line))
                if "error" in replies[-1]:
                    fail(f"capped reexpand failed: {replies[-1]}")
        finally:
            session.stdin.close()
            session.wait(timeout=600)
        last = replies[-1]
        if (last["facts"], last["factors"]) != batch:
            fail(f"a capped session re-expanded to {last['facts']} facts "
                 f"and {last['factors']} factors at "
                 f"PROBKB_DOMAINS={domains}; probkb expand holds {batch[0]} "
                 f"and {batch[1]}")
    return len(replies), batch


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

    one, _ = run(exe, facts, rules, ops, 1)
    four, _ = run(exe, facts, rules, ops, 4)
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
    # Query the round's facts and facts it did not touch, whose answers
    # session A copies from its first refresh.
    with open(facts) as f:
        others = [line.split("\t")[:5] for _, line in zip(range(20), f)]
    resolved, reused = incremental_round(
        exe, facts, rules, round_trip,
        [{"op": "query", "key": k} for k in keys + others])
    with tempfile.TemporaryDirectory() as workdir:
        reexpands, (nfacts, nfactors) = capped_reaches_batch(
            exe, facts, rules, workdir)
    print(f"session smoke ok (cone {retract['cone']}, "
          f"{retract['retracted']} retracted, {ingest['inserted']} "
          f"re-inserted, {ingest['derived']} re-derived; both round trips "
          f"and pools 1 and 4 agree; the incremental refreshes re-solved "
          f"{resolved} components, reused {reused} and answer as a full "
          f"one; a capped session reached the batch's {nfacts} facts and "
          f"{nfactors} factors in {reexpands} reexpands)")


if __name__ == "__main__":
    main()
