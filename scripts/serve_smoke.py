#!/usr/bin/env python3
"""End-to-end smoke of the serve telemetry surface.

Starts `probkb serve` with an admin endpoint, an access log and a zero
slow-query threshold, sends one oversized request line to each listener
(both must answer an error and count it), drives a handful of NDJSON ops
over the socket, scrapes /metrics and /statusz over HTTP, then SIGINTs
the server and checks the shutdown summary and the access log.

Usage: serve_smoke.py PROBKB_EXE DATA_DIR

DATA_DIR must contain facts.tsv and rules.mln (from `probkb generate`);
the access log is written to DATA_DIR/access.ndjson.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

def fail(msg):
    print(f"serve smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)

def main():
    exe, data = sys.argv[1], sys.argv[2]
    facts = os.path.join(data, "facts.tsv")
    rules = os.path.join(data, "rules.mln")
    access = os.path.join(data, "access.ndjson")

    with open(facts) as f:
        key = f.readline().split("\t")[:5]

    proc = subprocess.Popen(
        [exe, "serve", "--facts", facts, "--rules", rules,
         "--port", "0", "--admin-port", "0",
         "--access-log", access, "--slow-ms", "0"],
        stderr=subprocess.PIPE, text=True)

    # The server announces both listeners on stderr:
    #   serving on 127.0.0.1:PORT (pool N): ...
    #   admin on 127.0.0.1:PORT (/metrics, /statusz)
    port = admin = None
    stderr_lines = []
    deadline = time.time() + 120
    while (port is None or admin is None) and time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        stderr_lines.append(line)
        m = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        if m:
            port = int(m.group(1))
        m = re.search(r"admin on 127\.0\.0\.1:(\d+)", line)
        if m:
            admin = int(m.group(1))
    if port is None or admin is None:
        proc.kill()
        fail(f"did not announce both ports; stderr: {''.join(stderr_lines)}")

    # A 2 MiB request line with no newline: the server reads up to its
    # 1 MiB cap, answers the error, closes the connection and counts it
    # in serve.errors; the next client (the protocol drive below) is
    # served.  The sender thread blocks once the server stops reading.
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    def send_oversized():
        try:
            sock.sendall(b"x" * (2 << 20))
        except OSError:
            pass
    sender = threading.Thread(target=send_oversized)
    sender.start()
    oversized = sock.makefile("r").readline()
    sender.join()
    sock.close()
    if json.loads(oversized or "{}") != {"error": "request line too long"}:
        fail(f"oversized line answered {oversized!r}")

    # Drive the NDJSON protocol: one write, a refresh, two reads, one
    # in-band scrape.  The point query is budgeted (the protocol's
    # "budget" member caps its interior facts), as served reads are.
    ops = [
        {"op": "ingest",
         "facts": [[key[0], "smoke_entity", key[2], key[3], key[4], 0.7]]},
        {"op": "refresh"},
        {"op": "query_local", "key": key, "budget": 32},
        {"op": "stats"},
        {"op": "metrics"},
    ]
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    f = sock.makefile("rw")
    replies = []
    for op in ops:
        f.write(json.dumps(op) + "\n")
        f.flush()
        replies.append(json.loads(f.readline()))
    sock.close()

    if "epoch" not in replies[0]:
        fail(f"ingest reply: {replies[0]}")
    if "epoch" not in replies[1]:
        fail(f"refresh reply: {replies[1]}")
    if replies[2].get("found") is not True:
        fail(f"query_local reply: {replies[2]}")
    if not isinstance(replies[2].get("interior"), int) \
            or replies[2]["interior"] > 32:
        fail(f"query_local walked past its budget of 32: {replies[2]}")
    if "epoch" not in replies[3]:
        fail(f"stats reply: {replies[3]}")
    summary = replies[4].get("metrics")
    if not isinstance(summary, dict) or "hists" not in summary:
        fail(f"metrics reply carries no summary: {replies[4]}")

    # An admin request line over 8 KiB answers 431 and is counted too.
    try:
        urllib.request.urlopen(f"http://127.0.0.1:{admin}/{'x' * 16384}")
        fail("an oversized admin request line did not fail")
    except urllib.error.HTTPError as e:
        if e.code != 431:
            fail(f"oversized admin request line answered {e.code}")

    # The Prometheus exposition, over HTTP like a scraper would.
    with urllib.request.urlopen(f"http://127.0.0.1:{admin}/metrics") as r:
        ctype = r.headers["Content-Type"]
        text = r.read().decode()
    if not ctype.startswith("text/plain"):
        fail(f"/metrics content-type {ctype}")
    for needle in [
        "# TYPE serve_requests_total counter",
        f"serve_requests_total {len(ops)}",
        "# TYPE serve_request_seconds histogram",
        'serve_request_seconds_bucket{op="query_local",le="+Inf"} 1',
        'serve_request_seconds_count{op="query_local"} 1',
        "# TYPE serve_epoch_lag gauge",
        "serve_epoch_lag 0",
        "serve_apply_seconds_count 2",
        "serve_publish_seconds_count 2",
        "serve_errors_total 2",
        "# TYPE incremental_dead_facts gauge",
        "# TYPE incremental_dead_factors gauge",
        # trust signals of the last refresh, and what it solved
        "# TYPE inference_exact_fraction gauge",
        "# TYPE inference_max_width_solved gauge",
        "# TYPE inference_sampled_vars gauge",
        "# TYPE hybrid_components_total counter",
    ]:
        if needle not in text:
            fail(f"/metrics missing {needle!r}\n{text}")
    fraction = re.search(r"^inference_exact_fraction (\S+)$", text, re.M)
    if fraction is None or not 0 <= float(fraction.group(1)) <= 1:
        fail(f"/metrics exact fraction is not a fraction\n{text}")

    with urllib.request.urlopen(f"http://127.0.0.1:{admin}/statusz") as r:
        status = json.loads(r.read().decode())
    if status.get("epoch") != 2 or status.get("requests") != len(ops):
        fail(f"/statusz figures off: {status}")
    for field in ["uptime_seconds", "epoch_lag", "queue_depth", "mem",
                  "request_seconds", "slow_requests"]:
        if field not in status:
            fail(f"/statusz missing {field!r}: {status}")
    if "query_local" not in status["request_seconds"]:
        fail(f"/statusz has no query_local digest: {status}")

    # Unknown path and non-GET answer HTTP errors, not hangs.
    try:
        urllib.request.urlopen(f"http://127.0.0.1:{admin}/nope")
        fail("/nope did not 404")
    except urllib.error.HTTPError as e:
        if e.code != 404:
            fail(f"/nope answered {e.code}")

    # SIGINT: clean shutdown with the summary on stderr.
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}; stderr: {err}")
    if f"served {len(ops)} requests" not in err:
        fail(f"no shutdown summary in stderr: {err}")
    if "histograms:" not in err or "serve.request_seconds" not in err:
        fail(f"shutdown summary has no histogram table: {err}")

    # The access log: one record per request, unique ids, span subtrees
    # on the slow ones (threshold 0 marks everything slow).
    with open(access) as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != len(ops):
        fail(f"{len(records)} access records for {len(ops)} requests")
    ids = [rec["id"] for rec in records]
    if len(set(ids)) != len(ops):
        fail(f"request ids not unique: {ids}")
    for rec in records:
        for field in ["ts", "op", "kind", "seconds", "epoch", "slow"]:
            if field not in rec:
                fail(f"access record missing {field!r}: {rec}")
        if rec["slow"] and "spans" not in rec:
            fail(f"slow record has no spans: {rec}")
    ql = [rec for rec in records if rec["op"] == "query_local"]
    if not ql:
        fail("no query_local access record")
    spans = json.dumps(ql[0].get("spans", {}))
    for attr in ["query_local", "hops", "boundary", "pruned_mass"]:
        if attr not in spans:
            fail(f"slow-query subtree missing {attr!r}: {spans}")

    print("serve smoke ok")

if __name__ == "__main__":
    main()
