.PHONY: build test check bench bench-check clean

build:
	dune build

test:
	dune runtest

# The determinism gate: the whole suite must pass both with the pool
# disabled (PROBKB_DOMAINS=1, no domains spawned) and with a 4-domain
# pool, with the debug assertions (e.g. colouring verification) on.
# Then the observability smoke: `--explain --metrics json` must put
# exactly one well-formed JSON document on stdout (chatter is stderr),
# a `probkb session` must run DRed retract and ingest epochs with the
# same replies at pools 1 and 4, and a live `probkb serve` must answer
# /metrics + /statusz scrapes, keep a well-formed access log, and print
# its shutdown summary.
# Last, the repository benchmark's smoke run: its harness builds against
# lib/ and reads the inference reports, so a lib/ change that breaks it
# fails here.
check: build
	PROBKB_DOMAINS=1 PROBKB_DEBUG=1 dune runtest --force
	PROBKB_DOMAINS=4 PROBKB_DEBUG=1 dune runtest --force
	rm -rf _smoke && mkdir -p _smoke
	dune exec bin/probkb_cli.exe -- generate --scale 0.01 --out _smoke
	dune exec bin/probkb_cli.exe -- expand --facts _smoke/facts.tsv \
	  --rules _smoke/rules.mln --explain --metrics json \
	  | python3 -m json.tool > /dev/null
	printf '%s\n' \
	  '{"op":"reexpand"}' \
	  '{"op":"refresh"}' \
	  '{"op":"query","key":["no_such","a","A","b","B"]}' \
	  | dune exec bin/probkb_cli.exe -- session --facts _smoke/facts.tsv \
	      --rules _smoke/rules.mln --samples 100 \
	  | python3 -c 'import json,sys; d=[json.loads(l) for l in sys.stdin]; \
	    assert len(d)==3 and "epoch" in d[0] and "epoch" in d[1] \
	      and d[2]=={"found":False}, d; print("session smoke ok")'
	python3 scripts/session_smoke.py _build/default/bin/probkb_cli.exe _smoke
	python3 scripts/serve_smoke.py _build/default/bin/probkb_cli.exe _smoke
	rm -rf _smoke
	python3 perfbench/smoke.py

bench:
	dune exec bench/main.exe -- --quick -e parallel -e pipeline \
	  -e incremental -e local -e serve -e hybrid -e storage

# The regression gate: re-run the parallel, pipeline, incremental,
# local, serve, hybrid and storage experiments into scratch artifacts
# and diff them against the committed BENCH_parallel.json /
# BENCH_pipeline.json / BENCH_incremental.json / BENCH_local.json /
# BENCH_serve.json / BENCH_hybrid.json / BENCH_storage.json.  Exits
# non-zero when any non-oversubscribed, non-noise stage cell is more
# than 25% slower than the baseline.
bench-check:
	dune exec bench/main.exe -- --quick -e parallel -e pipeline \
	  -e incremental -e local -e serve -e hybrid -e storage \
	  --out BENCH_fresh.json --compare BENCH_parallel.json \
	  --out-pipeline BENCH_pipeline_fresh.json \
	  --compare-pipeline BENCH_pipeline.json \
	  --out-incremental BENCH_incremental_fresh.json \
	  --compare-incremental BENCH_incremental.json \
	  --out-local BENCH_local_fresh.json \
	  --compare-local BENCH_local.json \
	  --out-serve BENCH_serve_fresh.json \
	  --compare-serve BENCH_serve.json \
	  --out-hybrid BENCH_hybrid_fresh.json \
	  --compare-hybrid BENCH_hybrid.json \
	  --out-storage BENCH_storage_fresh.json \
	  --compare-storage BENCH_storage.json
	rm -f BENCH_fresh.json BENCH_pipeline_fresh.json \
	  BENCH_incremental_fresh.json BENCH_local_fresh.json \
	  BENCH_serve_fresh.json BENCH_hybrid_fresh.json \
	  BENCH_storage_fresh.json

clean:
	dune clean
