.PHONY: build test check clean

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
# same replies at pools 1 and 4, `expand --sc` must report the same
# expansion with and without `--mpp` at pools 1 and 4, and a live
# `probkb serve` must answer /metrics + /statusz scrapes, keep a
# well-formed access log, and print its shutdown summary.
# Then every paper reproduction (bench/main.exe, all but the Bechamel
# micro-benchmarks) runs at --quick size and must exit 0; nothing there
# is gated on time.
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
	python3 scripts/mpp_smoke.py _build/default/bin/probkb_cli.exe _smoke
	python3 scripts/serve_smoke.py _build/default/bin/probkb_cli.exe _smoke
	rm -rf _smoke
	dune exec bench/main.exe -- --quick -e table2 -e table3 -e fig4 \
	  -e fig6a -e fig6b -e fig6c -e table4 -e fig7a -e fig7b
	python3 perfbench/smoke.py

clean:
	dune clean
