.PHONY: build test check clean

EXAMPLES = quickstart knowledge_expansion mpp_scaling lineage_explorer \
  kb_analytics

build:
	dune build

test:
	dune runtest

# The determinism gate: the whole suite must pass both with the pool
# disabled (PROBKB_DOMAINS=1, no domains spawned) and with a 4-domain
# pool, with the debug assertions (e.g. colouring verification) on, and
# once more in the build the benchmark measures (`--profile release`,
# where kernels inline across modules) on the 2-domain pool every
# perfbench workload runs on, in its own build directory so `_build`
# stays in the dev profile.
# Then the observability smoke: `--explain --metrics json` must put
# exactly one well-formed JSON document on stdout (chatter is stderr),
# `probkb infer` must report one hybrid solve and stream monotone
# snapshots (the same script CI runs), a `probkb session` must run DRed
# retract and ingest epochs with the same replies at pools 1 and 4,
# `expand --sc` must report the same expansion with and without `--mpp`
# at pools 1 and 4, converged and capped, and write each route's facts
# in the same order at both pools, `query --local` must
# print the full pipeline's
# marginal with and without `--theta` at pools 1 and 4, and a live
# `probkb serve` must answer /metrics +
# /statusz scrapes, keep a well-formed access log, and print its
# shutdown summary.
# Then every program under examples/ must exit 0 at pools 1 and 4.
# Then every paper reproduction (bench/main.exe, all but the Bechamel
# micro-benchmarks) runs at --quick size and must exit 0; nothing there
# is gated on time.  The sampler accuracy report (-e sampler) fails only
# on a marginal that is not a probability; its errors are reported.
# Last, the repository benchmark's smoke run: its harness builds against
# lib/ and reads the inference reports, so a lib/ change that breaks it
# fails here.
check: build
	PROBKB_DOMAINS=1 PROBKB_DEBUG=1 dune runtest --force
	PROBKB_DOMAINS=4 PROBKB_DEBUG=1 dune runtest --force
	PROBKB_DOMAINS=2 PROBKB_DEBUG=1 dune runtest --force --profile release \
	  --build-dir _build_release
	rm -rf _smoke && mkdir -p _smoke
	dune exec bin/probkb_cli.exe -- generate --scale 0.01 --out _smoke
	dune exec bin/probkb_cli.exe -- expand --facts _smoke/facts.tsv \
	  --rules _smoke/rules.mln --explain --metrics json \
	  | python3 -m json.tool > /dev/null
	python3 scripts/infer_smoke.py _build/default/bin/probkb_cli.exe _smoke
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
	python3 scripts/query_smoke.py _build/default/bin/probkb_cli.exe _smoke
	python3 scripts/serve_smoke.py _build/default/bin/probkb_cli.exe _smoke
	rm -rf _smoke
	for d in 1 4; do for e in $(EXAMPLES); do \
	  PROBKB_DOMAINS=$$d _build/default/examples/$$e.exe > /dev/null \
	    || { echo "example $$e failed at PROBKB_DOMAINS=$$d"; exit 1; }; \
	done; done
	dune exec bench/main.exe -- --quick -e table2 -e table3 -e fig4 \
	  -e fig6a -e fig6b -e fig6c -e table4 -e fig7a -e fig7b
	dune exec bench/main.exe -- --quick -e sampler
	python3 perfbench/smoke.py

clean:
	dune clean
