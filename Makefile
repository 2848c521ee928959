# Convenience targets; `make smoke` is the CI entry point and
# exercises the parallel + cached experiment path end to end.

DUNE ?= dune

.PHONY: all build test smoke bench bench-json ci ci-faults ci-serve ci-dist ci-remote clean cache-clear loc

all: build

build:
	$(DUNE) build @all

test: build
	$(DUNE) runtest

# Fast end-to-end check: full test suite, then a parallel fig1
# regeneration twice over a fresh cache — the second run must be
# served entirely from disk (see the engine-stats footer).
smoke: test bench-json
	rm -rf _smoke_cache
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_smoke_cache \
	  $(DUNE) exec bench/main.exe -- fig1 -j 4
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_smoke_cache \
	  $(DUNE) exec bench/main.exe -- fig1 -j 4
	rm -rf _smoke_cache

bench: build
	$(DUNE) exec bench/main.exe

# Emit the machine-readable bench report at a small scale, then
# re-parse and type-check it; a missing or malformed file fails.
bench-json: build
	rm -f BENCH_results.json
	REPRO_SCALE=0.05 REPRO_CACHE=0 \
	  $(DUNE) exec bench/main.exe -- fig1 --json BENCH_results.json
	test -s BENCH_results.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_results.json

# Full CI gate: build everything, run the whole test suite (golden,
# qcheck differential, packed-replay and fused-sweep tests included),
# then regenerate BENCH_results.json over the trace-sweep figures and
# validate the emitted schema (v11; every figure replays the packed
# capture, so the file carries no stream-vs-replay probe).
# fig8p adds the learned block (lru_mpki / preuse_mpki /
# crossover_size) to the file.
ci: build
	$(DUNE) runtest
	rm -f BENCH_results.json
	REPRO_SCALE=0.05 REPRO_CACHE=0 \
	  $(DUNE) exec bench/main.exe -- \
	    fig1 fig5 fig7 fig8 fig8p fig9 --json BENCH_results.json
	test -s BENCH_results.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_results.json
	$(MAKE) ci-faults
	$(MAKE) ci-serve
	$(MAKE) ci-dist
	$(MAKE) ci-remote

# Fault-torture gate: the tier-1 suite plus a bench sweep with every
# fault site firing at 5% (seed 42). Supervision must absorb the
# injected failures — the run completes, emits schema-v11 JSON that
# validates, and the injected-fault counter in the engine footer
# proves the sites actually fired. The fresh cache directory also
# exercises quarantine and torn-write recovery end to end.
ci-faults: build
	$(DUNE) runtest
	rm -rf _faults_cache BENCH_faults.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_faults_cache \
	  REPRO_FAULTS=all:0.05:42 \
	  $(DUNE) exec bench/main.exe -- fig1 fig5 fig7 --json BENCH_faults.json
	test -s BENCH_faults.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_faults.json
	rm -rf _faults_cache BENCH_faults.json

# Daemon gate: drive an in-process characterization server with a
# short closed-loop load test over a fresh cache — 4 concurrent
# clients, a zero-downtime reload at the halfway mark — and validate
# the emitted serve block (p50/p90/p99 latency, throughput,
# update_lag_ms). --expect-serve makes a missing serve run an error,
# and the check fails unless every concurrent response was
# byte-identical to the one-shot renderings.
ci-serve: build
	rm -rf _serve_cache BENCH_serve.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_serve_cache \
	  $(DUNE) exec bench/main.exe -- \
	    --serve-bench --serve-clients 4 --serve-requests 40 -j 1 \
	    --json BENCH_serve.json
	test -s BENCH_serve.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_serve.json --expect-serve
	rm -rf _serve_cache BENCH_serve.json

# Distributed gate, two runs over fresh caches. Run 1, undisturbed:
# sweep figures at --workers 4; the distributed block must
# record every task completed exactly once (dup_results = 0), the
# N-worker renderings byte-identical to in-process -j1, and
# dist_speedup at least 1.0 on a multi-core machine (on a single
# core, where worker processes time-slice the CPU the -j1 reference
# owned outright, the gate degrades to a bounded-overhead check).
# Run 2, chaos: every dispatch fault site firing (spawn failures,
# dropped leases, workers dying between cache write and ack) plus an
# explicit kill -9 of a pool member mid-sweep — the sweep must still
# complete byte-identically; speed is not gated under chaos.
ci-dist: build
	rm -rf _dist_cache BENCH_dist.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_dist_cache \
	  $(DUNE) exec bench/main.exe -- \
	    fig5 fig8 --workers 4 --json BENCH_dist.json
	test -s BENCH_dist.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_dist.json --expect-dist
	rm -rf _dist_cache BENCH_dist.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_dist_cache \
	  REPRO_FAULTS=dispatch.spawn:0.1:7,dispatch.lease:0.1:7,dispatch.result:0.2:7 \
	  $(DUNE) exec bench/main.exe -- \
	    fig5 --workers 4 --dist-kill --json BENCH_dist.json
	test -s BENCH_dist.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_dist.json --expect-dist
	rm -rf _dist_cache BENCH_dist.json

# Remote-transport gate, two runs over fresh caches. Run 1,
# undisturbed: sweep figures with a 4-worker loopback-TCP pool and no
# local workers, so every artifact must cross the wire through the
# digest-verified install path; the distributed.remote
# block must record the registrations, the renderings byte-identical
# to in-process -j1, and dup_results = 0. Run 2, chaos: the network
# fault sites firing (dropped dials, dropped heartbeats, corrupted
# payloads — each rejected payload counted and quarantined) plus a
# kill -9 of one remote helper mid-sweep; identity and exactly-once
# still gate, speed never does on a disturbed run.
ci-remote: build
	rm -rf _remote_cache BENCH_remote.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_remote_cache \
	  $(DUNE) exec bench/main.exe -- \
	    fig5 fig8 --remote 4 --workers 0 --json BENCH_remote.json
	test -s BENCH_remote.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_remote.json \
	  --expect-dist --expect-remote
	rm -rf _remote_cache BENCH_remote.json
	REPRO_SCALE=0.05 REPRO_CACHE_DIR=_remote_cache \
	  REPRO_FAULTS=dispatch.connect:0.1:7,dispatch.heartbeat:0.1:7,dispatch.payload:0.2:7 \
	  $(DUNE) exec bench/main.exe -- \
	    fig5 --remote 4 --workers 0 --dist-kill --json BENCH_remote.json
	test -s BENCH_remote.json
	$(DUNE) exec bench/main.exe -- --check-json BENCH_remote.json \
	  --expect-dist --expect-remote
	rm -rf _remote_cache BENCH_remote.json

clean:
	$(DUNE) clean
	rm -rf _cache _smoke_cache _faults_cache _serve_cache \
	  _dist_cache _remote_cache _dist_probe_cache.* \
	  _dispatch_test_cache_* \
	  BENCH_faults.json BENCH_serve.json \
	  BENCH_dist.json BENCH_remote.json

cache-clear:
	$(DUNE) exec bin/repro_cli.exe -- cache clear

# Line counts of the .ml/.mli files under lib/, bin/ and bench/, per
# directory and in total: all lines, and code lines (lines with
# something outside a comment; blank and comment-only lines are not
# code). Character literals are blanked first so '"' opens no string.
loc:
	@find lib bin bench -name '*.ml' -o -name '*.mli' | sort | xargs awk ' \
	  FNR == 1 { depth = 0; instr = 0; split(FILENAME, p, "/"); d = p[1] } \
	  { line = $$0; code = 0; \
	    gsub(/\047(\\\\|\\"|[^\\\047])\047/, "c", line); \
	    for (i = 1; i <= length(line); i++) { \
	      c = substr(line, i, 1); c2 = substr(line, i, 2); \
	      if (instr) { code = 1; if (c == "\\") i++; else if (c == "\"") instr = 0 } \
	      else if (c2 == "(*") { depth++; i++ } \
	      else if (depth > 0) { if (c2 == "*)") { depth--; i++ } } \
	      else if (c == "\"") { instr = 1; code = 1 } \
	      else if (c != " " && c != "\t") code = 1 } \
	    lines[d]++; codes[d] += code; lines["total"]++; codes["total"] += code } \
	  END { n = split("lib bin bench total", ds, " "); \
	    for (k = 1; k <= n; k++) \
	      printf "%-6s %6d lines %6d code\n", ds[k], lines[ds[k]], codes[ds[k]] }'
