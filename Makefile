PYTHON ?= python
WORKERS ?= 2
export PYTHONPATH := src

.PHONY: test chaos-quick fuzz-quick verify-quick trace-budget budget ledger-test ledger-selftest ledger-pairs paper examples loc

test:
	$(PYTHON) -m pytest -x -q

# Fault-matrix smoke: one CS crash, one shim partition, one CS hang
# scenario over resilient farm runs, asserting a clean wire check in
# every cell (no unlicensed or uncovered upstream frame, and something
# checked wherever a flow was handed off) and a same-cell determinism
# replay (docs/RESILIENCE.md).
chaos-quick:
	$(PYTHON) -m repro.experiments fault-matrix --quick --workers $(WORKERS)

# Fuzz smoke, under two hash seeds: fixed-seed hostile inputs through
# every parser (twice, asserting a byte-identical corpus digest; an
# SMTP, IRC or FTP engine still reading that holds more than MAX_LINE
# = 8192 bytes of an unfinished line escapes, and the framing those
# engines give the generators' inputs is the `lines` pin,
# tests/golden/lines.json, checked in Tier-1), broken
# policy programs through the DSL parser, worker frames through the
# campaign transport, then four JSON documents broken by one
# table-driven mutator: fault plans through FaultPlan.from_dict, farm
# configs through FarmConfig.from_dict and back, isolation
# certificates through the digest check, the campaign merge and
# GrantIndex, and shard specs through what a slot checks before it
# runs one (never importing the task).  Then hostile frames through a
# live farm trunk under both isolate and fail-stop malice policies,
# and the first hundred router differential scripts — all compared
# against the digests tracked in FUZZ_quick.json, where a digest with
# no pin, a pin with no digest or a missing file fails as drift does
# (docs/HARDENING.md).  Re-pin with `python -m tests.golden.regen fuzz`.
fuzz-quick:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m repro.fuzz --quick || exit 1; \
	done

# Isolation-certificate gate.  First, under two hash seeds, the policy
# differential (derandomized: the decision table a policy executes = a
# brute-force first-match evaluator = the model's cells, over random
# DSL programs and every registered policy class x atom-edge probes x
# content in 1-3 chunks; every table decides every datagram), the
# decision corpus (every library and experiment policy replays what
# its hand-written methods answered before they became rules) and the
# certificate corpus (every farm of tests/test_certificate_corpus.py
# certifies to the digest pinned in tests/golden/certificates.json).
# Then certify the golden-seed farm twice (one classification pass
# over the published decision surface must be CONTAINED with a
# byte-stable certificate digest), the Figure 6 Botfarm, a worm
# honeyfarm (its redirect an in-farm cell) and one fault-matrix
# scenario; cross-validate what the golden run and the scenario's run
# put on the wire (each must leave something to check); and compile a
# model of every registered policy class (docs/VERIFICATION.md).
verify-quick:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_policy_differential.py \
			tests/test_policy_decisions.py \
			tests/test_certificate_corpus.py || exit 1; \
	done
	$(PYTHON) -m repro.verify quick

# Trace-memory gate: the packed capture store's round-trip, store-on/off
# and bytes-per-frame budget tests, and the streaming tests (the
# store-off inmate side, one record around the captured frame itself
# for all observers, streamed and scheduled reports, readers of
# records refusing a trace that let a frame go by unstored), under two
# hash seeds — what a captured frame costs,
# counted not timed (docs/PERFORMANCE.md, "Trace memory").
trace-budget:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_capture.py tests/test_capture_budget.py \
			tests/test_streaming_analysis.py || exit 1; \
	done

# Frame and memory budgets, counted not timed, under two hash seeds:
# what a hop (send | receive_frame), an endpoint segment (10), a table
# hit (7; 4 upstream), an echo round (at most 52) and an HTTP fetch (at
# most 438) may cost in Python frames, what a scan probe may cost in
# frame hops (at most 15.5), one flow-table probe per packet
# in every phase of a flow's life (and one table read per key when a
# finished flow is released), no payload copy made by the send path, a
# journal digest whose peak does not grow with the journal, and a churn
# farm that keeps no record, row or rule of a finished flow and grows
# by at most 1,500 bytes, traces included, per extra finished fetch
# (docs/PERFORMANCE.md, "Flow memory"), a small scan that holds
# nothing after its probes but its dropped datagram flows, and a
# connection census: after the drained churn farm and 300 s of the
# Figure 7 Botfarm, every live TCP connection is an open flow's
# endpoint or in TIME_WAIT (no half-closed or closed leg held on to,
# as the REWRITE proxy once did).  Then what
# observing costs: the seed
# farm keeps its pinned digest with the journal on and pins its journal
# digest, a fast-path pump journals at most 8 events, a scan journals
# three events for a TCP DROP and four for every other flow and keeps
# its digest with the journal on or off, Python frames entered in
# repro/obs/metrics.py stay within 2.196 per flow on the observed scan
# (0.058 per event of its 47,408 events over 1,252 flows), and within
# 2.53 per flow with telemetry off and 2.75 with it on over a flow
# workload (at least 20 instruments reading), and in repro/obs/ within
# 16 per journaled flow.  Last, the
# frames-by-file table behind the fetch and the echo round
# (docs/PERFORMANCE.md, "The gateway kernel" and "Trace memory";
# docs/OBSERVABILITY.md, "Overhead").
budget:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_hop_budget.py tests/test_endpoint_budget.py \
			tests/test_forwarding_budget.py \
			tests/test_memory_budget.py tests/test_flow_memory.py \
			tests/test_obs_budget.py || exit 1; \
	done
	$(PYTHON) -m tests.test_forwarding_budget

# The layer ledger's own unit tests (not in the Tier-1 testpaths) and
# its smoke-sized determinism self-test (benchmarks/ledger/README.md).
ledger-test:
	$(PYTHON) -m pytest -q benchmarks/ledger

ledger-selftest:
	$(PYTHON) benchmarks/ledger/run.py --selftest

# Alternating ledger pairs of two revisions, each run from a fresh
# `git archive` tree, judged by benchmarks/ledger/compare.py against
# BENCHMARK.json's bounds, with each metric's wins per pair; exits 1 on
# any run that is not correct or a failed gate (benchmarks/pairs.py).
# `make ledger-pairs WORKLOAD=flow_churn PAIRS=4 BASE=HEAD~1 SEED=12`.
WORKLOAD ?= scan_journaled
PAIRS ?= 10
BASE ?= HEAD~1
CHANGE ?= HEAD
SEED ?= 11
ledger-pairs:
	$(PYTHON) benchmarks/pairs.py --workload $(WORKLOAD) --pairs $(PAIRS) \
		--base $(BASE) --change $(CHANGE) --seed $(SEED)

# The paper gate: regenerate Table 1, Figures 1-7 and the case studies
# (every row of repro.experiments.registry.ARTEFACTS that is not a
# sweep, ~55 s) and byte-compare each with its tracked file; prints a
# unified diff and exits 1 on drift.  Re-record one with
# `python -m repro.experiments <id> --out benchmarks/output`.
paper:
	$(PYTHON) -m repro.experiments paper --check benchmarks/output

# Every script in examples/, each from a fresh temp directory (none
# may lean on, or leave files in, the checkout); fails on the first
# non-zero exit, its traceback on stderr (~10 s).
examples:
	@for script in examples/*.py; do \
		echo "$$script"; \
		dir=$$(mktemp -d); \
		(cd "$$dir" && PYTHONPATH="$(CURDIR)/src" \
			$(PYTHON) "$(CURDIR)/$$script" > /dev/null); \
		status=$$?; rm -rf "$$dir"; \
		[ $$status -eq 0 ] || { echo "$$script exited $$status"; exit 1; }; \
	done

# Files and Python lines per src/repro package, then benchmarks/
# (ex-ledger) and examples/ beside src/, so code moved between them
# shows as a move: the before/after table a deletion PR reports.
loc:
	@count() { label=$$1; shift; \
		printf '%-22s %4d files %6d lines\n' "$$label" \
			$$(find "$$@" -name '*.py' -print | wc -l) \
			$$(find "$$@" -name '*.py' -exec cat {} + | wc -l); }; \
	for pkg in src/repro/*/; do count $$pkg $$pkg; done; \
	count 'src/repro/*.py' src/repro -maxdepth 1; \
	count 'src/ (total)' src; \
	count 'benchmarks/ (ex-ledger)' benchmarks -path benchmarks/ledger -prune -o; \
	count 'examples/' examples; \
	count 'all three' src benchmarks examples -path benchmarks/ledger -prune -o
