PYTHON ?= python
WORKERS ?= 2
export PYTHONPATH := src

.PHONY: test bench bench-quick bench-parallel bench-parallel-quick chaos-quick fuzz-quick obs-quick verify-quick trace-budget budget ledger-test ledger-selftest paper loc

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) benchmarks/bench_hotpath.py

bench-parallel:
	$(PYTHON) benchmarks/bench_parallel_scaling.py

# Multi-host smoke: the same campaign dispatched to a localhost
# `python -m repro.parallel.worker` agent over TCP (SocketTransport);
# exits 1 on serial-vs-socket digest drift or a crash-isolation
# violation across the socket (docs/PARALLELISM.md, "Multi-host
# dispatch").
bench-parallel-quick:
	$(PYTHON) benchmarks/bench_parallel_scaling.py --quick-socket --workers $(WORKERS)

# Determinism smoke: same-seed replay, plus the batched datapath
# gates — ingest_batch wire/counter/stat parity vs scalar and
# farm-level batch-window determinism (docs/PERFORMANCE.md).  Exits 1
# on any drift.
bench-quick:
	$(PYTHON) benchmarks/bench_hotpath.py --quick
	$(PYTHON) benchmarks/bench_parallel_scaling.py --quick --workers $(WORKERS)

# Fault-matrix smoke: one CS crash, one shim partition, one CS hang
# scenario over resilient farm runs, asserting zero unverdicted-flow
# leaks and a same-cell determinism replay (docs/RESILIENCE.md).
chaos-quick:
	$(PYTHON) -m repro.experiments fault-matrix --quick --workers $(WORKERS)

# Fuzz smoke, under two hash seeds: fixed-seed hostile inputs through
# every parser (twice, asserting a byte-identical corpus digest), broken
# policy programs through the DSL parser, hostile frames through a live
# farm trunk under both isolate and fail-stop malice policies, then the
# first hundred router differential scripts — all compared against the
# digests tracked in FUZZ_quick.json (docs/HARDENING.md).
fuzz-quick:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m repro.fuzz --quick || exit 1; \
	done

# Observability overhead gate, both instruments in one bench: with the
# flight recorder off, farm digests must stay byte-identical to the
# ones tracked in BENCH_hotpath.json; with it on, digests are
# unchanged (observing never perturbs) and the journal digest is
# seed-stable.  Cost is gated where it is counted — journal events per
# fast-path pump and per scanned flow, the recorder's replayed
# ns/event, no-op instrument calls per event with telemetry off — and
# the whole-run wall-clock slowdowns are printed, not failed on
# (docs/OBSERVABILITY.md, "Overhead").
obs-quick:
	$(PYTHON) benchmarks/bench_obs_overhead.py --quick

# Isolation-certificate gate.  First, under two hash seeds, the policy
# differential (derandomized: the decision table a policy executes = a
# brute-force first-match evaluator = the model's cells, over random
# DSL programs and every registered policy class x atom-edge probes x
# content in 1-3 chunks) and the decision corpus (every library and
# experiment policy replays what its hand-written methods answered).
# Then certify the golden-seed farm twice (exhaustive reachability over
# the published decision surface must be CONTAINED with a byte-stable
# certificate digest), one fault-matrix scenario cross-validated
# against its own runtime journal and flow tables, and the Figure 6
# Botfarm (CONTAINED and exact) (docs/VERIFICATION.md).
verify-quick:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_policy_differential.py \
			tests/test_policy_decisions.py || exit 1; \
	done
	$(PYTHON) -m repro.verify quick

# Trace-memory gate: the packed capture store's round-trip, ring and
# bytes-per-frame budget tests under two hash seeds — what a captured
# frame costs, counted not timed (docs/PERFORMANCE.md, "Trace memory").
trace-budget:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_capture.py tests/test_capture_budget.py || exit 1; \
	done

# Frame and memory budgets, counted not timed, under two hash seeds:
# what a hop, an endpoint segment, a table hit, an echo round and an
# HTTP fetch may cost in Python frames, one flow-table probe per packet
# in every phase of a flow's life, no payload copy made by the send
# path, and a journal digest whose peak does not grow with the journal
# — then the frames-by-file table behind the fetch and the echo round
# (docs/PERFORMANCE.md, "The gateway kernel" and "Trace memory").
budget:
	for seed in 0 4242; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			tests/test_hop_budget.py tests/test_endpoint_budget.py \
			tests/test_forwarding_budget.py \
			tests/test_memory_budget.py || exit 1; \
	done
	$(PYTHON) -m tests.test_forwarding_budget

# The layer ledger's own unit tests (not in the Tier-1 testpaths) and
# its smoke-sized determinism self-test (benchmarks/ledger/README.md).
ledger-test:
	$(PYTHON) -m pytest -q benchmarks/ledger

ledger-selftest:
	$(PYTHON) benchmarks/ledger/run.py --selftest

# The paper gate: regenerate Table 1, Figures 1-7 and the case studies
# (every row of repro.experiments.registry.ARTEFACTS that is not a
# sweep, ~55 s) and byte-compare each with its tracked file; prints a
# unified diff and exits 1 on drift.  Re-record one with
# `python -m repro.experiments <id> --out benchmarks/output`.
paper:
	$(PYTHON) -m repro.experiments paper --check benchmarks/output

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
