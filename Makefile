# Convenience targets for the Ruby reproduction.

PYTHON ?= python

# Every target imports the package from this checkout's src/ (no
# `make install` needed), ahead of whatever PYTHONPATH the caller set.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test coverage verify-diff verify-smoke bench bench-fast bench-cache bench-batch bench-sample bench-bnb bench-bnb-parallel bench-record bench-compare perfbench-test campaign-smoke obs-smoke service-smoke examples experiments clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Line coverage over the package (needs pytest-cov from the [test] extras).
# The fail-under threshold is the ratchet CI enforces; raise it as coverage
# grows, never lower it.
COV_FAIL_UNDER ?= 80
coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
	    --cov-fail-under=$(COV_FAIL_UNDER)

# Differential verification: cross-check scalar / cached / batch /
# reference-sim evaluation paths on generated mappings plus the
# metamorphic invariant suite. See docs/verification.md.
verify-diff:
	$(PYTHON) -m repro verify --quick --seed 0

# End-to-end self-test of the harness itself: quick verify must pass, and
# an intentionally injected off-by-one in the access-count pipeline must
# be caught with a shrunk, replayable counterexample.
verify-smoke:
	$(PYTHON) scripts/verify_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-fast:
	$(PYTHON) -m pytest benchmarks/test_table1_mapspace_sizes.py \
	    benchmarks/test_fig08_padding_sweep.py \
	    benchmarks/test_fig09_alexnet_handcrafted.py \
	    benchmarks/test_ablations.py --benchmark-only -s

# Smoke benchmark for the evaluation-cache fast path: fails if cached
# re-evaluation drops below 10x a cold evaluation, or if caching changes
# any search result. Cheap enough to run in CI on every change.
bench-cache:
	$(PYTHON) -m pytest benchmarks/test_perf_eval_cache.py --benchmark-only -s

# Smoke benchmark for the vectorized batch engine: fails if the batch path
# drops below 5x scalar throughput on the toy exhaustive sweep, falls behind
# scalar on a ResNet-50 layer search, prices conv5_expand's sweep from
# per-chain tables < 1.2x faster than the column walk, enumerates that
# sweep in factored steps < 2x faster than the flat unravel, or diverges
# from any reference. Like every bench-* gate it prints its measurements
# and writes no file; the ledger records BENCHMARK.json's workloads.
bench-batch:
	$(PYTHON) -m pytest benchmarks/test_perf_batch_eval.py --benchmark-only -s

# Smoke benchmark for the random-search sampler: fails if
# MapSpace.sample_batch drops below 4x the draws per second of the
# per-candidate sampler it replaced (per_candidate_sample + pack_mappings)
# on four ResNet-50 layers' Eyeriss PFM/Ruby-S mapspaces, or if the two
# draw different arrays from equal seeds.
bench-sample:
	$(PYTHON) -m pytest benchmarks/test_perf_sample.py --benchmark-only -s

# Smoke benchmark for the branch-and-bound mapper: fails if it drops below
# 2x batched-exhaustive speed on a ResNet-50 layer's Eyeriss mapspace,
# stops pruning subtrees, or diverges from the exhaustive optimum.
bench-bnb:
	$(PYTHON) -m pytest benchmarks/test_perf_branch_bound.py --benchmark-only -s

# Smoke benchmark for parallel branch-and-bound: 4-worker subtree
# work-sharing must beat the serial walk by >= 1.8x on a ResNet-50
# layer's Eyeriss mapspace with a bit-identical optimum (the speedup
# gate skips on < 4 cores; exactness is always asserted).
bench-bnb-parallel:
	$(PYTHON) -m pytest benchmarks/test_perf_branch_bound_parallel.py --benchmark-only -s

# Run every BENCHMARK.json workload (three untraced runs, medians kept,
# plus one traced run for the per-layer metrics) and append one
# machine-tagged record to the BENCH_HISTORY.jsonl regression ledger.
# Takes several minutes; run it on a quiet host.
bench-record:
	$(PYTHON) -m repro bench record

# Benchmark regression gate: diff the newest ledger record against its
# (same-machine) baseline and exit nonzero when an end-to-end metric
# worsens past its BENCHMARK.json bound, then self-test the gate on
# throwaway ledgers recorded from a fake benchmark command.
# See docs/observability.md ("Benchmark ledger").
bench-compare:
	$(PYTHON) -m repro bench compare
	$(PYTHON) scripts/bench_compare_smoke.py

# The repo benchmark's own tests (perfbench/): metric tables, seeded
# inputs, output checks, and the layer wrappers that patch the search,
# batch and evaluator entry points by name. About 20 s.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

# End-to-end robustness smoke: runs a tiny campaign, SIGKILLs it mid-run,
# resumes from the journal, and checks best-EDP parity plus fault-injection
# retry/quarantine semantics. See scripts/campaign_smoke.py.
campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py

# End-to-end observability smoke: runs a traced toy search and validates
# the span schema, duration nesting, metric counts against the search's
# own report, and the `repro obs` CLI; then launches a CLI search with
# --serve-metrics 0 and scrapes /progress + /metrics mid-run (nonzero,
# monotone progress fraction). See scripts/obs_smoke.py.
obs-smoke:
	$(PYTHON) scripts/obs_smoke.py

# End-to-end mapper-service smoke: launches `repro serve`, drives 20
# concurrent clients (coalescing + shared warm cache asserted), checks
# bit-identical best-EDP parity against a direct in-process search, and
# SIGKILLs the server mid-queue to prove --resume loses no accepted
# job. See scripts/service_smoke.py and docs/service.md.
service-smoke:
	$(PYTHON) scripts/service_smoke.py

# The loop stops at the first example that fails.
examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

experiments:
	$(PYTHON) -m repro experiment table1
	$(PYTHON) -m repro experiment fig9

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
