# Convenience targets for the RIT reproduction.

PY ?= python

.PHONY: install test lint analyze typecheck check trace trace-smoke serve serve-smoke metrics-smoke sentinel sentinel-smoke arena arena-smoke bench bench-smoke perfbench-smoke bench-pytest bench-json smoke paper report examples clean

install:
	pip install -e .

test:
	PYTHONPATH=src $(PY) -m pytest tests/

# Static analysis: the RIT domain linter always runs; ruff and mypy run
# where installed (optional dev dependencies) and are skipped otherwise.
lint:
	PYTHONPATH=src $(PY) -m repro.devtools.lint src tests benchmarks examples
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping (pip install -e .[dev])"; \
	fi

# Whole-program determinism & concurrency analyzer (RIT009-RIT013),
# gated strictly against the committed analysis_baseline.json.  Warm runs
# re-parse only changed files (.rit_analysis_cache.json, git-ignored).
# `rit analyze --bench` merges the measured section into BENCH_RIT.json.
analyze:
	PYTHONPATH=src $(PY) -m repro.devtools.analysis --ci

typecheck:
	@if $(PY) -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PY) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e .[dev])"; \
	fi

# Traced demo run: JSONL event log + span tree + metrics snapshot
# (see docs/observability.md for the schema).
trace:
	PYTHONPATH=src $(PY) -m repro trace --out TRACE_RIT.jsonl

# CI gate: run a traced demo scenario and validate the emitted JSONL
# against the trace schema + span/counter coverage.
trace-smoke:
	PYTHONPATH=src $(PY) -m repro trace --smoke --out /tmp/rit_trace_smoke.jsonl

# Online mechanism service over a seeded stream (docs/service.md);
# every epoch is differential-checked against the offline RIT.run anchor.
serve:
	PYTHONPATH=src $(PY) -m repro serve

# CI gate (<10s): tiny seeded stream -> epoch-batched serve with sharded
# workers -> bit-identity differential vs the offline replay; then the
# same stream with a seeded sybil burst under the sentinel plane.
serve-smoke:
	PYTHONPATH=src $(PY) -m repro serve --smoke
	PYTHONPATH=src $(PY) -m repro serve --smoke --attack sybil

# CI gate (<15s): boot the smoke service with the HTTP telemetry plane on
# an ephemeral port and self-probe /metrics (must round-trip the
# OpenMetrics parser), /healthz, /readyz and /epochs over real TCP.
metrics-smoke:
	PYTHONPATH=src $(PY) -m repro serve --smoke --metrics-port 0 --probe-metrics

# Live-adversary gate (docs/sentinel.md): three clean pinned scenarios
# must stay alert-free, each seeded sybil/collusion/churn injection must
# be flagged within K epochs, every run bit-matches the offline replay.
# `rit sentinel --bench` merges the section into BENCH_RIT.json.
sentinel:
	PYTHONPATH=src $(PY) -m repro sentinel

# CI gate (<10s): one clean scenario + one sybil injection.
sentinel-smoke:
	PYTHONPATH=src $(PY) -m repro sentinel --smoke

# Head-to-head mechanism arena (docs/arena.md): the full registry roster
# (RIT, OMG, GLT, the §4 baselines) replayed over one pinned seeded
# stream, clean + attacked, twice — the scorecard must be bit-identical,
# GLT's budget exact to the cent, and RIT minimal on sybil gain.
# `rit arena --bench` merges the section into BENCH_RIT.json.
arena:
	PYTHONPATH=src $(PY) -m repro arena

# CI gate (<30s): the four-mechanism acceptance roster on a smaller
# stream, same gates.
arena-smoke:
	PYTHONPATH=src $(PY) -m repro arena --smoke

# The full gate new PRs must pass: domain lint + whole-program analysis
# + types + tier-1 tests + the trace schema smoke + the service
# differential smoke + the bench schema smoke + the live
# telemetry endpoint smoke + the live-adversary sentinel smoke + the
# head-to-head arena smoke + the live-path benchmark's tiny shapes.
check: lint analyze typecheck test trace-smoke serve-smoke bench-smoke metrics-smoke sentinel-smoke arena-smoke perfbench-smoke

# Fast perf baseline: times the scaling workload on both auction engines
# (sorted, reference) and rewrites BENCH_RIT.json whole, so re-run the
# `analyze`, `sentinel` and `arena` `--bench` merges afterwards.
bench:
	PYTHONPATH=src $(PY) -m repro bench --out BENCH_RIT.json

# CI gate (<10s): tiny sorted+reference workload through `rit bench
# --smoke`, schema-validated (per-engine blocks, stage totals, speedup
# keys) without touching the committed BENCH_RIT.json.
bench-smoke:
	PYTHONPATH=src $(PY) -m repro bench --smoke --out /tmp/rit_bench_smoke.json

# CI gate (~12s): the live-path benchmark (perfbench/) on tiny growth,
# churn and paced shapes, with its replay differential and ledger checks.
perfbench-smoke:
	$(PY) -m pytest perfbench/tests -q

# Full pytest-benchmark sweep over benchmarks/.
bench-pytest:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only

bench-json:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only --benchmark-json=bench_results.json

smoke:
	RIT_SCALE=smoke PYTHONPATH=src $(PY) -m pytest tests/ benchmarks/ --benchmark-only -q

paper:
	RIT_SCALE=paper PYTHONPATH=src $(PY) -m repro report --out paper_scale_report.md

report:
	PYTHONPATH=src $(PY) -m repro report --out report.md

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PY) $$f; echo; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
