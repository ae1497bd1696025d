# Convenience targets for the MajorCAN reproduction.

PYTHON ?= python
# JSON report written by bench-perf (override: make bench-perf OUT=foo.json).
# Re-baselining the perf gate is an explicit OUT=BENCH_PR10.json.
OUT ?= bench-report.json

.PHONY: install test lint bench-perf bench-batch corpus-check corpus-update examples experiments clean

install:
	pip install -e . || $(PYTHON) setup.py develop

# Same invocation as the tier-1 CI job — works without an editable install.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/

# Uses ruff (configured in pyproject.toml) when available; otherwise the
# stdlib fallback checker in tools/lint.py covers the same error classes.
lint:
	$(PYTHON) tools/lint.py

# Timing harness: every reference-vs-candidate row (engine vs batch,
# reference vs fast-path controller, jobs=1 vs jobs=N), identity asserted
# on each; writes $(OUT).
bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_harness.py --out $(OUT)

# Only the batch-enumeration rows (engine vs batch backend on identical
# verify_consistency universes, verdicts asserted equal).
bench-batch:
	PYTHONPATH=src $(PYTHON) benchmarks/perf_harness.py --section batch_enumeration --section batch_enumeration_majorcan --out BENCH_BATCH.json

# Golden-scenario trace corpus (see docs/traces.md).  check replays
# every recording and fails on any behavioural diff; update re-records
# the corpus after an *intended* behaviour change (review the diff!).
corpus-check:
	PYTHONPATH=src $(PYTHON) -m repro.cli corpus check --dir corpus

corpus-update:
	PYTHONPATH=src $(PYTHON) -m repro.cli corpus update --dir corpus

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/scenario_gallery.py
	$(PYTHON) examples/table1_reproduction.py
	$(PYTHON) examples/protocol_comparison.py
	$(PYTHON) examples/automotive_network.py
	$(PYTHON) examples/rufino_protocols.py
	$(PYTHON) examples/bounded_verification.py
	$(PYTHON) examples/dual_bus.py
	$(PYTHON) examples/desync_finding.py

experiments:
	$(PYTHON) -m repro.cli table1
	$(PYTHON) -m repro.cli scenarios
	$(PYTHON) -m repro.cli fig4
	$(PYTHON) -m repro.cli matrix
	$(PYTHON) -m repro.cli overhead
	$(PYTHON) -m repro.cli ablation
	$(PYTHON) -m repro.cli reliability
	$(PYTHON) -m repro.cli geometry
	$(PYTHON) -m repro.cli verify --flips 1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
