"""The perf harness: its runner's identity and share checks, and a smoke
run that exercises every row (the parallel path included) and pins the
report keys the perf gate reads."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(_ROOT, "benchmarks", "perf_harness.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


perf_harness = _load("perf_harness", HARNESS)
perf_gate = _load("perf_gate", os.path.join(_ROOT, "tools", "perf_gate.py"))


def _fake_row(candidate=(1, 2, 3), share=None, max_share=None):
    return perf_harness.Row(
        "fake",
        reference=lambda: (1, 2, 3),
        candidate=lambda: candidate,
        surface=lambda result: result,
        items=len,
        unit="items",
        share=None if share is None else (lambda result: share),
        max_share=max_share,
    )


class TestRunner:
    def test_identical_sides_give_a_report_entry(self):
        entry = perf_harness.run_row(_fake_row(share=0.05, max_share=0.10))
        assert entry["items"] == 3 and entry["unit"] == "items"
        assert entry["reference"]["seconds"] >= 0
        assert entry["candidate"]["per_sec"] > 0
        assert entry["speedup"] > 0
        assert entry["engine_share"] == 0.05

    def test_diverging_candidate_raises(self):
        with pytest.raises(AssertionError, match="diverged"):
            perf_harness.run_row(_fake_row(candidate=(1, 2, 4)))

    @pytest.mark.parametrize("share,bound", [(0.10, 0.10), (0.5, 0.10), (0.01, 0.0)])
    def test_breached_engine_share_raises(self, share, bound):
        with pytest.raises(AssertionError, match="engine share"):
            perf_harness.run_row(_fake_row(share=share, max_share=bound))

    def test_zero_share_meets_a_zero_bound(self):
        entry = perf_harness.run_row(_fake_row(share=0.0, max_share=0.0))
        assert entry["engine_share"] == 0.0

    def test_staged_row_builds_and_times_each_repeat(self):
        builds = []
        row = perf_harness.Row(
            "staged",
            reference=lambda: builds.append("reference") or (lambda: 7),
            candidate=lambda: builds.append("candidate") or (lambda: 7),
            surface=lambda result: result,
            items=lambda result: result,
            unit="bits",
            staged=True,
        )
        entry = perf_harness.run_row(row)
        assert entry["items"] == 7
        assert builds.count("reference") == builds.count("candidate") == row.repeats


def test_gated_rows_time_best_of_three():
    """A single timed run per side makes a gated ratio pass or fail by
    chance; every row behind a gated metric takes the best of three."""
    rows = {row.key: row for row in perf_harness.rows(smoke=True, jobs=2)}
    for metric in perf_gate.GATED_METRICS:
        key = metric.rsplit(".", 1)[0]
        assert rows[key].repeats >= 3, metric


def test_smoke_run_writes_report(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, HARNESS, "--smoke", "--jobs", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(out.read_text())
    assert report["smoke"] is True
    assert report["host"]["cpu_count"] >= 1
    for row in perf_harness.rows(smoke=True, jobs=2):
        entry = perf_gate.lookup(report, row.key)
        assert entry["items"] > 0, row.key
        assert entry["reference"]["per_sec"] > 0, row.key
        assert entry["candidate"]["per_sec"] > 0, row.key
        assert entry["speedup"] > 0, row.key
    # The report-key contract with the gate: every gated path resolves.
    for metric in perf_gate.GATED_METRICS:
        value = perf_gate.lookup(report, metric)
        assert isinstance(value, float) and value > 0, metric
