"""Self-test of the benchmark at tiny sizes: ``pytest bench/``.

Drives the runner's Python API (no CLI flag) with each workload's
``tiny`` parameters, so every check spawns real ``repro.cli`` children
but finishes in seconds.
"""

from __future__ import annotations

import pytest

import run

SEED = 11


def _expected(name: str, **changes) -> dict:
    """The workload's expected exit codes, with no fingerprints recorded."""
    expected = dict(run.expectations()[name], fingerprints={})
    expected.update(changes)
    return expected


def _rep(name, tmp_path, traced=False, **overrides):
    params = run.workload_params(name, tiny=True, **overrides)
    return run.run_rep(name, SEED, params, traced, _expected(name), None,
                       str(tmp_path), "test")


def test_engine_and_batch_record_the_same_bytes(tmp_path):
    batch = _rep("paper_profile", tmp_path, backend="batch")
    engine = _rep("paper_profile", tmp_path, backend="engine")
    assert batch.problems == [] and engine.problems == []
    assert batch.fingerprint == engine.fingerprint


def test_noisy_store_is_the_same_for_one_and_two_jobs(tmp_path):
    serial = _rep("noisy_sweep", tmp_path, jobs=1)
    pooled = _rep("noisy_sweep", tmp_path, jobs=2)
    assert serial.problems == [] and pooled.problems == []
    assert serial.fingerprint == pooled.fingerprint


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_has_the_untraced_outputs(name, tmp_path):
    plain = _rep(name, tmp_path)
    traced = _rep(name, tmp_path, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert traced.fingerprint == plain.fingerprint
    assert traced.layers and not plain.layers


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    wanted = {metric["name"]: metric["unit"] for metric in run.config()[section]}
    result = run.run_workload("verify_m5", SEED, 0, trace,
                              params=run.workload_params("verify_m5", tiny=True),
                              expected=_expected("verify_m5"))
    assert result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == wanted
    assert all(isinstance(entry["value"], (int, float))
               for entry in result["metrics"].values())


def test_corrupted_fingerprint_fails_every_repetition():
    corrupt = _expected("design_sweep", fingerprints={str(SEED): "0" * 64})
    result = run.run_workload("design_sweep", SEED, 0, 0,
                              params=run.workload_params("design_sweep", tiny=True),
                              expected=corrupt)
    assert result["attempted"] >= 1
    assert result["failed_share"] == 1.0
