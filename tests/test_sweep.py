"""Tests for the resumable design-space sweep service (repro.sweep).

Covers the contracts the sweep engine is built on: spec validation,
content-addressed cell keys stable across process restarts, store
compaction that is a pure function of the stored cell set, skip-on-rerun
incrementality, and interrupt/resume determinism across backends and
worker counts.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.sweep
from repro.errors import ConfigurationError
from repro.metrics.export import read_jsonl
from repro.sweep import (
    ResultStore,
    SweepCell,
    SweepSpec,
    cell_constants,
    cell_key,
    expand_cells,
    pending_cells,
    run_sweep,
    surface_rows,
)

#: A small grid that exercises two protocols and two BERs but keeps the
#: fault universe tiny (window=1, max_flips=1 -> 4 patterns per cell).
SMALL_SPEC = dict(
    name="test-grid",
    protocols=("can", "majorcan"),
    m_values=(5,),
    bers=(1e-5, 1e-4),
    bit_rates=(500_000.0,),
    bus_lengths_m=(30.0,),
    payloads=(1,),
    node_counts=(3,),
    window=1,
    max_flips=1,
)


def small_spec(**overrides):
    params = dict(SMALL_SPEC)
    params.update(overrides)
    return SweepSpec(**params)


class TestSweepSpecValidation:
    def test_defaults_are_valid(self):
        spec = SweepSpec()
        assert spec.cell_count() == len(spec.protocols) * len(spec.bers)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(protocols=("canfd",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(bers=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(m_values=(5, 5))

    def test_bad_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(bers=(0.0,))
        with pytest.raises(ConfigurationError):
            SweepSpec(m_values=(1,))
        with pytest.raises(ConfigurationError):
            SweepSpec(node_counts=(1,))
        with pytest.raises(ConfigurationError):
            SweepSpec(payloads=(9,))
        with pytest.raises(ConfigurationError):
            SweepSpec(window=0)
        with pytest.raises(ConfigurationError):
            SweepSpec(load=0.0)

    def test_bool_axis_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(payloads=(True,))

    def test_cell_validation(self):
        with pytest.raises(ConfigurationError):
            SweepCell("can", 5, 1e-5, -1.0, 40.0, 1, 3)
        with pytest.raises(ConfigurationError):
            SweepCell("can", 5, 2.0, 1e6, 40.0, 1, 3)

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"name": "x", "grid": "dense"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json("not json")

    def test_json_round_trip(self):
        spec = small_spec()
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(small_spec().to_json())
        assert SweepSpec.from_file(str(path)) == small_spec()

    def test_explicit_cells_round_trip(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        spec = SweepSpec(name="explicit", cells=(cell,))
        assert spec.cell_count() == 1
        assert expand_cells(spec) == [cell]
        again = SweepSpec.from_json(spec.to_json())
        assert again.cells == (cell,)

    def test_product_expansion_is_deterministic(self):
        spec = small_spec()
        cells = expand_cells(spec)
        assert len(cells) == spec.cell_count() == 4
        assert cells == expand_cells(spec)
        # Protocol is the outermost axis.
        assert [cell.protocol for cell in cells] == [
            "can",
            "can",
            "majorcan",
            "majorcan",
        ]


class TestCellKeys:
    def test_key_is_stable_across_process_restarts(self):
        spec = small_spec()
        cell = expand_cells(spec)[0]
        constants = cell_constants(
            cell, window=spec.window, max_flips=spec.max_flips, load=spec.load
        )
        here = cell_key(cell, constants)
        script = (
            "from repro.sweep import SweepSpec, cell_constants, cell_key, "
            "expand_cells\n"
            "spec = SweepSpec.from_json(%r)\n"
            "cell = expand_cells(spec)[0]\n"
            "constants = cell_constants(cell, window=spec.window, "
            "max_flips=spec.max_flips, load=spec.load)\n"
            "print(cell_key(cell, constants))\n" % spec.to_json()
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert output.stdout.strip() == here

    def test_key_depends_on_backend(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        batch = cell_constants(cell, window=2, max_flips=2, load=0.9)
        engine = cell_constants(
            cell, window=2, max_flips=2, load=0.9, backend="engine"
        )
        assert cell_key(cell, batch) != cell_key(cell, engine)

    def test_key_depends_on_spec_constants(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        base = cell_constants(cell, window=2, max_flips=2, load=0.9)
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, window=1, max_flips=2, load=0.9)
        )
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, window=2, max_flips=1, load=0.9)
        )
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, window=2, max_flips=2, load=0.5)
        )

    def test_chunk_partition_is_part_of_identity(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        constants = cell_constants(cell, window=2, max_flips=2, load=0.9)
        assert "chunk_cells" in constants
        bumped = dict(constants, chunk_cells=constants["chunk_cells"] + 1)
        assert cell_key(cell, constants) != cell_key(cell, bumped)

    def test_unknown_backend_rejected(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        with pytest.raises(ConfigurationError):
            cell_constants(
                cell, window=2, max_flips=2, load=0.9, backend="gpu"
            )


class TestResultStore:
    def record(self, key, value):
        return {"key": key, "cell": {"x": value}, "result": {"v": value}}

    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        assert store.keys() == set()
        store.append([self.record("b", 2), self.record("a", 1)])
        assert store.keys() == {"a", "b"}

    def test_append_without_key_raises(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        with pytest.raises(Exception):
            store.append([{"cell": {}}])

    def test_compaction_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        store.append([self.record("b", 2), self.record("a", 1)])
        status = store.compact()
        assert status.records == 2
        assert not os.path.exists(store.log_path)
        rows = read_jsonl(store.compacted_path)
        assert [row["key"] for row in rows] == ["a", "b"]
        # The records survive compaction intact.
        assert store.records()["a"]["result"] == {"v": 1}

    def test_compaction_is_byte_deterministic(self, tmp_path):
        ordered = ResultStore(str(tmp_path / "ordered"))
        shuffled = ResultStore(str(tmp_path / "shuffled"))
        records = [self.record(chr(ord("a") + i), i) for i in range(6)]
        ordered.append(records)
        shuffled.append(records[::-1])
        ordered.compact()
        shuffled.compact()
        assert ordered.compacted_bytes() == shuffled.compacted_bytes()
        # Compacting again (and appending duplicates first) is a no-op.
        shuffled.append(records[:2])
        shuffled.compact()
        assert shuffled.compacted_bytes() == ordered.compacted_bytes()

    def test_index_matches_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        store.append([self.record("a", 1)])
        status = store.compact()
        index = json.loads(open(store.index_path).read())
        assert index["records"] == 1
        assert index["digest"] == status.digest == store.status().digest


class TestRunSweep:
    def test_rerun_evaluates_nothing(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "s"))
        first = run_sweep(spec, store, jobs=1)
        assert first.evaluated == spec.cell_count() == 4
        assert first.complete
        again = run_sweep(spec, store, jobs=1)
        assert again.evaluated == 0
        assert again.skipped == spec.cell_count()
        assert again.digest == first.digest

    def test_interrupted_resume_across_jobs_is_byte_identical(self, tmp_path):
        spec = small_spec()
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        resumed = ResultStore(str(tmp_path / "resumed"))
        partial = run_sweep(spec, resumed, jobs=1, cell_budget=1)
        assert partial.evaluated == 1
        assert partial.deferred == spec.cell_count() - 1
        assert not partial.complete
        rest = run_sweep(spec, resumed, jobs=2)
        assert rest.evaluated == spec.cell_count() - 1
        assert rest.complete
        assert resumed.compacted_bytes() == fresh.compacted_bytes()
        assert resumed.compacted_bytes()  # non-empty

    def test_zero_budget_defers_everything(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "s"))
        report = run_sweep(spec, store, jobs=1, cell_budget=0)
        assert report.evaluated == 0
        assert report.deferred == spec.cell_count()

    def test_engine_and_batch_results_agree(self, tmp_path):
        spec = small_spec(protocols=("can",), bers=(1e-4,))
        batch = ResultStore(str(tmp_path / "batch"))
        engine = ResultStore(str(tmp_path / "engine"))
        run_sweep(spec, batch, jobs=1, backend="batch")
        run_sweep(spec, engine, jobs=1, backend="engine")
        (b,) = batch.records().values()
        (e,) = engine.records().values()
        # The backend is part of the key, so the stores differ --
        # but the physics must not.
        assert b["key"] != e["key"]
        b_result = {k: v for k, v in b["result"].items() if k != "backend_stats"}
        e_result = {k: v for k, v in e["result"].items() if k != "backend_stats"}
        assert b_result == e_result

    def test_pending_cells_shrink_as_store_fills(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "s"))
        pending, skipped = pending_cells(spec, store)
        assert len(pending) == 4 and skipped == 0
        run_sweep(spec, store, jobs=1, cell_budget=2)
        pending, skipped = pending_cells(spec, store)
        assert len(pending) == 2 and skipped == 2

    def test_surface_rows(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "s"))
        run_sweep(spec, store, jobs=1)
        rows = surface_rows(store)
        assert len(rows) == 4
        assert [row["key"] for row in rows] == sorted(
            row["key"] for row in rows
        )
        for row in rows:
            assert row["protocol"] in ("can", "majorcan")
            assert row["p_imo"] is not None
            assert row["bus_feasible"] is True  # 30 m at 500 kbit/s fits

    def test_result_fields(self, tmp_path):
        spec = small_spec(protocols=("majorcan",), bers=(1e-4,))
        store = ResultStore(str(tmp_path / "s"))
        run_sweep(spec, store, jobs=1)
        (record,) = store.records().values()
        result = record["result"]
        # MajorCAN_5 adds its best-case 2m-7 = 3 overhead bits.
        can_tau = 53
        assert result["tau_data"] == can_tau + 3
        assert result["eq4_per_frame"] is not None
        assert result["frames_per_hour"] > 0
        assert record["constants"]["key_version"] == 1


class TestSweepPackageApi:
    def test_all_exports_resolve(self):
        for name in repro.sweep.__all__:
            assert hasattr(repro.sweep, name), name

    def test_top_level_exports(self):
        assert repro.SweepSpec is SweepSpec
        assert repro.ResultStore is ResultStore
        assert callable(repro.run_sweep)


class TestSweepCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_plan_run_status_export(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec().to_json())
        store = str(tmp_path / "store")

        assert self.run_cli("sweep", "plan", str(spec_path), "--store", store) == 0
        assert "4 pending" in capsys.readouterr().out

        # A budgeted run reports the incomplete grid via exit code 3.
        assert (
            self.run_cli(
                "sweep",
                "run",
                str(spec_path),
                "--store",
                store,
                "--cell-budget",
                "1",
            )
            == 3
        )
        capsys.readouterr()
        assert self.run_cli("sweep", "run", str(spec_path), "--store", store) == 0
        out = capsys.readouterr().out
        assert "3 evaluated" in out and "1 skipped" in out

        assert self.run_cli("sweep", "status", str(spec_path), "--store", store) == 0
        assert "0 of 4 cells pending" in capsys.readouterr().out

        out_path = tmp_path / "surface.csv"
        assert (
            self.run_cli(
                "sweep",
                "export",
                str(spec_path),
                "--store",
                store,
                "--out",
                str(out_path),
            )
            == 0
        )
        capsys.readouterr()
        header = out_path.read_text().splitlines()[0]
        assert "p_imo" in header and "protocol" in header
        assert len(out_path.read_text().splitlines()) == 5


#: A tiny measured-under-load (traffic-surface) grid.
TRAFFIC_SPEC = dict(
    name="test-traffic-grid",
    surface="traffic",
    protocols=("can", "majorcan"),
    m_values=(5,),
    node_counts=(3,),
    loads=(0.6,),
    sources=("periodic",),
    traffic_windows=1,
    traffic_window_bits=600,
    traffic_seed=7,
)


def traffic_spec(**overrides):
    params = dict(TRAFFIC_SPEC)
    params.update(overrides)
    return SweepSpec(**params)


class TestTrafficSurface:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(surface="measured")
        with pytest.raises(ConfigurationError):
            traffic_spec(loads=(5.0,))
        with pytest.raises(ConfigurationError):
            traffic_spec(sources=("bursty",))
        with pytest.raises(ConfigurationError):
            traffic_spec(
                cells=(
                    SweepCell(
                        protocol="can",
                        m=5,
                        ber=1e-5,
                        bit_rate=500_000.0,
                        bus_length_m=30.0,
                        payload=1,
                        n_nodes=3,
                    ),
                )
            )

    def test_round_trips_through_json(self):
        spec = traffic_spec(loads=(0.6, 1.2), sources=("periodic", "poisson"))
        assert SweepSpec.from_json(spec.to_json()) == spec
        # protocols x m_values x node_counts x loads x sources
        assert spec.cell_count() == 2 * 1 * 1 * 2 * 2

    def test_expansion_order_and_keys_disjoint_from_analytic(self):
        from repro.sweep import (
            TrafficCell,
            expand_traffic_cells,
            traffic_cell_constants,
        )

        spec = traffic_spec(loads=(0.6, 1.2))
        cells = expand_traffic_cells(spec)
        assert cells[0] == TrafficCell("can", 5, 3, 0.6, "periodic")
        assert cells[1] == TrafficCell("can", 5, 3, 1.2, "periodic")
        constants = traffic_cell_constants(
            cells[0], windows=1, window_bits=600, seed=7
        )
        assert constants["surface"] == "traffic"
        key = cell_key(cells[0], constants)
        analytic = small_spec()
        analytic_keys = {
            cell_key(
                cell,
                cell_constants(
                    cell,
                    window=analytic.window,
                    max_flips=analytic.max_flips,
                    load=analytic.load,
                ),
            )
            for cell in expand_cells(analytic)
        }
        assert key not in analytic_keys

    def test_run_resume_and_rows(self, tmp_path):
        spec = traffic_spec()
        store = ResultStore(str(tmp_path / "s"))
        report = run_sweep(spec, store, jobs=2)
        assert report.complete and report.evaluated == 2
        assert report.backend_stats.get("batch", 0) == 2
        # Re-running evaluates nothing and keeps the digest.
        again = run_sweep(spec, store, jobs=1)
        assert again.evaluated == 0 and again.skipped == 2
        assert again.digest == report.digest
        rows = surface_rows(store)
        assert len(rows) == 2
        for row in rows:
            assert row["surface"] == "traffic"
            assert row["frames_submitted"] > 0
            assert row["delivered"] == row["frames_submitted"]
            assert row["atomic"] is True
            assert 0.0 < row["bus_load"] <= 1.0

    def test_noisy_fresh_runs_across_jobs_are_byte_identical(self, tmp_path):
        # Each store is filled from scratch: serially, then on the pool.
        spec = traffic_spec(
            protocols=("majorcan",),
            sources=("periodic", "poisson"),
            noise_bers=(0.01, 0.0),
        )
        serial = ResultStore(str(tmp_path / "serial"))
        pooled = ResultStore(str(tmp_path / "pooled"))
        first = run_sweep(spec, serial, jobs=1)
        second = run_sweep(spec, pooled, jobs=2)
        assert first.evaluated == second.evaluated == spec.cell_count() == 4
        assert first.backend_stats == second.backend_stats
        assert first.digest == second.digest
        assert serial.compacted_bytes() == pooled.compacted_bytes()
        assert serial.compacted_bytes()  # non-empty

    def test_engine_and_batch_cells_agree(self, tmp_path):
        spec = traffic_spec(protocols=("majorcan",))
        batch_store = ResultStore(str(tmp_path / "b"))
        engine_store = ResultStore(str(tmp_path / "e"))
        run_sweep(spec, batch_store, jobs=1, backend="batch")
        run_sweep(spec, engine_store, jobs=1, backend="engine")
        (b,) = batch_store.records().values()
        (e,) = engine_store.records().values()
        assert b["key"] != e["key"]
        b_result = {k: v for k, v in b["result"].items() if k != "backend_stats"}
        e_result = {k: v for k, v in e["result"].items() if k != "backend_stats"}
        assert b_result == e_result
        assert b["result"]["backend_stats"] == {"batch": 1}
