"""Tests for the resumable design-space sweep service (repro.sweep).

Covers the contracts the sweep engine is built on: spec validation,
content-addressed cell keys stable across process restarts, store
compaction that is a pure function of the stored cell set, skip-on-rerun
incrementality, and interrupt/resume determinism across backends and
worker counts.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
import repro.sweep
from repro.errors import ConfigurationError, ReproError
from repro.metrics.export import json_line, read_jsonl
from repro.sweep import (
    SURFACES,
    ResultStore,
    SweepCell,
    SweepSpec,
    cell_constants,
    cell_key,
    cell_record,
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


#: The fields of one explicit analytic cell.
_CELL = dict(
    protocol="can", m=5, ber=1e-5, bit_rate=1e6, bus_length_m=40.0, payload=1, n_nodes=3
)


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

    @pytest.mark.parametrize(
        "data",
        [
            {"cells": [dict(_CELL, colour="red")]},
            {"cells": [{"protocol": "can"}]},
            {"cells": [5]},
            {"bers": 5},
        ],
        ids=["unknown-cell-field", "missing-cell-fields", "cell-not-object", "scalar-axis"],
    )
    def test_malformed_spec_files_raise_configuration_error(self, data):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict(data)
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json(json.dumps(data))

    def test_every_axis_is_checked_whatever_the_surface(self):
        # An analytic spec's traffic axes and an explicit-cell spec's
        # ignored axes obey the same rule as the axes they expand.
        with pytest.raises(ConfigurationError):
            SweepSpec(loads=(5.0,))
        with pytest.raises(ConfigurationError):
            SweepSpec(noise_bers=())
        with pytest.raises(ConfigurationError):
            SweepSpec(cells=(SweepCell(**_CELL),), m_values=(1,))
        explicit = SweepSpec(cells=(SweepCell(**_CELL),), bers=(), loads=())
        assert explicit.cell_count() == 1

    def test_cells_declare_their_fields_in_axis_order(self):
        # expand_cells builds every cell positionally from the axes.
        for surface in SURFACES.values():
            assert [name for _, name in surface.axes] == [
                field.name for field in dataclasses.fields(surface.cell)
            ]


class TestCellKeys:
    def test_key_is_stable_across_process_restarts(self):
        spec = small_spec()
        cell = expand_cells(spec)[0]
        here = cell_key(cell, cell_constants(cell, spec))
        script = (
            "from repro.sweep import SweepSpec, cell_constants, cell_key, "
            "expand_cells\n"
            "spec = SweepSpec.from_json(%r)\n"
            "cell = expand_cells(spec)[0]\n"
            "print(cell_key(cell, cell_constants(cell, spec)))\n"
            % spec.to_json()
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
        batch = cell_constants(cell, SweepSpec())
        engine = cell_constants(cell, SweepSpec(), backend="engine")
        assert cell_key(cell, batch) != cell_key(cell, engine)

    def test_key_depends_on_spec_constants(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        base = cell_constants(cell, SweepSpec())
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, SweepSpec(window=1))
        )
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, SweepSpec(max_flips=1))
        )
        assert cell_key(cell, base) != cell_key(
            cell, cell_constants(cell, SweepSpec(load=0.5))
        )

    def test_chunk_partition_is_part_of_identity(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        constants = cell_constants(cell, SweepSpec())
        assert "chunk_cells" in constants
        bumped = dict(constants, chunk_cells=constants["chunk_cells"] + 1)
        assert cell_key(cell, constants) != cell_key(cell, bumped)

    def test_unknown_backend_rejected(self):
        cell = SweepCell("can", 5, 1e-5, 1e6, 40.0, 1, 3)
        with pytest.raises(ConfigurationError):
            cell_constants(cell, SweepSpec(), backend="gpu")


#: Spec fields that choose which cells exist rather than what a cell
#: measures: the surface, and the explicit (analytic) cell list.
GRID_SELECTORS = ("surface", "cells")

#: Spec fields no cell key holds, and why.
UNKEYED_FIELDS = {
    "name": "a label: two specs that share cells share their stored results",
}

#: Valid replacement values for every spec field.  Each candidate
#: differs, as a set, from that field of ``small_spec()`` or of
#: ``traffic_spec()``.
PERTURBATIONS = {
    "name": ("renamed",),
    "protocols": (("minorcan",), ("can",)),
    "m_values": ((3,), (4, 5)),
    "bers": ((1e-3,), (1e-6, 1e-5)),
    "bit_rates": ((250_000.0,), (1_000_000.0, 500_000.0)),
    "bus_lengths_m": ((10.0,), (30.0, 40.0)),
    "payloads": ((0,), (1, 8)),
    "node_counts": ((2,), (3, 4)),
    "cells": ((SweepCell("minorcan", 3, 1e-3, 250_000.0, 10.0, 0, 2),),),
    "window": (2, 3),
    "max_flips": (1, 2),
    "load": (0.5, 1.0),
    "surface": ("analytic", "traffic"),
    "loads": ((1.2,), (0.6, 0.9)),
    "sources": (("poisson",), ("periodic", "poisson")),
    "noise_bers": ((0.01,), (0.0, 0.001)),
    "traffic_windows": (1, 3),
    "traffic_window_bits": (600, 1200),
    "traffic_seed": (1, 7, 9),
}


def _spec_keys(spec):
    with tempfile.TemporaryDirectory() as root:
        pending, _ = pending_cells(spec, ResultStore(root))
    return {key for _, _, key in pending}


def _as_set(value):
    return frozenset(value) if isinstance(value, tuple) else value


class TestSpecFieldClassification:
    """Every spec field reaches the cell keys exactly when it should."""

    def test_every_spec_field_is_classified(self):
        keyed = {
            spec_field
            for surface in SURFACES.values()
            for spec_field, _ in surface.axes + surface.constants
        }
        for spec_field in dataclasses.fields(SweepSpec):
            groups = [
                spec_field.name in keyed,
                spec_field.name in GRID_SELECTORS,
                spec_field.name in UNKEYED_FIELDS,
            ]
            assert sum(groups) == 1, spec_field.name
            assert spec_field.name in PERTURBATIONS, spec_field.name

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.sampled_from(["analytic", "traffic"]),
        change=st.sampled_from(sorted(PERTURBATIONS)).flatmap(
            lambda name: st.tuples(
                st.just(name), st.sampled_from(PERTURBATIONS[name])
            )
        ),
    )
    def test_keys_change_exactly_with_the_surface_fields(self, base, change):
        spec = small_spec() if base == "analytic" else traffic_spec()
        name, value = change
        assume(_as_set(value) != _as_set(getattr(spec, name)))
        try:
            perturbed = dataclasses.replace(spec, **{name: value})
        except ConfigurationError:
            assume(False)  # e.g. explicit cells on a traffic spec
        surface = SURFACES[spec.surface]
        owned = {axis for axis, _ in surface.axes + surface.constants}
        owned.update(GRID_SELECTORS)
        assert (_spec_keys(perturbed) != _spec_keys(spec)) == (name in owned)


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


#: A design grid whose records hold every value shape the store sees:
#: tiny and zero probabilities, an infeasible bit rate (``None`` bus
#: fields), two-node cells (``None`` closed forms), nested dicts.
DESIGN_SPEC = dict(
    name="test-design",
    protocols=("can", "minorcan", "majorcan"),
    m_values=(3, 5),
    bers=(1e-7, 1e-2),
    bit_rates=(250_000.0, 3_000_000.0),
    bus_lengths_m=(10.0,),
    payloads=(0, 8),
    node_counts=(2, 3),
    window=1,
    max_flips=2,
)

_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([5e-324, 1e-300, 1.7976931348623157e308, -0.0, 1e16]),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, st.text(),
    st.sampled_from([float("inf"), float("-inf"), "inf", "-inf"]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestVerbatimCompaction:
    """Compaction copies ``json_line`` output verbatim, never re-serialising."""

    @settings(max_examples=100, deadline=None)
    @given(
        key=st.text(alphabet="0123456789abcdef", min_size=1, max_size=64),
        cell=st.dictionaries(st.text(max_size=8), _scalars, max_size=6),
        constants=st.dictionaries(st.text(max_size=8), _values, max_size=6),
        result=_values,
    )
    def test_json_line_is_a_fixed_point(self, key, cell, constants, result):
        record = {"key": key, "cell": cell, "constants": constants, "result": result}
        line = json_line(record)
        assert json_line(json.loads(line)) == line

    def test_design_store_bytes_equal_the_reserialising_path(self, tmp_path):
        spec = SweepSpec(**DESIGN_SPEC)
        store = ResultStore(str(tmp_path / "s"))
        run_sweep(spec, store, jobs=1, cell_budget=spec.cell_count() // 2)
        pending, _ = pending_cells(spec, store)
        records = [cell_record(*planned) for planned in pending]
        # Log: the rest of the grid, out of order, plus duplicates of
        # keys both in the compacted store and earlier in the log.
        store.append(records[::-1] + records[:3])
        store.append(list(store.records().values())[:5])
        merged = store.records()
        old_path = "".join(json_line(merged[key]) + "\n" for key in sorted(merged))
        status = store.compact()
        assert status.records == spec.cell_count()
        assert store.compacted_bytes() == old_path.encode("utf-8")
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        assert store.compacted_bytes() == fresh.compacted_bytes()


class TestTornLog:
    """A run killed mid-append leaves a torn final log line; resume copes."""

    def _killed_run(self, root):
        """A store with one compacted cell and a log of two more; returns
        the log bytes and the length of its last line (newline included)."""
        spec = small_spec()
        store = ResultStore(root)
        run_sweep(spec, store, jobs=1, cell_budget=1)
        pending, _ = pending_cells(spec, store)
        store.append([cell_record(*planned) for planned in pending[:2]])
        with open(store.log_path, "rb") as handle:
            log = handle.read()
        last = len(log) - log[:-1].rfind(b"\n") - 1
        return spec, store, log, last

    def test_resume_after_a_torn_line_is_byte_identical(self, tmp_path):
        spec, killed, log, last = self._killed_run(str(tmp_path / "killed"))
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        for cut in (1, 2, 17, last // 2, last - 1):
            root = str(tmp_path / ("cut%d" % cut))
            shutil.copytree(killed.root, root)
            store = ResultStore(root)
            with open(store.log_path, "wb") as handle:
                handle.write(log[:-cut])
            # Cutting only the newline leaves a complete record.
            stored = spec.cell_count() - 1 - (cut > 1)
            assert len(store.keys()) == stored
            assert store.status().log_records == stored - 1
            report = run_sweep(spec, store, jobs=1)
            assert report.evaluated == spec.cell_count() - stored
            assert store.compacted_bytes() == fresh.compacted_bytes()

    def test_append_cuts_the_torn_line_off(self, tmp_path):
        spec, store, log, last = self._killed_run(str(tmp_path / "s"))
        with open(store.log_path, "wb") as handle:
            handle.write(log[:-5])
        pending, _ = pending_cells(spec, store)
        store.append([cell_record(*pending[0])])
        with open(store.log_path, "rb") as handle:
            mended = handle.read()
        assert mended.startswith(log[: len(log) - last])
        assert len(read_jsonl(store.log_path)) == 2

    def test_other_invalid_lines_still_raise(self, tmp_path):
        spec, store, log, last = self._killed_run(str(tmp_path / "s"))
        head = log[: len(log) - last]
        for broken in (head + b"{not json\n", b"{not json\n" + log):
            with open(store.log_path, "wb") as handle:
                handle.write(broken)
            with pytest.raises(ReproError, match="invalid JSONL"):
                store.keys()
            with pytest.raises(ReproError, match="invalid JSONL"):
                run_sweep(spec, store, jobs=1)


def _snapshot(root):
    """Every file of a store directory, by name, with its bytes."""
    snapshot = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            snapshot[name] = handle.read()
    return snapshot


def _rewrite_first_line(path, edit):
    """Replace the first line of ``path`` with ``edit(line)``."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[0] = edit(lines[0])
    with open(path, "w") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _value_edit(line):
    """The same record with one result value changed: it still parses."""
    record = json.loads(line)
    record["result"]["frames_per_hour"] += 1.0
    return json_line(record)


class TestStoreIntegrity:
    """``index.json``'s digest vouches for ``store.jsonl`` on every read."""

    def _complete(self, root):
        spec = small_spec()
        store = ResultStore(root)
        report = run_sweep(spec, store, jobs=1)
        return spec, store, report.digest

    def test_a_value_edit_that_parses_raises_naming_the_digest(self, tmp_path):
        spec, store, digest = self._complete(str(tmp_path / "s"))
        _rewrite_first_line(store.compacted_path, _value_edit)
        before = _snapshot(store.root)
        for read in (store.keys, store.records, store.status, store.compact):
            with pytest.raises(ReproError, match="digest %s" % digest):
                read()
        with pytest.raises(ReproError, match="digest %s" % digest):
            run_sweep(spec, store, jobs=1)
        assert _snapshot(store.root) == before

    def test_a_syntax_edit_raises(self, tmp_path):
        spec, store, digest = self._complete(str(tmp_path / "s"))
        _rewrite_first_line(store.compacted_path, lambda line: line[:-1])
        with pytest.raises(ReproError, match="digest %s" % digest):
            store.keys()
        with pytest.raises(ReproError, match="digest %s" % digest):
            run_sweep(spec, store, jobs=1)

    def test_vouched_reads_equal_a_full_parse(self, tmp_path):
        spec = SweepSpec(**DESIGN_SPEC)
        store = ResultStore(str(tmp_path / "s"))
        run_sweep(spec, store, jobs=1)
        parsed = {record["key"]: record for record in read_jsonl(store.compacted_path)}
        assert len(parsed) == spec.cell_count()
        assert store.keys() == set(parsed)
        assert store.records() == parsed

    def test_a_missing_index_falls_back_to_a_full_parse(self, tmp_path):
        spec, store, _ = self._complete(str(tmp_path / "s"))
        complete = _snapshot(store.root)
        keys = store.keys()
        os.remove(store.index_path)
        assert store.keys() == keys
        report = run_sweep(spec, store, jobs=1)
        assert report.evaluated == 0
        assert _snapshot(store.root) == complete
        # Without an index nothing vouches for the lines: each is parsed.
        os.remove(store.index_path)
        _rewrite_first_line(store.compacted_path, lambda line: line[:-1])
        with pytest.raises(ReproError, match="invalid JSONL"):
            store.keys()

    def test_crash_between_store_and_index_resumes_byte_identically(self, tmp_path):
        spec = small_spec()
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        store = ResultStore(str(tmp_path / "crashed"))
        run_sweep(spec, store, jobs=1, cell_budget=1)
        with open(store.index_path, "rb") as handle:
            stale_index = handle.read()
        pending, _ = pending_cells(spec, store)
        store.append([cell_record(*pending[0])])
        with open(store.log_path, "rb") as handle:
            log = handle.read()
        # Compaction replaced store.jsonl, then the run died before it
        # wrote the index and removed the log.
        store.compact()
        with open(store.index_path, "wb") as handle:
            handle.write(stale_index)
        with open(store.log_path, "wb") as handle:
            handle.write(log)
        assert len(store.keys()) == 2
        # The stale index vouches for nothing: every line is parsed.
        broken = ResultStore(str(tmp_path / "broken"))
        shutil.copytree(store.root, broken.root, dirs_exist_ok=True)
        _rewrite_first_line(broken.compacted_path, lambda line: line[:-1])
        with pytest.raises(ReproError, match="invalid JSONL"):
            broken.keys()
        report = run_sweep(spec, store, jobs=1)
        assert report.evaluated == spec.cell_count() - 2
        assert _snapshot(store.root) == _snapshot(fresh.root)


class TestWriterLock:
    """``run_sweep`` holds ``<root>/lock``; a live holder keeps others out."""

    def _process(self, seconds):
        return subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(%r)" % seconds]
        )

    def _hold(self, store, pid):
        with open(store.lock_path, "w") as handle:
            handle.write("%d\n" % pid)

    def test_a_live_holder_blocks_a_second_run(self, tmp_path):
        spec = small_spec()
        store = ResultStore(str(tmp_path / "s"))
        run_sweep(spec, store, jobs=1, cell_budget=2)
        holder = self._process(60)
        try:
            self._hold(store, holder.pid)
            before = _snapshot(store.root)
            with pytest.raises(ReproError, match="locked by running process %d" % holder.pid):
                run_sweep(spec, store, jobs=1)
            assert _snapshot(store.root) == before
            # Readers take no lock.
            assert store.status().records == 2
            assert len(surface_rows(store)) == 2
            assert len(pending_cells(spec, store)[0]) == spec.cell_count() - 2
        finally:
            holder.kill()
            holder.wait()
        report = run_sweep(spec, store, jobs=1)
        assert report.evaluated == spec.cell_count() - 2
        assert not os.path.exists(store.lock_path)

    def test_a_stale_lock_is_taken_over(self, tmp_path):
        spec = small_spec()
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        assert not os.path.exists(fresh.lock_path)
        store = ResultStore(str(tmp_path / "s"))
        dead = self._process(0)
        dead.wait()
        self._hold(store, dead.pid)
        report = run_sweep(spec, store, jobs=1)
        assert report.evaluated == spec.cell_count()
        assert _snapshot(store.root) == _snapshot(fresh.root)


class TestPlannedRecords:
    def test_record_carries_the_planned_key(self, tmp_path):
        spec = small_spec()
        pending, _ = pending_cells(spec, ResultStore(str(tmp_path / "s")))
        for cell, constants, key in pending:
            record = cell_record(cell, constants, key)
            assert record["key"] == key == cell_key(
                cell, cell_constants(cell, spec)
            )
            assert record["cell"] == dataclasses.asdict(cell)
            assert record["constants"] is constants


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

    def test_alternating_partitions_share_chunks(self, tmp_path, monkeypatch):
        # The innermost axis alternates node counts, and so partitions:
        # the cells are grouped by partition, not cut at every change.
        import repro.sweep.run as sweep_run

        spec = small_spec(node_counts=(3, 6))
        pending, _ = pending_cells(spec, ResultStore(str(tmp_path / "plan")))
        sizes = [int(constants["chunk_cells"]) for _, constants, _ in pending]
        assert len(set(sizes)) == 2
        assert all(a != b for a, b in zip(sizes, sizes[1:]))  # alternating
        tasks = []
        real_imap = sweep_run.imap_tasks

        def recorded(chunks, jobs):
            chunks = list(chunks)
            tasks.extend(chunks)
            return real_imap(chunks, jobs=jobs)

        monkeypatch.setattr(sweep_run, "imap_tasks", recorded)
        grouped = ResultStore(str(tmp_path / "grouped"))
        report = run_sweep(spec, grouped, jobs=1)
        assert report.evaluated == len(pending) == 8
        assert len(tasks) == 2
        for task in tasks:
            assert len({planned[1]["chunk_cells"] for planned in task.args[0]}) == 1
        assert [p for task in tasks for p in task.args[0]] == sorted(
            pending, key=lambda planned: planned[1]["chunk_cells"] != sizes[0]
        )
        # One cell per task: the same records, the same bytes.
        monkeypatch.setattr(
            sweep_run,
            "_chunk_tasks",
            lambda cells: [
                sweep_run.partial(sweep_run._evaluate_chunk, (planned,))
                for planned in cells
            ],
        )
        ungrouped = ResultStore(str(tmp_path / "ungrouped"))
        run_sweep(spec, ungrouped, jobs=1)
        assert len(tasks) == 2 + 8
        assert ungrouped.compacted_bytes() == grouped.compacted_bytes()
        assert grouped.compacted_bytes()

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

    @settings(max_examples=100, deadline=None)
    @given(
        protocol=st.sampled_from(["can", "minorcan", "majorcan"]),
        m=st.integers(3, 7),
        n_nodes=st.integers(2, 4),
        window=st.integers(1, 2),
        max_flips=st.integers(1, 2),
        payload=st.integers(0, 8),
        ber=st.sampled_from([1e-6, 1e-4, 1e-2]),
    )
    def test_generated_engine_and_batch_records_agree(
        self, protocol, m, n_nodes, window, max_flips, payload, ber
    ):
        spec = SweepSpec(
            protocols=(protocol,),
            m_values=(m,),
            bers=(ber,),
            payloads=(payload,),
            node_counts=(n_nodes,),
            window=window,
            max_flips=max_flips,
        )
        (cell,) = expand_cells(spec)
        records = []
        for backend in ("batch", "engine"):
            constants = cell_constants(cell, spec, backend)
            record = cell_record(cell, constants, cell_key(cell, constants))
            # Only the backend's identity and provenance may differ.
            del record["key"], record["result"]["backend_stats"]
            del record["constants"]["backend"], record["constants"]["chunk_cells"]
            records.append(record)
        assert records[0] == records[1]

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
        from repro.sweep import TrafficCell

        spec = traffic_spec(loads=(0.6, 1.2))
        cells = expand_cells(spec)
        assert cells[0] == TrafficCell("can", 5, 3, 0.6, "periodic")
        assert cells[1] == TrafficCell("can", 5, 3, 1.2, "periodic")
        constants = cell_constants(cells[0], spec)
        assert constants["surface"] == "traffic"
        key = cell_key(cells[0], constants)
        analytic = small_spec()
        analytic_keys = {
            cell_key(cell, cell_constants(cell, analytic))
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

    @pytest.mark.xfail(
        strict=True,
        reason="evaluate_traffic_cell never derives a Poisson rate from the "
        "cell's load, so every Poisson cell runs at rate 0 and submits no "
        "frame. The fix moves the sweep store bytes and the noisy_sweep "
        "benchmark fingerprint, so it waits for the benchmark "
        "re-fingerprint (ROADMAP direction 3, stage B).",
    )
    def test_poisson_cell_at_load_submits_frames(self):
        from repro.sweep import TrafficCell
        from repro.sweep.cell import evaluate_traffic_cell

        cell = TrafficCell("can", 5, 3, 0.9, "poisson")
        result = evaluate_traffic_cell(cell, windows=1, window_bits=2000, seed=1)
        assert result["frames_submitted"] > 0

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


#: A traffic grid of 16 noisy cells, two per chunk: long enough to be
#: killed after its first append, short enough to run three times.
KILLED_SPEC = dict(
    TRAFFIC_SPEC,
    node_counts=(3, 4),
    loads=(0.6, 0.9),
    sources=("periodic", "poisson"),
    noise_bers=(0.01,),
    traffic_windows=2,
    traffic_window_bits=1200,
)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs POSIX signals")
class TestSigkillResume:
    """A ``sweep run`` process killed with SIGKILL resumes byte-identically."""

    def _killed_run(self, spec_path, root):
        """Run the CLI on ``root`` and SIGKILL it once its log holds a
        complete record; False if the run finished first."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        argv = [sys.executable, "-m", "repro.cli", "sweep", "run", spec_path,
                "--store", root, "--jobs", "1"]
        log = os.path.join(root, "results.jsonl")
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            while proc.poll() is None:
                if os.path.exists(log):
                    with open(log, "rb") as handle:
                        if b"\n" in handle.read():
                            break
                time.sleep(0.002)
        finally:
            proc.send_signal(signal.SIGKILL)  # a no-op once it has exited
            proc.wait()
        return proc.returncode == -signal.SIGKILL

    def test_resume_after_sigkill_is_byte_identical(self, tmp_path):
        spec = SweepSpec(**KILLED_SPEC)
        spec_path = str(tmp_path / "spec.json")
        with open(spec_path, "w") as handle:
            handle.write(spec.to_json())
        for attempt in range(3):
            root = str(tmp_path / ("killed%d" % attempt))
            if self._killed_run(spec_path, root):
                break
        else:
            pytest.fail("every run finished before it could be killed")
        killed = ResultStore(root)
        stored = len(killed.keys())
        assert 0 < stored < spec.cell_count()
        report = run_sweep(spec, killed, jobs=1)
        assert report.evaluated == spec.cell_count() - stored
        fresh = ResultStore(str(tmp_path / "fresh"))
        run_sweep(spec, fresh, jobs=1)
        assert killed.compacted_bytes() == fresh.compacted_bytes()
        assert killed.compacted_bytes()  # non-empty
