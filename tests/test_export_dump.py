"""Tests for the CSV/JSON exporters and the candump formatter."""

import enum
import json
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.controller import CanController
from repro.can.events import Delivery
from repro.can.frame import data_frame, remote_frame
from repro.errors import ReproError
from repro.metrics.dump import (
    dump_node,
    format_delivery,
    format_frame,
    merged_bus_log,
)
from repro.metrics.export import json_line, rows_to_csv, rows_to_json, write_rows
from repro.simulation.engine import SimulationEngine


class TestJsonExport:
    def test_roundtrip(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        assert json.loads(rows_to_json(rows)) == rows

    def test_dataclass_rows(self):
        from repro.analysis.sweeps import imo_rate_sweep

        rows = imo_rate_sweep(ber_values=(1e-4,))
        decoded = json.loads(rows_to_json(rows))
        assert decoded[0]["n_nodes"] == 32

    def test_infinity_serialised_as_string(self):
        decoded = json.loads(rows_to_json([{"mttf": float("inf")}]))
        assert decoded[0]["mttf"] == "inf"

    def test_bytes_serialised_as_hex(self):
        decoded = json.loads(rows_to_json([{"payload": b"\xbe\xef"}]))
        assert decoded[0]["payload"] == "beef"

    def test_rejects_unknown_row_types(self):
        with pytest.raises(ReproError):
            rows_to_json(["not-a-dict"])


def _oracle_normalise(value: Any) -> Any:
    """The normalising serialiser ``json_line`` was built on, kept
    verbatim as the oracle for its plain-value fast path."""
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return str(value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_oracle_normalise(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _oracle_normalise(val) for key, val in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {key: _oracle_normalise(val) for key, val in asdict(value).items()}
    return value


def _oracle_line(record: Any) -> str:
    return json.dumps(_oracle_normalise(record), sort_keys=True, separators=(",", ":"))


class _Colour(str, enum.Enum):
    RED = "red"  # str() is "_Colour.RED"; JSON writes the value "red"


class _Level(enum.IntEnum):
    HIGH = 3


@dataclass(frozen=True)
class _Point:
    x: Any
    y: Any


_floats = st.one_of(
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(),
    st.text(alphabet="\u00e9\u00df\u4e2d\U0001f600\"\\\n\x00", max_size=6),
    st.binary(max_size=6),
    st.sampled_from([_Colour.RED, _Level.HIGH]),
)
_keys = st.one_of(
    st.text(max_size=6),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    _floats,
    st.just(_Colour.RED),
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.builds(_Point, inner, inner),
    ),
    max_leaves=16,
)


class TestJsonLine:
    """``json_line``'s plain fast path writes the normalised bytes."""

    @settings(max_examples=400, deadline=None)
    @given(_json_values)
    def test_equals_the_normalising_oracle(self, value):
        assert json_line(value) == _oracle_line(value)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [1, 2.5, None, True, "\u00e9"], "b": {"c": (1, 2)}},
            {"p": float("inf"), "q": [float("-inf"), float("nan")]},
            {1: "int", True: "bool", None: "none", 2.5: "float"},
            {"x": b"\xbe\xef", "pt": _Point(1, {"z": b"\x00"})},
            {_Colour.RED: _Level.HIGH},
        ],
    )
    def test_every_fallback_shape(self, value):
        assert json_line(value) == _oracle_line(value)


class TestCsvExport:
    def test_header_and_rows(self):
        text = rows_to_csv([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"

    def test_column_union_in_first_seen_order(self):
        text = rows_to_csv([{"a": 1}, {"b": 2}])
        assert text.strip().splitlines()[0] == "a,b"

    def test_explicit_columns(self):
        text = rows_to_csv([{"a": 1, "b": 2}], columns=["b"])
        assert text.strip().splitlines() == ["b", "2"]

    def test_nested_values_json_encoded(self):
        text = rows_to_csv([{"a": {"x": 1}}])
        assert '""x"": 1' in text or '{"x": 1}' in text


class TestWriteRows:
    def test_writes_json_and_csv(self, tmp_path):
        rows = [{"a": 1}]
        json_path = str(tmp_path / "out.json")
        csv_path = str(tmp_path / "out.csv")
        write_rows(json_path, rows)
        write_rows(csv_path, rows)
        assert json.load(open(json_path)) == rows
        assert open(csv_path).read().startswith("a")

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ReproError):
            write_rows(str(tmp_path / "out.txt"), [{"a": 1}])


class TestCandump:
    def test_standard_frame(self):
        text = format_frame(data_frame(0x123, b"\xde\xad"))
        assert "123" in text
        assert "[2]" in text
        assert "DE AD" in text

    def test_extended_frame_eight_hex_digits(self):
        text = format_frame(data_frame(0x1ABCDE42, b"", extended=True))
        assert "1ABCDE42" in text

    def test_remote_frame(self):
        assert "remote request" in format_frame(remote_frame(0x10, dlc=3))

    def test_empty_payload_marker(self):
        assert "--" in format_frame(data_frame(0x10, b""))

    def test_delivery_timestamp(self):
        delivery = Delivery(frame=data_frame(0x1, b"\x01"), time=1234, node="rx")
        assert "(00001234)" in format_delivery(delivery)

    def test_merged_bus_log_dedupes_and_orders(self):
        tx, rx1, rx2 = (CanController(n) for n in ("tx", "rx1", "rx2"))
        engine = SimulationEngine([tx, rx1, rx2])
        tx.submit(data_frame(0x100, b"\x01"))
        tx.submit(data_frame(0x100, b"\x02"))
        engine.run_until_idle(10000)
        log = merged_bus_log([rx1, rx2])
        lines = log.splitlines()
        assert len(lines) == 2  # one line per frame, not per receiver
        assert "01" in lines[0] and "02" in lines[1]

    def test_dump_node(self):
        tx, rx = CanController("tx"), CanController("rx")
        engine = SimulationEngine([tx, rx])
        tx.submit(data_frame(0x42, b"\x07"))
        engine.run_until_idle(5000)
        assert "042" in dump_node(rx)
