"""Smoke tests for every CLI sub-command."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_protocol_choices_are_the_protocol_geometries(self):
        from repro.can.geometry import PROTOCOL_NAMES
        from repro.cli import PROTOCOLS

        assert PROTOCOLS == PROTOCOL_NAMES


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "IMOnew/hour" in out
        assert "8.8" in out

    def test_scenarios_single_protocol(self, capsys):
        assert main(["scenarios", "--protocol", "can"]) == 0
        out = capsys.readouterr().out
        assert "fig1b/CAN" in out
        assert "fig3a/CAN" in out

    def test_scenarios_majorcan_includes_fig5(self, capsys):
        assert main(["scenarios", "--protocol", "majorcan"]) == 0
        assert "fig5/MajorCAN" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "CRC error" in out
        assert "extended error flag" in out

    def test_fig4_columns_line_up(self, capsys):
        """Every row's flag, sampling and verdict columns start at the
        same offsets, the CRC row and the two-digit EOF bits included."""
        assert main(["fig4", "--m", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        columns = re.compile(
            r"(?P<flag>\S+ error flag) +"
            r"(?P<sampling>sampling is performed|no sampling) +(?P<verdict>frame is)"
        )
        starts = {
            tuple(columns.search(row).start(name) for name in ("flag", "sampling", "verdict"))
            for row in rows
        }
        assert len(rows) == 11
        assert len(starts) == 1

    def test_overhead(self, capsys):
        assert main(["overhead", "--m", "5"]) == 0
        out = capsys.readouterr().out
        assert "best 3 bits" in out
        assert "worst 11 bits" in out

    def test_overhead_large_m_formula_only(self, capsys):
        assert main(["overhead", "--m", "8"]) == 0
        assert "measured: (worst-case" in capsys.readouterr().out

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--nodes", "3", "--window", "2"]) == 0
        out = capsys.readouterr().out
        assert "P(IMO) enumerated" in out

    def test_montecarlo(self, capsys):
        assert main(["montecarlo", "--trials", "50", "--seed", "3"]) == 0
        assert "P(IMO)" in capsys.readouterr().out

    def test_geometry(self, capsys):
        assert main(["geometry", "--m", "5"]) == 0
        out = capsys.readouterr().out
        assert "window_start" in out
        assert "invariants:" in out

    def test_campaign(self, capsys):
        assert main(["campaign", "--rounds", "4", "--attack", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "majorcan" in out

    def test_reliability(self, capsys):
        assert main(["reliability", "--ber", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "MTTF" in out
        assert "Residual of MajorCAN_m" in out
        assert len([line for line in out.splitlines() if line.startswith("1e-0")]) == 9
        assert (
            "smallest m meeting 1e-9/h (upper bound): "
            "ber=1e-04 -> m>=6, ber=1e-05 -> m>=4, ber=1e-06 -> m>=3"
        ) in out

    def test_ablation(self, capsys):
        assert main(["ablation", "--m-values", "4", "5", "--flips", "1"]) == 0
        out = capsys.readouterr().out
        assert "F1 closed" in out
        assert "CAN6'" in out
        sweep = out.split("IMO rates vs network size")[1].splitlines()[3:]
        assert [line.split()[0] for line in sweep] == ["8", "16", "32", "64"]

    def test_verify_majorcan_holds(self, capsys):
        assert main(["verify", "--protocol", "majorcan", "--flips", "1"]) == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_verify_can_finds_counterexamples(self, capsys):
        assert main(["verify", "--protocol", "can", "--flips", "2"]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_verify_header_universe(self, capsys):
        assert main(["verify", "--protocol", "majorcan", "--flips", "1",
                     "--include-header"]) == 1
        assert "DLC" in capsys.readouterr().out

    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "MajorCAN" in out
        assert "EDCAN" in out


class TestTraceCommands:
    """The trace-store sub-commands: record, replay, diff, corpus."""

    def test_record_then_replay(self, capsys, tmp_path):
        out = str(tmp_path / "fig1b-can.jsonl")
        assert main(["record", "fig1b", "--protocol", "can", "--out", out]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["replay", out]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_record_fig3a_takes_no_protocol(self, capsys, tmp_path):
        out = str(tmp_path / "fig3a.jsonl")
        assert main(["record", "fig3a", "--out", out]) == 0
        assert "recorded" in capsys.readouterr().out

    def test_diff_identical_and_divergent(self, capsys, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert main(["record", "fig1b", "--out", a]) == 0
        assert main(["record", "fig1b", "--out", b]) == 0
        assert main(["diff", a, b]) == 0
        c = str(tmp_path / "c.jsonl")
        assert main(["record", "fig1c", "--out", c]) == 0
        capsys.readouterr()
        assert main(["diff", a, c]) == 1
        assert "diverg" in capsys.readouterr().out.lower()

    def test_corpus_update_and_check(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "update", "--dir", corpus_dir]) == 0
        capsys.readouterr()
        assert main(["corpus", "check", "--dir", corpus_dir, "--jobs", "2"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_corpus_check_fails_on_missing_dir(self, capsys, tmp_path):
        assert main(["corpus", "check", "--dir", str(tmp_path / "nope")]) == 2
        assert_one_error_line(capsys.readouterr().err)


def assert_one_error_line(err):
    """Invalid input: one ``error:`` line on stderr, no traceback."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestInvalidInput:
    """Exit 2 and one ``error:`` line on malformed input; a real
    divergence keeps exit 1."""

    @pytest.fixture
    def recording(self, capsys, tmp_path):
        path = tmp_path / "fig1b.jsonl"
        assert main(["record", "fig1b", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_replay_without_verdict_line(self, capsys, recording):
        lines = recording.read_text().splitlines()
        recording.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["replay", str(recording)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert "expected exactly one verdict line, found 0" in captured.err
        assert captured.out == ""

    def test_replay_of_a_line_that_is_not_an_object(self, capsys, recording):
        with open(recording, "a") as handle:
            handle.write("[1, 2]\n")
        assert main(["replay", str(recording)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_diff_with_a_malformed_side(self, capsys, tmp_path, recording):
        broken = tmp_path / "broken.jsonl"
        broken.write_text(recording.read_text().splitlines()[0][:-7] + "\n")
        assert main(["diff", str(recording), str(broken)]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert main(["diff", str(recording), str(tmp_path / "missing.jsonl")]) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "text", [None, "{not json", '["a list"]', '{"name": "x", "frobnicate": 1}']
    )
    def test_sweep_run_on_a_malformed_spec(self, capsys, tmp_path, text):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        store = tmp_path / "store"
        assert main(["sweep", "run", str(spec), "--store", str(store)]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not store.exists()
