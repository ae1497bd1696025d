"""Tests for the steady-state traffic engine (:mod:`repro.traffic`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError, ProtocolError, TraceStoreError
from repro.metrics.export import json_line
from repro.parallel.seeds import rng_from
from repro.tracestore import load_trace, replay_trace, validate_records
from repro.traffic import (
    BurstSpec,
    TrafficSpec,
    build_schedule,
    record_traffic,
    run_traffic,
    schedule,
    splice_windows,
    traffic_records,
)
from repro.traffic.run import WindowResult
from repro.traffic.recording import submission_record
from repro.traffic.schedule import POISSON_CHUNK, traffic_seed_tree
from repro.traffic.spec import Submission
from repro.workload.profiles import NetworkProfile


def _lines(outcome):
    return [json_line(record) for record in traffic_records(outcome)]


class TestSpecValidation:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(protocol="ttcan")

    def test_rejects_unknown_source(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(source="bursty")

    def test_rejects_unknown_hlp(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(hlp="abcast")

    def test_rejects_bad_node_counts(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=1)
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=257)
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=65, hlp="edcan")

    def test_rejects_tiny_window(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(window_bits=32)

    def test_rejects_drain_budget_below_window(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(window_bits=2000, max_window_bits=2000)

    def test_rejects_bad_load(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(load=0.0)
        with pytest.raises(ConfigurationError):
            TrafficSpec(load=4.5)

    def test_rejects_burst_against_unknown_node(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=2, bursts=(BurstSpec(node="n7", start=0, length=5),))

    def test_rejects_burst_in_missing_window(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(
                windows=1,
                bursts=(BurstSpec(node="n0", start=0, length=5, window=3),),
            )

    def test_rejects_noise_against_unknown_node(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(n_nodes=2, noise_ber=0.01, noise_nodes=("n9",))

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(seed="7")

    def test_burst_validates_itself(self):
        with pytest.raises(ConfigurationError):
            BurstSpec(node="n0", start=-1, length=5)
        with pytest.raises(ConfigurationError):
            BurstSpec(node="n0", start=0, length=0)
        with pytest.raises(ConfigurationError):
            BurstSpec(node="n0", start=0, length=5, window=-2)


class TestSpecGeometry:
    def test_period_matches_profile_arithmetic(self):
        profile = NetworkProfile(
            bit_rate=1e6, n_nodes=4, load=0.9, frame_bits=110
        )
        spec = TrafficSpec(n_nodes=4, load=0.9)
        assert spec.period_bits == int(
            round(profile.n_nodes * profile.frame_bits / profile.load)
        )

    def test_node_names(self):
        assert TrafficSpec(n_nodes=3).node_names == ("n0", "n1", "n2")

    def test_seq_cap_depends_on_hlp(self):
        assert TrafficSpec().seq_cap == 1 << 16
        assert TrafficSpec(hlp="edcan", n_nodes=3).seq_cap == 1 << 8

    def test_burst_window_wildcard(self):
        every = BurstSpec(node="n0", start=5, length=3, window=-1)
        only1 = BurstSpec(node="n1", start=5, length=3, window=1)
        spec = TrafficSpec(windows=2, bursts=(every, only1))
        assert spec.bursts_for_window(0) == (every,)
        assert spec.bursts_for_window(1) == (every, only1)


class TestManifestRoundTrip:
    def test_round_trip_is_exact(self):
        spec = TrafficSpec(
            name="rt",
            protocol="majorcan",
            m=4,
            n_nodes=5,
            windows=3,
            window_bits=800,
            load=1.2,
            seed=99,
            noise_ber=0.001,
            noise_nodes=("n1", "n3"),
            bursts=(BurstSpec(node="n2", start=10, length=7, window=1),),
            bus_off_recovery=True,
            record_events=False,
        )
        assert TrafficSpec.from_manifest(spec.to_manifest()) == spec

    def test_meta_rides_along(self):
        manifest = TrafficSpec().to_manifest(meta={"entry": "x"})
        assert manifest["meta"] == {"entry": "x"}

    def test_rejects_wrong_version(self):
        manifest = TrafficSpec().to_manifest()
        manifest["version"] = 1
        with pytest.raises(TraceStoreError):
            TrafficSpec.from_manifest(manifest)

    def test_rejects_wrong_kind(self):
        manifest = TrafficSpec().to_manifest()
        manifest["kind"] = "scenario"
        with pytest.raises(TraceStoreError):
            TrafficSpec.from_manifest(manifest)


class TestSchedule:
    def test_periodic_times_follow_phase_and_period(self):
        spec = TrafficSpec(n_nodes=3, windows=2, window_bits=700, load=0.8)
        period = spec.period_bits
        schedule = build_schedule(spec)
        for sub in schedule:
            index = sub.node_index
            phase = (index * period) // spec.n_nodes
            assert (sub.time - phase) % period == 0
            assert sub.window == sub.time // spec.window_bits
            assert sub.identifier == 0x100 + index
        assert [s.time for s in schedule] == sorted(s.time for s in schedule)

    def test_schedule_is_deterministic(self):
        spec = TrafficSpec(
            n_nodes=3,
            windows=2,
            window_bits=600,
            source="poisson",
            rate_per_bit=0.004,
            seed=21,
        )
        assert build_schedule(spec) == build_schedule(spec)

    def test_per_node_sequences_are_dense(self):
        spec = TrafficSpec(n_nodes=3, windows=2, window_bits=900, load=0.9)
        seqs = {}
        for sub in build_schedule(spec):
            seqs.setdefault(sub.node, []).append(sub.seq)
        for per_node in seqs.values():
            assert per_node == list(range(len(per_node)))

    def test_hlp_seq_cap_enforced(self):
        spec = TrafficSpec(
            n_nodes=2,
            hlp="edcan",
            windows=1,
            window_bits=300,
            load=4.0,
            frame_bits=1,
        )
        with pytest.raises(ConfigurationError):
            build_schedule(spec)


def reference_schedule(spec):
    """``build_schedule`` written per tick: a periodic node submits
    where ``(t - phase) % period == 0``, a Poisson node draws one
    scalar uniform per tick until it reaches its cap."""
    cap = spec.messages_per_node
    children, _ = traffic_seed_tree(spec)
    rows = []
    for index, name in enumerate(spec.node_names):
        rng = rng_from(children[index])
        period = spec.period_bits
        phase = (index * period) // spec.n_nodes
        seq = 0
        for time in range(spec.total_active_bits):
            if cap is not None and seq >= cap:
                break
            if spec.source == "periodic":
                hit = time >= phase and (time - phase) % period == 0
            else:
                hit = rng.random() < spec.rate_per_bit
            if hit:
                rows.append((time, index, name, seq, time // spec.window_bits))
                seq += 1
    rows.sort(key=lambda row: (row[0], row[1]))
    return [
        {
            "t": time,
            "window": window,
            "node": name,
            "seq": seq,
            "id": 0x100 + index,
            "payload": bytes([seq & 0xFF, seq >> 8]).hex(),
            "message_id": "%s#%d" % (name, seq),
        }
        for time, index, name, seq, window in rows
    ]


@settings(max_examples=120, deadline=None)
@given(
    source=st.sampled_from(["periodic", "poisson"]),
    cap=st.sampled_from([None, 1, 4]),
    n_nodes=st.integers(2, 8),
    windows=st.integers(1, 3),
    window_bits=st.integers(64, 300),
    load=st.sampled_from([0.3, 0.9, 2.5]),
    rate=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    chunk=st.sampled_from([1, 7, 40, POISSON_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_matches_per_tick_reference(
    source, cap, n_nodes, windows, window_bits, load, rate, chunk, seed
):
    """Periodic ticks by modulus and Poisson hits drawn one uniform per
    tick give the schedule ``build_schedule`` computes arithmetically
    and in chunks, across chunk boundaries and the message cap."""
    spec = TrafficSpec(
        n_nodes=n_nodes,
        windows=windows,
        window_bits=window_bits,
        source=source,
        load=load,
        frame_bits=20,
        rate_per_bit=rate,
        messages_per_node=cap,
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule, "POISSON_CHUNK", chunk)
        built = [
            {key: value for key, value in submission_record(sub).items() if key != "type"}
            for sub in build_schedule(spec)
        ]
    assert built == reference_schedule(spec)


class TestPoissonChunks:
    @pytest.mark.parametrize("offset", [-1, 0, 1, 30])
    def test_across_the_chunk_boundary(self, offset):
        """At the real :data:`POISSON_CHUNK`, a run ending on either
        side of a block boundary submits what per-tick draws submit."""
        spec = TrafficSpec(
            n_nodes=2,
            window_bits=POISSON_CHUNK + offset,
            source="poisson",
            rate_per_bit=0.002,
            seed=11,
        )
        built = [
            {key: value for key, value in submission_record(sub).items() if key != "type"}
            for sub in build_schedule(spec)
        ]
        assert built
        assert built == reference_schedule(spec)


class TestJobsInvariance:
    def test_noisy_burst_run_is_jobs_invariant(self):
        spec = TrafficSpec(
            name="jobs-inv",
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=3,
            window_bits=700,
            load=0.8,
            seed=31,
            noise_ber=0.001,
            bursts=(BurstSpec(node="n1", start=150, length=20, window=1),),
        )
        serial = run_traffic(spec, jobs=1)
        parallel = run_traffic(spec, jobs=2)
        assert _lines(serial) == _lines(parallel)
        assert {k: bool(v) for k, v in serial.properties.items()} == {
            k: bool(v) for k, v in parallel.properties.items()
        }


class TestRecordReplay:
    def test_recording_replays_bit_identically(self, tmp_path):
        spec = TrafficSpec(
            name="rec",
            protocol="majorcan",
            m=5,
            n_nodes=4,
            windows=2,
            window_bits=800,
            load=0.9,
            seed=11,
            bursts=(BurstSpec(node="n1", start=120, length=18),),
        )
        path = tmp_path / "rec.jsonl"
        record_traffic(path, run_traffic(spec, jobs=2), meta={"entry": "rec"})
        trace = load_trace(path)
        assert trace.version == 2
        assert trace.traffic_spec() == spec
        assert trace.submissions and trace.frame_verdicts
        result = replay_trace(path)
        assert result.bit_identical, result.diff.summary()

    def test_schema_valid_record_stream(self):
        outcome = run_traffic(
            TrafficSpec(n_nodes=3, window_bits=600, seed=2), jobs=1
        )
        assert validate_records(list(traffic_records(outcome))) == []


class TestSchemaV2Validation:
    def _records(self):
        outcome = run_traffic(
            TrafficSpec(n_nodes=3, window_bits=600, seed=2), jobs=1
        )
        return list(traffic_records(outcome))

    def test_out_of_order_sections_flagged(self):
        records = self._records()
        bus_at = next(i for i, r in enumerate(records) if r["type"] == "bus")
        records.insert(bus_at + 1, records.pop(1))  # submission after bus
        assert validate_records(records)

    def test_bad_frame_status_flagged(self):
        records = self._records()
        for record in records:
            if record["type"] == "frame_verdict":
                record["status"] = "misplaced"
                break
        assert validate_records(records)

    def test_missing_manifest_key_flagged(self):
        records = self._records()
        del records[0]["engine"]
        assert validate_records(records)

    def test_decreasing_submission_times_flagged(self):
        records = self._records()
        subs = [r for r in records if r["type"] == "submission"]
        assert len(subs) >= 2
        subs[0]["t"], subs[1]["t"] = subs[1]["t"], subs[0]["t"]
        assert validate_records(records)

    def test_v1_recordings_still_validate(self):
        from repro.faults.scenarios import fig3
        from repro.tracestore import outcome_records

        records = list(outcome_records(fig3("can")))
        assert validate_records(records) == []


class TestVerdictClassification:
    def _spec(self):
        return TrafficSpec(n_nodes=3, windows=1, window_bits=100, load=0.5)

    def _schedule(self, spec):
        return tuple(
            Submission(time=t, window=0, node="n0", node_index=0, seq=seq)
            for seq, t in enumerate((0, 10, 20, 30))
        )

    def _result(self, deliveries, ever_offline=()):
        return WindowResult(
            window=0,
            bits=200,
            bus="r" * 200,
            deliveries=deliveries,
            event_counts={},
            events=(),
            ever_offline=tuple(ever_offline),
            max_backlog=0,
            busy_bits=0,
            errors_injected=0,
        )

    def test_statuses_follow_precedence(self):
        spec = self._spec()
        schedule = self._schedule(spec)
        # seq 0: everyone once -> delivered; seq 1: n1 twice -> duplicated
        # (even though n2 missed it); seq 2: only n1 -> omitted;
        # seq 3: nobody -> lost.
        deliveries = {
            "n0": (("n0", 0, 50), ("n0", 1, 60)),
            "n1": (("n0", 0, 50), ("n0", 1, 60), ("n0", 1, 70), ("n0", 2, 80)),
            "n2": (("n0", 0, 50),),
        }
        outcome = splice_windows(spec, schedule, [self._result(deliveries)])
        assert [v.status for v in outcome.verdicts] == [
            "delivered",
            "duplicated",
            "omitted",
            "lost",
        ]
        assert outcome.stats.delivered == 1
        assert outcome.stats.duplicated == 1
        assert outcome.stats.omitted == 1
        assert outcome.stats.lost == 1
        assert outcome.verdicts[0].first_delivered == 50
        assert outcome.verdicts[3].first_delivered is None
        assert not outcome.atomic

    def test_offline_nodes_do_not_count(self):
        spec = self._spec()
        schedule = self._schedule(spec)[:1]
        deliveries = {
            "n0": (("n0", 0, 50),),
            "n1": (("n0", 0, 50),),
            "n2": (),
        }
        outcome = splice_windows(
            spec, schedule, [self._result(deliveries, ever_offline=("n2",))]
        )
        assert outcome.verdicts[0].status == "delivered"
        assert not outcome.ledger.nodes["n2"].correct

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(("n0", "n1", "n2")),
                st.lists(
                    st.tuples(
                        st.sampled_from((("n0", 0), ("n0", 1), ("n0", 3), ("n1", 9))),
                        st.integers(0, 199),
                    ),
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_counts_and_first_times_equal_the_per_row_loop(self, windows):
        """The array-built count matrix against the per-row dict loop,
        over several windows, with duplicates, out-of-order times and a
        delivered key (``("n1", 9)``) that is not scheduled."""
        spec = self._spec()
        schedule = self._schedule(spec)
        results = [
            self._result(
                {
                    name: tuple((origin, seq, t) for (origin, seq), t in rows)
                    for name, rows in window.items()
                }
            )
            for window in windows
        ]
        outcome = splice_windows(spec, schedule, results)

        counts = {name: {} for name in spec.node_names}
        first_time = {}
        delivered = {name: [] for name in spec.node_names}
        for offset, result in zip(range(0, 200 * len(results), 200), results):
            for name, rows in result.deliveries.items():
                for origin, seq, local_time in rows:
                    key = (origin, seq)
                    time = local_time + offset
                    delivered[name].append((key, time))
                    counts[name][key] = counts[name].get(key, 0) + 1
                    if key not in first_time or time < first_time[key]:
                        first_time[key] = time
        for sub, verdict in zip(schedule, outcome.verdicts):
            expected = {name: counts[name].get(sub.key, 0) for name in spec.node_names}
            assert verdict.counts == expected
            assert all(type(count) is int for count in verdict.counts.values())
            assert verdict.first_delivered == first_time.get(sub.key)
            assert type(verdict.first_delivered) in (int, type(None))
        for name, node in outcome.ledger.nodes.items():
            assert list(zip(node.deliveries, node.delivery_times)) == delivered[name]
            assert all(type(time) is int for time in node.delivery_times)


class TestHlpTraffic:
    def test_edcan_stream_is_atomic(self):
        spec = TrafficSpec(
            n_nodes=3,
            hlp="edcan",
            windows=2,
            window_bits=900,
            load=0.3,
            seed=5,
        )
        outcome = run_traffic(spec, jobs=2)
        assert outcome.stats.frames_submitted > 0
        assert outcome.stats.delivered == outcome.stats.frames_submitted
        assert outcome.atomic

    def test_sequence_counter_refuses_rewind(self):
        from repro.can.controller import CanController
        from repro.protocols import PROTOCOL_FACTORIES
        from repro.protocols.base import AppNode

        node = AppNode(0, CanController("n0"), PROTOCOL_FACTORIES["edcan"]())
        node.broadcast(b"")
        node.broadcast(b"")
        node.advance_sequence_to(5)
        with pytest.raises(ProtocolError):
            node.advance_sequence_to(1)


class TestSustainedFaults:
    def test_burst_forces_error_signalling_and_recovery(self):
        spec = TrafficSpec(
            n_nodes=3,
            windows=2,
            window_bits=1100,
            load=0.7,
            seed=7,
            bursts=(BurstSpec(node="n1", window=0, start=140, length=24),),
        )
        outcome = run_traffic(spec, jobs=1)
        assert outcome.stats.errors_injected > 0
        assert outcome.stats.errors_detected > 0
        assert outcome.stats.delivered == outcome.stats.frames_submitted
        assert outcome.atomic

    def test_tec_ramp_reaches_bus_off_and_recovers(self):
        spec = TrafficSpec(
            protocol="majorcan",
            m=5,
            n_nodes=3,
            windows=1,
            window_bits=6000,
            load=0.3,
            seed=3,
            bursts=(BurstSpec(node="n0", window=0, start=10, length=700),),
            bus_off_recovery=True,
        )
        outcome = run_traffic(spec, jobs=1)
        assert outcome.stats.bus_off >= 1
        assert outcome.stats.bus_off_recovered >= 1
        # n0 went bus-off, so it is excluded from the correct set; the
        # stream over the correct nodes still satisfies AB1-AB5.
        assert not outcome.ledger.nodes["n0"].correct
        assert outcome.atomic


class TestTrafficCli:
    def test_traffic_smoke(self, capsys):
        assert (
            main(
                [
                    "traffic",
                    "--nodes",
                    "3",
                    "--windows",
                    "2",
                    "--window-bits",
                    "600",
                    "--load",
                    "0.8",
                    "--seed",
                    "7",
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "AB1-validity" in out
        assert "frames:" in out

    def test_traffic_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "cli.jsonl")
        assert (
            main(
                [
                    "traffic",
                    "--nodes",
                    "3",
                    "--window-bits",
                    "600",
                    "--seed",
                    "3",
                    "--burst",
                    "n1:0:100:12",
                    "--record",
                    path,
                ]
            )
            == 0
        )
        assert main(["replay", path]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_traffic_rejects_malformed_burst(self, capsys):
        assert main(["traffic", "--burst", "n1:wat"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: burst must be node:window:start:length")
