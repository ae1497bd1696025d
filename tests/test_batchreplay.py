"""Differential tests pinning the batch-replay backend to the engine.

The batch backend (:mod:`repro.analysis.batchreplay`) is exact by
construction — every placement it classifies itself must match an
engine run bit for bit, and anything it cannot model must fall back to
the engine.  These tests enforce that contract:

* over the **full tail-site universe of every golden-corpus frame**
  (single flips exhaustively, multi-flips sampled with a fixed seed);
* over the **full header-site universe** (the F1 desync placements,
  classified through cached reduced engine runs) for every
  protocol, network size and announced field;
* over a **seeded random sweep** of 1-3 flip placements per protocol;
* over **generated armed placements** (Hypothesis, 1-6 flips, m = 3..8,
  2-6 nodes): the array and scalar drivers of the transition table
  agree with each other under every step cap, and with the engine;
* over **wide armed batches** (96-400 placements finishing at staggered
  passes, 2-8 nodes and 32, m = 3..13 so the key count passes 64): the
  node-major array driver matches a verbatim copy of the
  placement-major driver it replaced, bails included, and the scalar
  driver;
* over **generated placements** (Hypothesis, 1-4 tail, sampling and
  header sites, 3-5 nodes): receiver permutations, reorderings and
  cancelling site pairs share one canonical form and permute the
  outcome to match, and the batch outcomes equal the engine's;
* over **generated slabs** (Hypothesis, 2-7 nodes, combos of every
  length 1-6 with repeated sites, unknown nodes, tail and header sites
  mixed): the array canonical form matches a verbatim copy of the
  per-placement canonicaliser it replaced, one slab classifies like
  the same combos one call each, and the per-placement front end of
  narrow slabs gives the array front end's keys, relabelling, routes
  and verdicts;
* over **a sampled CAN/MinorCAN 2-flip universe**: ``verify_chunk``
  finds the engine's hits on both backends;
* through every wired entry point (``verify_consistency``,
  ``enumerate_tail_patterns``, ``monte_carlo_tail``, ``m_ablation``,
  the CLI ``--backend`` flag), asserting backend equality end to end.
"""

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batchreplay import (
    _ARRAY_BREAK_EVEN,
    _FAST,
    _PAD,
    _RX_START,
    _TX_START,
    ENGINE,
    HEADER,
    SCALAR,
    BatchReplayEvaluator,
    EngineClassifier,
    _arm,
    _index_sites,
    _replay_array,
    _replay_scalar,
    _attempt_cap,
    _step_cap,
    _row_keys,
    clear_caches,
    placement_classifier,
    transition_table,
)
from repro.analysis.enumeration import enumerate_tail_patterns
from repro.analysis.montecarlo import monte_carlo_tail
from repro.analysis.sweeps import ablation_row
from repro.analysis.verification import (
    header_sites,
    tail_sites,
    verify_chunk,
    verify_consistency,
)
from repro.can.fields import CRC, EOF
from repro.can.frame import data_frame
from repro.can.geometry import FrameEnd, frame_end
from repro.cli import main
from repro.errors import AnalysisError
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import (
    make_controller,
    run_placement,
    run_single_frame_scenario,
)
from repro.properties.ledger import KINDS, delivery_flags
from repro.tracestore import load_trace

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: The one-byte frame every placement driver simulates.
FRAME = data_frame(0x123, b"\x55", message_id="m")


def _scenario_version(path):
    with open(path) as handle:
        return json.loads(handle.readline()).get("version")


#: Single-frame (schema v1) entries only — the tail-universe
#: differential rebuilds a scenario spec, which v2 traffic recordings
#: (multi-frame, no injector script) do not have.
CORPUS_FILES = [
    p for p in sorted(CORPUS_DIR.glob("*.jsonl")) if _scenario_version(p) == 1
]

#: Micro-model configs exercised by the random sweep.
SWEEP_CONFIGS = (
    ("can", 5),
    ("minorcan", 5),
    ("majorcan", 5),
    ("majorcan", 3),
)


def engine_oracle(protocol, m, node_names, combo, frame):
    """One independent engine run -> (per-node deliveries, attempts)."""
    nodes = [make_controller(protocol, name, m=m) for name in node_names]
    faults = [
        ViewFault(name, Trigger(field=field_name, index=index), force=None)
        for name, field_name, index in combo
    ]
    outcome = run_single_frame_scenario(
        "oracle",
        nodes,
        ScriptedInjector(view_faults=faults),
        frame=frame,
        record_bits=False,
        max_bits=60000,
    )
    return (
        tuple(outcome.deliveries[name] for name in node_names),
        outcome.attempts,
    )


def verdicts(placed):
    """``(deliveries, attempts)`` per placement of ``Placements`` columns."""
    return list(zip(map(tuple, placed.deliveries.tolist()), placed.attempts.tolist()))


def off_engine(evaluator):
    """Placements the evaluator classified without a full engine run."""
    return sum(evaluator.stats.values()) - evaluator.stats["engine"]


def universe(protocol, m, node_names):
    """The paper's tail-site universe for one config."""
    return tail_sites(node_names, frame_end(protocol, m))


class Shape(NamedTuple):
    """A config's tail geometry and the per-attempt step budget to
    replay it at."""

    m: int
    geometry: FrameEnd
    attempt_cap: int

    @property
    def key_count(self):
        return len(self.geometry.sites)


def tail_shape(protocol, m):
    """The geometry of one config at the evaluator's own step budget."""
    geometry = frame_end(protocol, m)
    return Shape(m, geometry, _attempt_cap(geometry))


class TestCorpusDifferential:
    """Batch == engine over every golden-corpus frame's tail universe."""

    def test_corpus_is_present(self):
        assert len(CORPUS_FILES) >= 13

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_full_tail_universe_matches_engine(self, path):
        spec = load_trace(path).spec()
        protocols = {protocol for _, protocol, _ in spec.nodes}
        assert len(protocols) == 1, "corpus entries are single-protocol"
        protocol = protocols.pop()
        m = next(
            (node_m for _, _, node_m in spec.nodes if node_m is not None), 5
        )
        node_names = [name for name, _, _ in spec.nodes]
        sites = universe(protocol, m, node_names)
        singles = [(site,) for site in sites]
        rng = random.Random(0xC0FFEE)
        doubles = rng.sample(list(itertools.combinations(sites, 2)), 25)
        combos = singles + doubles

        evaluator = BatchReplayEvaluator(
            protocol, m, node_names, frame=spec.frame
        )
        outcomes = verdicts(evaluator.evaluate(combos))
        assert evaluator.stats["engine"] == 0, (
            "corpus frames must be classified by the micro-model itself"
        )
        assert off_engine(evaluator) == len(combos)
        for combo, outcome in zip(combos, outcomes):
            expected = engine_oracle(protocol, m, node_names, combo, spec.frame)
            assert outcome == expected, (
                path.stem,
                combo,
            )


class TestSeededRandomSweep:
    """Batch == engine on seeded random 1-3 flip placements."""

    @pytest.mark.parametrize("protocol,m", SWEEP_CONFIGS)
    def test_random_placements_match_engine(self, protocol, m):
        node_names = ["tx", "r1", "r2"]
        sites = universe(protocol, m, node_names)
        rng = random.Random(20260806 + m)
        combos = [
            tuple(rng.sample(sites, rng.randint(1, 3))) for _ in range(60)
        ]
        evaluator = BatchReplayEvaluator(protocol, m, node_names, FRAME)
        for combo, outcome in zip(combos, verdicts(evaluator.evaluate(combos))):
            expected = engine_oracle(protocol, m, node_names, combo, FRAME)
            assert outcome == expected, combo

    @pytest.mark.parametrize("protocol,m", SWEEP_CONFIGS)
    def test_array_and_scalar_simulators_agree(self, protocol, m):
        """The two table drivers, fed the same armed-pair lists."""
        node_names = ["tx", "r1", "r2"]
        sites = universe(protocol, m, node_names)
        rng = random.Random(7 * m)
        combos = [(s,) for s in sites] + [
            tuple(rng.sample(sites, 2)) for _ in range(40)
        ]
        evaluator = BatchReplayEvaluator(protocol, m, node_names, FRAME)
        routes, nodes, keys, _ = evaluator._resolve(evaluator._canonical(combos).codes)
        assert (routes == _FAST).all(), [c for c, r in zip(combos, routes) if r != _FAST]
        arms = [_arm(row_nodes, row_keys) for row_nodes, row_keys in zip(nodes, keys)]
        table = transition_table(evaluator.geometry)
        cap = _step_cap(evaluator.attempt_cap, max(map(len, arms)))
        array = replays(_replay_array(table, len(node_names), nodes, keys, cap))
        scalar = [
            _replay_scalar(
                table, len(node_names), arm, _step_cap(evaluator.attempt_cap, len(arm))
            )
            for arm in arms
        ]
        assert array == scalar

    @pytest.mark.parametrize("fresh,label", [(95, "scalar"), (96, "batch")])
    def test_dispatch_boundary_labels(self, fresh, label):
        # The route label is persisted (sweep store ``backend_stats``,
        # benchmark fingerprints), so the size threshold is pinned.
        node_names = ["tx", "r1", "r2"]
        tx_sites = [s for s in universe("majorcan", 5, node_names) if s[0] == "tx"]
        combos = list(itertools.combinations(tx_sites, 2))[:fresh]
        assert len(combos) == fresh
        clear_caches()
        evaluator = BatchReplayEvaluator("majorcan", 5, node_names, FRAME)
        evaluator.evaluate(combos)
        assert evaluator.stats == {
            "batch": 0, "scalar": 0, "header": 0, "engine": 0, label: fresh
        }


def armed_matrices(placements):
    """``_replay_array``'s ``(nodes, keys)`` matrices of armed-pair
    lists, padded with key -1."""
    width = max(map(len, placements))
    nodes = np.zeros((len(placements), width), dtype=np.int64)
    keys = np.full((len(placements), width), -1, dtype=np.int64)
    for row, pairs in enumerate(placements):
        for column, (node, key) in enumerate(pairs):
            nodes[row, column], keys[row, column] = node, key
    return nodes, keys


def replays(columns):
    """``_replay_array``'s columns as the scalar driver's results: one
    ``(deliveries, attempts)`` per placement, None where it bailed."""
    deliveries, attempts, finished = columns
    return [
        (tuple(row), count) if ok else None
        for row, count, ok in zip(deliveries.tolist(), attempts.tolist(), finished.tolist())
    ]


def placement_major_replay(table, n_nodes, nodes, keys, cap):
    """The placement-major array driver the node-major one replaced,
    verbatim but for its name: the wide-batch oracle."""
    batch = len(keys)
    results = [None] * batch
    if batch == 0:
        return results
    width = table.key_count + 1  # the last column is the "no key" sentinel
    armed = np.zeros((batch, n_nodes, width), dtype=bool)
    at = np.nonzero(keys >= 0)
    armed[at[0], nodes[at], keys[at]] = True
    start = np.full(n_nodes, _RX_START, dtype=np.intp)
    start[0] = _TX_START
    codes = np.tile(start, (batch, 1))
    deliver = np.zeros((batch, n_nodes), dtype=np.int32)
    attempts = np.ones(batch, dtype=np.int32)
    rows = np.arange(batch)
    slots = np.arange(batch * n_nodes).reshape(batch, n_nodes) * width
    for _ in range(cap):
        flat = armed.reshape(-1)
        at = slots + table.key[codes]
        fired = flat[at]
        flat[at] = False
        entry = codes + (fired ^ table.drives[codes].any(axis=1)[:, None])
        codes = table.next[entry].astype(np.intp)
        deliver += table.delivered[entry]
        bailed = table.bail[entry].any(axis=1)
        tx_idle = table.is_idle[codes[:, 0]]
        if not (tx_idle.any() or bailed.any()):
            continue
        # End of step: finished, or an orchestrated retransmission.
        pending = deliver[:, 0] == 0
        done = tx_idle & ~pending & table.is_idle[codes].all(axis=1) & ~bailed
        restart = tx_idle & pending & ~bailed
        ok = restart & table.ready[codes[:, 1:]].all(axis=1)
        bailed |= restart & ~ok
        attempts[ok] += 1
        codes[ok] = start
        keep = ~(done | bailed)
        if keep.all():
            continue
        for b in np.flatnonzero(done):
            results[rows[b]] = (tuple(deliver[b].tolist()), int(attempts[b]))
        if not keep.any():
            break
        codes, deliver, attempts, rows, armed = (
            codes[keep], deliver[keep], attempts[keep], rows[keep], armed[keep]
        )
        slots = slots[: len(rows)]
    return results


def wide_batch(rng, key_count, n_nodes, size):
    """``size`` placements of 0-6 distinct armed pairs, scattered over
    the nodes or stacked on one: clean placements finish on the first
    attempt, flipped ones at staggered passes."""
    placements = []
    for _ in range(size):
        flips = rng.randint(0, 6)
        node = rng.randrange(n_nodes) if rng.random() < 0.3 else None
        pairs = set()
        while len(pairs) < flips:
            pairs.add((rng.randrange(n_nodes) if node is None else node, rng.randrange(key_count)))
        placements.append(sorted(pairs))
    return placements


@st.composite
def wide_batches(draw):
    """A tail geometry up to m = 13, 2-8 nodes and 96-400 placements,
    the per-attempt budget shrunk half the time so some bail."""
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    shape = tail_shape(protocol, draw(st.integers(3, 13)))
    n_nodes = draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    placements = wide_batch(rng, shape.key_count, n_nodes, draw(st.integers(96, 400)))
    if draw(st.booleans()):
        shape = shape._replace(attempt_cap=draw(st.integers(1, shape.attempt_cap)))
    return shape, n_nodes, placements


@st.composite
def armed_batches(draw, tight=True):
    """A tail geometry, a network size and a batch of armed placements.

    Placements hold 1-6 distinct ``(node, key)`` pairs, some stacking
    several keys on one node.  With ``tight`` the per-attempt budget
    may shrink, so placements run past their nominal step cap (at the
    real budget none comes near it).
    """
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    m = draw(st.integers(3, 8))
    n_nodes = draw(st.integers(2, 6))
    shape = tail_shape(protocol, m)
    nodes = st.integers(0, n_nodes - 1)
    keys = st.integers(0, shape.key_count - 1)
    scattered = st.lists(
        st.tuples(nodes, keys), min_size=1, max_size=6, unique=True
    )
    stacked = st.tuples(
        nodes, st.lists(keys, min_size=2, max_size=6, unique=True)
    ).map(lambda drawn: [(drawn[0], key) for key in drawn[1]])
    placements = draw(
        st.lists(st.one_of(scattered, stacked), min_size=1, max_size=8)
    )
    if tight and draw(st.booleans()):
        shape = shape._replace(attempt_cap=draw(st.integers(1, shape.attempt_cap)))
    return shape, n_nodes, placements


class TestGeneratedTailDifferential:
    """The table drivers against each other and against the engine."""

    @settings(max_examples=150, deadline=None)
    @given(armed_batches())
    def test_array_driver_equals_scalar_driver(self, case):
        shape, n_nodes, placements = case
        table = transition_table(shape.geometry)
        batch_cap = _step_cap(shape.attempt_cap, max(map(len, placements)))
        array = replays(
            _replay_array(table, n_nodes, *armed_matrices(placements), batch_cap)
        )
        for placement, verdict in zip(placements, array):
            nominal = _replay_scalar(
                table, n_nodes, placement, _step_cap(shape.attempt_cap, len(placement))
            )
            widened = _replay_scalar(
                table, n_nodes, placement, _step_cap(shape.attempt_cap, len(placement), 8)
            )
            # The batch cap is at least the placement's own cap and at
            # most eight times it.
            if nominal is not None:
                assert verdict == nominal
            if verdict is not None:
                assert verdict == widened
            assert verdict == _replay_scalar(table, n_nodes, placement, batch_cap)

    @settings(max_examples=80, deadline=None)
    @given(armed_batches(tight=False))
    def test_drivers_equal_the_engine(self, case):
        shape, n_nodes, placements = case
        placement = placements[0]
        table = transition_table(shape.geometry)
        verdict = _replay_scalar(
            table, n_nodes, placement, _step_cap(shape.attempt_cap, len(placement), 8)
        )
        assert verdict is not None
        (array,) = replays(
            _replay_array(
                table, n_nodes, *armed_matrices([placement]), _step_cap(shape.attempt_cap, len(placement))
            )
        )
        assert array == verdict
        names = ["tx"] + ["r%d" % i for i in range(1, n_nodes)]
        # A tail key indexes the geometry's sites.
        combo = [(names[node], *shape.geometry.sites[key]) for node, key in placement]
        outcome = run_placement(shape.geometry.protocol, shape.m, names, combo, FRAME)
        assert verdict == (
            tuple(outcome.deliveries[name] for name in names),
            outcome.attempts,
        ), combo

    @staticmethod
    def wide_differential(shape, n_nodes, placements):
        """The array driver's verdicts on one batch, checked row by row
        against the placement-major oracle and the scalar driver at the
        batch cap."""
        table = transition_table(shape.geometry)
        batch_cap = _step_cap(shape.attempt_cap, max(map(len, placements)))
        nodes, keys = armed_matrices(placements)
        array = replays(_replay_array(table, n_nodes, nodes, keys, batch_cap))
        assert array == placement_major_replay(table, n_nodes, nodes, keys, batch_cap)
        for placement, verdict in zip(placements, array):
            assert verdict == _replay_scalar(table, n_nodes, placement, batch_cap)
        return array

    @settings(max_examples=40, deadline=None)
    @given(wide_batches())
    def test_wide_batches_equal_the_placement_major_driver(self, case):
        self.wide_differential(*case)

    @pytest.mark.parametrize(
        "m,n_nodes,attempt_cap", [(16, 32, None), (17, 5, None), (17, 8, 20)]
    )
    def test_seeded_wide_batches_past_64_keys(self, m, n_nodes, attempt_cap):
        shape = tail_shape("majorcan", m)
        assert shape.key_count > 64
        if attempt_cap is not None:
            shape = shape._replace(attempt_cap=attempt_cap)
        placements = wide_batch(random.Random(m * n_nodes), shape.key_count, n_nodes, 400)
        array = self.wide_differential(shape, n_nodes, placements)
        # Placements finish after different attempt counts, so the batch
        # compacts while others still run.
        assert len({verdict[1] for verdict in array if verdict is not None}) > 1
        assert (None in array) == (attempt_cap is not None)

    def test_keys_fire_once_after_compaction(self):
        # The clean placement finishes on the first attempt and is
        # compacted out.  The other two flip the transmitter's ACK slot,
        # so their EOF key is first announced, and fires, in the second
        # attempt, after that compaction.  Cleared there, it does not fire
        # again in the third; left armed, it restarts the frame every
        # attempt until the step budget runs out.
        shape = tail_shape("majorcan", 5)
        table = transition_table(shape.geometry)
        placements = [[], [(0, 1), (0, 3)], [(0, 1), (0, 4)]]
        cap = _step_cap(shape.attempt_cap, 2)
        array = replays(_replay_array(table, 3, *armed_matrices(placements), cap))
        assert [verdict[1] for verdict in array] == [1, 3, 3]
        assert array == [_replay_scalar(table, 3, placement, cap) for placement in placements]

    def test_route_step_caps(self):
        # With the per-attempt budget shrunk, placements overflow their
        # own cap.  The array route's cap follows the densest placement
        # of the batch, so a 1-2 flip placement that fits it keeps the
        # ``batch`` label; one that bails there retries on the scalar
        # route at eight times its own cap.
        names = ["tx", "r1", "r2"]
        clear_caches()
        evaluator = BatchReplayEvaluator("majorcan", 5, names, FRAME)
        evaluator.attempt_cap = 12
        shape = Shape(5, evaluator.geometry, evaluator.attempt_cap)
        # Transmitter sites only: every combo is its own canonical form.
        tx_sites = [s for s in universe("majorcan", 5, names) if s[0] == "tx"]
        combos = [(site,) for site in tx_sites]
        combos += list(itertools.combinations(tx_sites, 2))[:100]
        combos.append(tuple(tx_sites[::3][:6]))
        routes, nodes, keys, _ = evaluator._resolve(evaluator._canonical(combos).codes)
        assert (routes == _FAST).all()
        arms = [_arm(row_nodes, row_keys) for row_nodes, row_keys in zip(nodes, keys)]
        assert len(arms) >= 96 and max(map(len, arms)) == 6
        table = transition_table(shape.geometry)
        batch_cap = _step_cap(shape.attempt_cap, 6)
        expected = {"batch": 0, "scalar": 0, "header": 0, "engine": 0}
        past_own_cap = 0
        for arm in arms:
            if _replay_scalar(table, 3, arm, batch_cap) is not None:
                expected["batch"] += 1
                own = _replay_scalar(table, 3, arm, _step_cap(shape.attempt_cap, len(arm)))
                past_own_cap += own is None
            elif _replay_scalar(table, 3, arm, _step_cap(shape.attempt_cap, len(arm), 8)):
                expected["scalar"] += 1
            else:
                expected["engine"] += 1
        assert past_own_cap and expected["scalar"]
        evaluator.evaluate(combos)
        clear_caches()
        assert evaluator.stats == expected

    def test_clear_caches_empties_the_transition_tables(self):
        clear_caches()
        assert transition_table.cache_info().currsize == 0
        evaluator = BatchReplayEvaluator("minorcan", 5, ["tx", "r1"], FRAME)
        evaluator.evaluate([(("r1", "EOF", 6),)])
        assert transition_table.cache_info().currsize == 1
        clear_caches()
        assert transition_table.cache_info().currsize == 0

    def test_payloads_share_one_table(self):
        evaluators = [
            BatchReplayEvaluator(
                "majorcan", 5, ["tx", "r1"], data_frame(0x123, payload, message_id="m")
            )
            for payload in (b"", b"\x55", b"\x00\xff\x00\xff", bytes(8))
        ]
        assert len({evaluator.geometry for evaluator in evaluators}) == 1
        assert transition_table(evaluators[0].geometry) is transition_table(
            evaluators[-1].geometry
        )


class TestHeaderDifferential:
    """Header flips ride cached reduced runs; verdicts == engine exactly."""

    #: majorcan requires m >= 3, so its "small m" config is m=3.
    HEADER_CONFIGS = (
        ("can", 2),
        ("can", 5),
        ("minorcan", 2),
        ("minorcan", 5),
        ("majorcan", 3),
        ("majorcan", 5),
    )

    @pytest.mark.parametrize("protocol,m", HEADER_CONFIGS)
    def test_header_sites_universe_matches_engine(self, protocol, m):
        node_names = ("tx", "r1", "r2")
        evaluator = BatchReplayEvaluator(protocol, m, node_names, FRAME)
        combos = [(site,) for site in header_sites(node_names, data_bits=8)]
        outcomes = verdicts(evaluator.evaluate(combos))
        assert evaluator.stats["engine"] == 0, (
            "header sites must not bail to the full engine"
        )
        assert evaluator.stats["header"] == len(combos)
        assert off_engine(evaluator) == len(combos)
        for combo, outcome in zip(combos, outcomes):
            expected = engine_oracle(
                protocol, m, node_names, combo, evaluator.frame
            )
            assert outcome == expected, combo

    @pytest.mark.parametrize("n_nodes", (2, 4))
    def test_all_announced_fields_match_engine(self, n_nodes):
        from repro.can.encoding import header_shape

        node_names = tuple(["tx"] + ["r%d" % i for i in range(1, n_nodes)])
        for protocol, m in (("can", 5), ("majorcan", 3)):
            evaluator = BatchReplayEvaluator(protocol, m, node_names, FRAME)
            announced = header_shape(evaluator.frame, evaluator.geometry.eof_length)
            combos = [
                ((name, field_name, index),)
                for (field_name, index) in sorted(announced)
                for name in node_names
            ]
            outcomes = verdicts(evaluator.evaluate(combos))
            assert evaluator.stats["engine"] == 0
            for combo, outcome in zip(combos, outcomes):
                expected = engine_oracle(
                    protocol, m, node_names, combo, evaluator.frame
                )
                assert outcome == expected, (protocol, m, combo)

    def test_inert_header_sites_match_clean_run(self):
        # The default 1-byte payload never announces DATA index 60, and
        # SOF has a single bit: both triggers can never fire.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"], FRAME)
        clean, data_inert, sof_inert = verdicts(evaluator.evaluate(
            [(), (("r1", "DATA", 60),), (("r1", "SOF", 3),)]
        ))
        assert off_engine(evaluator) == 3
        assert data_inert == sof_inert == clean
        assert evaluator.stats["engine"] == 0

    def test_multi_flip_header_combos_stay_off_the_engine(self):
        # Header+header and header+tail combos classify through the
        # cached reduced-run path — no full-network engine runs.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"], FRAME)
        header = ("r1", "DATA", 0)
        tail = ("r2", "EOF", 5)
        combos = [(header, ("r2", "DATA", 1)), (header, tail)]
        outcomes = verdicts(evaluator.evaluate(combos))
        assert evaluator.stats["engine"] == 0
        assert evaluator.stats["header"] == 2
        frame = evaluator.frame
        assert off_engine(evaluator) == 2
        for combo, outcome in zip(combos, outcomes):
            expected = engine_oracle("can", 5, ("tx", "r1", "r2"), combo, frame)
            assert outcome == expected

    def test_one_reduced_run_per_fault_group_arrangement(self, monkeypatch):
        # Receiver symmetry leaves two arrangements per header site: the
        # flip on the transmitter, or on one receiver with clean ones as
        # witnesses.  The cold MajorCAN_5 header universe over five nodes
        # (12 DLC/DATA sites) thus costs 12 x 2 = 24 engine runs, not
        # one per placement.
        from repro.analysis import batchreplay

        runs = []
        real = batchreplay.run_placement

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(batchreplay, "run_placement", counted)
        clear_caches()
        names = ["tx"] + ["r%d" % i for i in range(1, 5)]
        universe = dict(n_nodes=5, max_flips=1, extra_sites=header_sites(names))
        batch = verify_consistency("majorcan", 5, backend="batch", **universe)
        assert len(runs) == 24
        assert batch.backend_stats["engine"] == 0
        engine = verify_consistency("majorcan", 5, **universe)
        assert batch.runs == engine.runs
        assert batch.counterexamples == engine.counterexamples
        assert len(batch.counterexamples) == 12

    def test_inert_header_plus_tail_flip_stays_vectorised(self):
        node_names = ("tx", "r1", "r2")
        evaluator = BatchReplayEvaluator("can", 5, node_names, FRAME)
        combo = (("r1", "DATA", 60), ("r2", "EOF", 6))
        (outcome,) = verdicts(evaluator.evaluate([combo]))
        assert off_engine(evaluator) == 1
        assert evaluator.stats["engine"] == 0
        expected = engine_oracle("can", 5, node_names, combo, evaluator.frame)
        assert outcome == expected


class TestRouting:
    """Placements outside the micro-model go to the engine oracle."""

    def test_duplicate_sites_cancel_by_parity(self):
        # Duplicate triggers on one position all fire at the same first
        # announcement and a flip of a flip is the identity, so an even
        # repeat count is a clean run and an odd one a single flip —
        # matching the engine without ever invoking it.
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"], FRAME)
        node_names = ("tx", "r1", "r2")
        site = ("r1", "EOF", 5)
        even, odd, clean, single = verdicts(evaluator.evaluate(
            [(site, site), (site, site, site), (), (site,)]
        ))
        assert evaluator.stats["engine"] == 0
        assert off_engine(evaluator) == 4
        assert even == clean
        assert odd == single
        for combo, outcome in ((((site, site)), even), ((site, site, site), odd)):
            expected = engine_oracle(
                "can", 5, node_names, combo, evaluator.frame
            )
            assert outcome == expected

    def test_inert_sites_match_clean_run(self):
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1", "r2"], FRAME)
        clean, inert = verdicts(evaluator.evaluate([(), (("r1", "EOF", 99),)]))
        assert off_engine(evaluator) == 2
        assert clean == inert
        assert clean[0] == (1, 1, 1)

    def test_unknown_node_falls_back_to_engine(self):
        evaluator = BatchReplayEvaluator("can", 5, ["tx", "r1"], FRAME)
        evaluator.evaluate([(("ghost", "EOF", 5),)])
        assert evaluator.stats == {"batch": 0, "scalar": 0, "header": 0, "engine": 1}


#: Header positions of the generated placements: DLC and DATA (the F1
#: universe) plus the CRC sequence, the header field next to the tail,
#: whose reduced runs the differentials check against the engine too.
HEADER_POSITIONS = [
    (field_name, index) for _, field_name, index in header_sites(["tx"])
] + [(CRC, index) for index in range(15)]


@st.composite
def placement_cases(draw):
    """A protocol, a 3-5 node network, a 1-4 site combo over tail,
    sampling and header sites, and the site strategy it was drawn from."""
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    m = draw(st.integers(3, 7))
    n_nodes = draw(st.integers(3, 5))
    names = ["tx"] + ["r%d" % i for i in range(1, n_nodes)]
    positions = [
        (field_name, index)
        for _, field_name, index in universe(protocol, m, ["tx"])
    ] + HEADER_POSITIONS
    sites = st.tuples(st.sampled_from(names), st.sampled_from(positions)).map(
        lambda drawn: (drawn[0],) + drawn[1]
    )
    combo = tuple(draw(st.lists(sites, min_size=1, max_size=4)))
    return protocol, m, names, combo, sites


class TestCanonicalForm:
    """One canonical form per placement: the verdict key and the
    placement that gets classified."""

    @settings(max_examples=120, deadline=None)
    @given(placement_cases(), st.data())
    def test_equivalent_combos_share_one_form(self, case, data):
        protocol, m, names, combo, sites = case
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        receivers = names[1:]
        relabel = dict(zip(receivers, data.draw(st.permutations(receivers))))
        permuted = tuple((relabel.get(name, name), f, i) for name, f, i in combo)
        reordered = tuple(data.draw(st.permutations(combo)))
        pair = data.draw(sites)
        at = data.draw(st.integers(0, len(combo)))
        padded = combo[:at] + (pair, pair) + combo[at:]
        # One slab, and one call per variant: the key does not depend
        # on the slab's width.
        variants = [combo, permuted, reordered, padded]
        key = _row_keys(evaluator._canonical([combo]).codes)[0]
        assert _row_keys(evaluator._canonical(variants).codes) == [key] * 4
        for variant in variants:
            assert _row_keys(evaluator._canonical([variant]).codes) == [key], variant
        base, moved, shuffled, cancelled = verdicts(evaluator.evaluate(
            [combo, permuted, reordered, padded]
        ))
        assert shuffled == base
        assert cancelled == base
        assert moved[1] == base[1]
        index = {name: i for i, name in enumerate(names)}
        for name in names:
            assert moved[0][index[relabel.get(name, name)]] == base[0][index[name]]

    @settings(max_examples=60, deadline=None)
    @given(placement_cases())
    def test_batch_equals_the_engine_classifier(self, case):
        protocol, m, names, combo, _ = case
        batch = BatchReplayEvaluator(protocol, m, names, FRAME)
        engine = EngineClassifier(protocol, m, names, FRAME)
        assert verdicts(batch.evaluate([combo])) == verdicts(engine.evaluate([combo])), combo

    def test_every_placement_counts_once(self):
        names = ("tx", "r1", "r2", "r3")
        sites = universe("majorcan", 3, list(names)) + header_sites(names)
        clear_caches()
        BatchReplayEvaluator("majorcan", 3, names, FRAME).evaluate(
            [(site,) for site in sites[:10]]
        )
        evaluator = BatchReplayEvaluator("majorcan", 3, names, FRAME)
        combos = [(site,) for site in sites[:20]]  # 10 prior cache hits
        combos += [(sites[12],), (sites[12], sites[12], sites[12])]
        combos += [(("r2",) + sites[-1][1:],), (("r3",) + sites[-1][1:],)]
        combos += [(("ghost", EOF, 5),), ()]
        evaluator.evaluate(combos)
        assert sum(evaluator.stats.values()) == len(combos)
        assert evaluator.stats["engine"] == 1  # the unknown node only

    def test_clear_caches_reaches_built_evaluators(self, monkeypatch):
        evaluator = BatchReplayEvaluator("can", 5, ("tx", "r1", "r2"), FRAME)
        fresh = []
        row_verdict = evaluator._row_verdict
        monkeypatch.setattr(
            evaluator,
            "_row_verdict",
            lambda codes: fresh.append(codes) or row_verdict(codes),
        )
        combo = (("r1", EOF, 5),)
        mirror = (("r2", EOF, 5),)  # the same canonical form
        _, codes, _ = evaluator._row_form(combo)
        clear_caches()
        evaluator.evaluate([combo])
        evaluator.evaluate([combo])  # a row-cache hit: no front end at all
        evaluator.evaluate([mirror])  # a canonical hit: nothing to classify
        assert evaluator._verdicts()
        clear_caches()
        assert evaluator._verdicts() == {}
        evaluator.evaluate([combo])
        assert fresh == [codes, codes]

    def test_combo_cache_clears_wholesale_at_its_limit(self, monkeypatch):
        from repro.analysis import batchreplay

        names = ("tx", "r1", "r2")
        tx_sites = [s for s in universe("can", 5, list(names)) if s[0] == "tx"]
        clear_caches()
        monkeypatch.setattr(batchreplay, "_COMBO_CACHE_LIMIT", 4)
        can = BatchReplayEvaluator("can", 5, names, FRAME)
        minor = BatchReplayEvaluator("minorcan", 5, names, FRAME)
        can.evaluate([(site,) for site in tx_sites[:3]])
        minor.evaluate([(tx_sites[0],)])
        cached = lambda: sum(map(len, batchreplay._COMBO_CACHE.values()))  # noqa: E731
        assert cached() == 4
        can.evaluate([(tx_sites[3],)])  # at the limit: cleared first
        assert cached() == 1
        assert list(batchreplay._COMBO_CACHE) == [("can", 5, FRAME, 3)]


def reference_canonical(self, combo):
    """The canonical form of the scalar front end, verbatim: the oracle
    of the array canonicalisation.  ``self`` is a
    :class:`BatchReplayEvaluator` (only its ``_node_index`` is read).

    The canonical form ``(sites, back)`` of ``combo``: ``sites`` are
    sorted ``(node index, field, index)`` triples after parity
    cancellation and receiver relabelling, ``back[j-1]`` the real node
    behind canonical label ``j`` (None for the identity).  Returns
    None when a site names an unknown node.
    """
    odd = set()
    for name, field_name, index in combo:
        node = self._node_index.get(name)
        if node is None:
            return None
        odd ^= {(node, field_name, index)}
    sites = sorted(odd)
    groups = {}
    for node, field_name, index in sites:
        if node:
            groups.setdefault(node, []).append((field_name, index))
    order = sorted(groups, key=lambda node: (groups[node], node))
    if all(node == label for label, node in enumerate(order, 1)):
        return tuple(sites), None
    relabel = {node: label for label, node in enumerate(order, 1)}
    sites = sorted((relabel.get(node, 0), f, i) for node, f, i in sites)
    return tuple(sites), tuple(order)


@st.composite
def slab_cases(draw):
    """A protocol, a 2-7 node network and a slab holding one combo of
    every length 1-6 plus up to four more, drawn with repeats from a
    pool of tail, sampling, inert and header sites, some naming an
    unknown node."""
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    m = draw(st.integers(3, 7))
    n_nodes = draw(st.integers(2, 7))
    names = ["tx"] + ["r%d" % i for i in range(1, n_nodes)]
    positions = [
        (field_name, index)
        for _, field_name, index in universe(protocol, m, ["tx"])
    ] + HEADER_POSITIONS + [(EOF, 99), ("SOF", 3)]
    site = st.tuples(
        st.sampled_from(names * 4 + ["ghost"]), st.sampled_from(positions)
    ).map(lambda drawn: (drawn[0],) + drawn[1])
    pool = draw(st.lists(site, min_size=1, max_size=6))
    combo = lambda size: st.lists(  # noqa: E731
        st.sampled_from(pool), min_size=size, max_size=size
    ).map(tuple)
    combos = [draw(combo(size)) for size in range(1, 7)]
    combos += draw(st.lists(st.integers(1, 6).flatmap(combo), max_size=4))
    return protocol, m, names, draw(st.permutations(combos))


class TestArrayCanonicalForm:
    """The slab canonicalisation against the scalar one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(slab_cases())
    def test_matches_the_reference_canonical_form(self, case):
        protocol, m, names, combos = case
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        slab = evaluator._canonical(combos)
        keys = _row_keys(slab.codes)
        identity = list(range(len(names)))
        reference = [reference_canonical(evaluator, combo) for combo in combos]
        for row, (combo, expected) in enumerate(zip(combos, reference)):
            place = slab.place[row].tolist()
            assert place[0] == 0 and sorted(place) == identity
            assert bool(slab.known[row]) == (expected is not None), combo
            if expected is None:
                assert place == identity
                continue
            sites = _index_sites(slab.codes[row])
            # The same orbit: the representative's reference form is
            # the combo's own.
            assert reference_canonical(evaluator, evaluator._named(sites)) [0] == expected[0]
            # ``place`` undoes the relabelling: back to the combo after
            # parity, exactly as the reference ``back`` does.
            expected_sites, back = expected
            odd = sorted(
                (back[node - 1] if back and node else node, f, i)
                for node, f, i in expected_sites
            )
            real = {label: node for node, label in enumerate(place)}
            assert sorted((real[label], f, i) for label, f, i in sites) == odd
            # One key per reference form, whatever the slab's width.
            (alone,) = _row_keys(evaluator._canonical([combo]).codes)
            assert alone == keys[row]
        for a, b in itertools.combinations(range(len(combos)), 2):
            if reference[a] is not None and reference[b] is not None:
                assert (keys[a] == keys[b]) == (reference[a][0] == reference[b][0])

    @settings(max_examples=40, deadline=None)
    @given(slab_cases())
    def test_one_slab_equals_separate_calls(self, case):
        protocol, m, names, combos = case
        clear_caches()
        together = verdicts(BatchReplayEvaluator(protocol, m, names, FRAME).evaluate(combos))
        clear_caches()
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        apart = [
            outcome for combo in combos for outcome in verdicts(evaluator.evaluate([combo]))
        ]
        assert together == apart
        assert sum(evaluator.stats.values()) == len(combos)


class TestNarrowFrontEnd:
    """The per-placement front end of narrow slabs against the array one."""

    @settings(max_examples=150, deadline=None)
    @given(slab_cases())
    def test_row_form_matches_the_slab_row(self, case):
        protocol, m, names, combos = case
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        slab = evaluator._canonical(combos)
        keys = _row_keys(slab.codes)
        for row, combo in enumerate(combos):
            form = evaluator._row_form(combo)
            assert (form is not None) == bool(slab.known[row]), combo
            if form is not None:
                key, codes, place = form
                assert key == keys[row]
                assert codes == [code for code in slab.codes[row].tolist() if code != _PAD]
                assert place == slab.place[row].tolist()

    @settings(max_examples=40, deadline=None)
    @given(slab_cases())
    def test_row_routing_matches_the_array_routing(self, case):
        protocol, m, names, combos = case
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        slab = evaluator._canonical(combos)
        codes = slab.codes[slab.known]
        rows = [evaluator._row_verdict([c for c in row if c != _PAD]) for row in codes.tolist()]
        assert rows == evaluator._classify(codes)

    def test_silent_header_site_rides_only_with_its_own_node(self):
        evaluator = BatchReplayEvaluator("can", 5, ("tx", "r1", "r2"), FRAME)
        riding = (("r1", EOF, 3), ("r1", "SOF", 3))
        dropped = (("r1", EOF, 3), ("r2", "SOF", 3))
        routes = []
        for combo in (riding, dropped):
            _, codes, _ = evaluator._row_form(combo)
            routes.append(evaluator._row_verdict(codes)[-1])
        assert routes == [HEADER, SCALAR]

    @settings(max_examples=20, deadline=None)
    @given(slab_cases())
    def test_wide_slab_equals_narrow_calls(self, case):
        protocol, m, names, combos = case
        wide = (combos * (_ARRAY_BREAK_EVEN // len(combos) + 1))[:_ARRAY_BREAK_EVEN]
        clear_caches()
        together = verdicts(BatchReplayEvaluator(protocol, m, names, FRAME).evaluate(wide))
        clear_caches()
        evaluator = BatchReplayEvaluator(protocol, m, names, FRAME)
        assert verdicts(evaluator.evaluate(combos)) == together[: len(combos)]
        assert verdicts(evaluator.evaluate(wide[len(combos):])) == together[len(combos):]


class TestHitScan:
    """``verify_chunk`` turns the delivery rule's kinds into hit tuples."""

    #: Every kind: "inconsistent" (counts that differ, none zero, none
    #: above one) needs a negative count, which no classifier produces,
    #: but the rule still names it.
    EVERY_KIND = [[1, 1, 1], [1, 0, 1], [2, 1, 1], [1, -1, 1], [0, 0, 0], [0, 2, 0]]

    def test_every_kind(self):
        kinds = delivery_flags(np.array(self.EVERY_KIND)).kinds()
        assert [KINDS[kind] for kind in kinds] == [
            None, "imo", "double", "inconsistent", None, "imo"
        ]

    @pytest.mark.parametrize("protocol,m", [("can", 5), ("minorcan", 5)])
    @pytest.mark.parametrize("backend", ["engine", "batch"])
    def test_verify_chunk_scan(self, protocol, m, backend):
        names = ("tx", "r1", "r2")
        sites = universe(protocol, m, list(names))
        # Every hit of the 2-flip universe among 40 clean placements.
        pairs = list(itertools.combinations(sites, 2))
        placed = placement_classifier(protocol, m, names, "batch").evaluate(pairs)
        kinds = delivery_flags(placed.deliveries).kinds().tolist()
        hit = [pair for pair, kind in zip(pairs, kinds) if kind]
        clean = [pair for pair, kind in zip(pairs, kinds) if not kind]
        combos = hit + random.Random(31).sample(clean, 40)
        random.Random(32).shuffle(combos)
        combos = tuple(combos)
        engine = EngineClassifier(protocol, m, names, FRAME).evaluate(combos)
        expected = [
            (row, KINDS[kind])
            for row, kind in enumerate(delivery_flags(engine.deliveries).kinds().tolist())
            if kind
        ]
        assert {kind for _, kind in expected} == {"imo", "double"}
        runs, hits, _ = verify_chunk(protocol, m, names, combos, b"\x55", backend)
        assert runs == len(combos)
        assert [(hit[0], hit[3]) for hit in hits] == [
            (combos[row], kind) for row, kind in expected
        ]
        for (combo, deliveries, attempts, _), (row, _) in zip(hits, expected):
            assert deliveries == tuple(sorted(zip(names, engine.deliveries[row].tolist())))
            assert attempts == engine.attempts[row]


class TestWiredEntryPoints:
    """backend="batch" is result-identical at every integration point."""

    def test_verify_consistency_equality(self):
        engine = verify_consistency("can", m=5, n_nodes=3, max_flips=2)
        batch = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch"
        )
        assert engine.runs == batch.runs
        assert [str(c) for c in engine.counterexamples] == [
            str(c) for c in batch.counterexamples
        ]
        assert batch.counterexamples, "the CAN 2-flip universe has IMO hits"

    def test_verify_consistency_equality_majorcan(self):
        engine = verify_consistency("majorcan", m=3, n_nodes=3, max_flips=1)
        batch = verify_consistency(
            "majorcan", m=3, n_nodes=3, max_flips=1, backend="batch"
        )
        assert engine.runs == batch.runs
        assert [str(c) for c in engine.counterexamples] == [
            str(c) for c in batch.counterexamples
        ]

    def test_verify_consistency_batch_parallel_path(self):
        serial = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch"
        )
        parallel = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=2, backend="batch", jobs=2
        )
        assert serial.runs == parallel.runs
        assert [str(c) for c in serial.counterexamples] == [
            str(c) for c in parallel.counterexamples
        ]

    def test_enumerate_equality(self):
        for protocol in ("can", "minorcan", "majorcan"):
            engine = enumerate_tail_patterns(
                protocol, n_nodes=3, window=2, max_flips=2
            )
            batch = enumerate_tail_patterns(
                protocol, n_nodes=3, window=2, max_flips=2, backend="batch"
            )
            assert len(engine.outcomes) == len(batch.outcomes)
            for a, b in zip(engine.outcomes, batch.outcomes):
                assert (
                    a.pattern,
                    a.consistent,
                    a.inconsistent_omission,
                    a.double_reception,
                    a.attempts,
                ) == (
                    b.pattern,
                    b.consistent,
                    b.inconsistent_omission,
                    b.double_reception,
                    b.attempts,
                )
            assert engine.p_inconsistent_omission == pytest.approx(
                batch.p_inconsistent_omission, abs=0.0
            )

    def test_montecarlo_equality(self):
        engine = monte_carlo_tail("can", trials=200, seed=42)
        batch = monte_carlo_tail("can", trials=200, seed=42, backend="batch")
        assert (
            engine.imo,
            engine.double_reception,
            engine.inconsistent,
            engine.no_fault_trials,
            engine.flips_total,
        ) == (
            batch.imo,
            batch.double_reception,
            batch.inconsistent,
            batch.no_fault_trials,
            batch.flips_total,
        )

    def test_montecarlo_batch_jobs_invariant(self):
        serial = monte_carlo_tail(
            "majorcan", trials=150, seed=11, backend="batch"
        )
        parallel = monte_carlo_tail(
            "majorcan", trials=150, seed=11, backend="batch", jobs=2
        )
        assert (serial.imo, serial.inconsistent, serial.flips_total) == (
            parallel.imo,
            parallel.inconsistent,
            parallel.flips_total,
        )

    def test_montecarlo_counts_identical_across_backend_and_jobs(self):
        """The seeded chunked draw is part of the experiment identity.

        The (trials, sites) matrix draw consumes each chunk's PCG64
        stream exactly like the scalar per-trial draws it replaced, so
        every count is bit-identical across backend=engine/batch and
        jobs=1/4 for the same seed.
        """
        results = {
            (backend, jobs): monte_carlo_tail(
                "can", trials=96, seed=20260806, backend=backend, jobs=jobs
            )
            for backend in ("engine", "batch")
            for jobs in (1, 4)
        }
        reference = results[("engine", 1)]
        key = lambda r: (  # noqa: E731
            r.imo,
            r.double_reception,
            r.inconsistent,
            r.no_fault_trials,
            r.flips_total,
        )
        for label, result in results.items():
            assert key(result) == key(reference), label

    def test_montecarlo_backend_stats_surfaced(self):
        batch = monte_carlo_tail("can", trials=64, seed=5, backend="batch")
        engine = monte_carlo_tail("can", trials=64, seed=5)
        assert engine.backend_stats is None
        assert batch.backend_stats is not None
        classified = sum(batch.backend_stats.values())
        assert classified == batch.trials - batch.no_fault_trials

    def test_verify_backend_stats_surfaced(self):
        node_names = ["tx", "r1", "r2"]
        extra = header_sites(node_names, data_bits=8)
        serial = verify_consistency(
            "can",
            m=5,
            n_nodes=3,
            max_flips=1,
            extra_sites=extra,
            backend="batch",
        )
        parallel = verify_consistency(
            "can",
            m=5,
            n_nodes=3,
            max_flips=1,
            extra_sites=extra,
            backend="batch",
            jobs=2,
        )
        engine = verify_consistency(
            "can", m=5, n_nodes=3, max_flips=1, extra_sites=extra
        )
        assert engine.backend_stats is None
        for result in (serial, parallel):
            assert result.backend_stats is not None
            assert sum(result.backend_stats.values()) == result.runs
            assert result.backend_stats["header"] == len(extra)
            assert result.backend_stats["engine"] == 0

    def test_ablation_row_equality(self):
        engine = ablation_row(3, tail_flips=1, check_f1=True)
        batch = ablation_row(3, tail_flips=1, check_f1=True, backend="batch")
        assert replace(engine, backend_stats=None) == replace(
            batch, backend_stats=None
        )
        assert engine.backend_stats is None
        assert batch.backend_stats is not None
        assert batch.backend_stats["engine"] == 0

    def test_verify_chunk_hit_tuples(self):
        node_names = ("tx", "r1", "r2")
        sites = universe("can", 5, list(node_names))
        combos = tuple(itertools.combinations(sites, 2))[::7] + tuple(
            (site,) for site in sites
        )
        engine = verify_chunk("can", 5, node_names, combos, b"\x55", "engine")
        batch = verify_chunk("can", 5, node_names, combos, b"\x55", "batch")
        assert engine[:2] == batch[:2]
        assert engine[0] == len(combos) and engine[1]
        assert engine[2] is None
        assert sum(batch[2].values()) == len(combos)

    def test_unknown_backend_rejected(self):
        with pytest.raises(AnalysisError):
            verify_consistency("can", backend="cuda")
        with pytest.raises(AnalysisError):
            enumerate_tail_patterns("can", backend="cuda")
        with pytest.raises(AnalysisError):
            monte_carlo_tail("can", trials=1, backend="cuda")


class TestPlacementClassifier:
    """The one engine/batch choice of the placement drivers."""

    def test_backends(self):
        names = ("tx", "r1")
        batch = placement_classifier("can", 5, names, "batch")
        engine = placement_classifier("can", 5, names, "engine")
        assert type(batch) is BatchReplayEvaluator
        assert type(engine) is EngineClassifier
        assert engine.stats is None and batch.stats["engine"] == 0
        with pytest.raises(AnalysisError, match="unknown backend"):
            placement_classifier("can", 5, names, "cuda")

    def test_engine_runs_each_combo_as_given(self, monkeypatch):
        import repro.analysis.batchreplay as batchreplay

        calls = []
        run = batchreplay.run_placement

        def counted(protocol, m, node_names, combo, frame):
            calls.append(combo)
            return run(protocol, m, node_names, combo, frame)

        monkeypatch.setattr(batchreplay, "run_placement", counted)
        classifier = placement_classifier("can", 5, ("tx", "r1", "r2"), "engine")
        # A flip of a flip: the batch replay cancels it by parity, the
        # oracle simulates it as written.
        twice = (("r1", "EOF", 5), ("r1", "EOF", 5))
        combos = [twice, (("r2", "EOF", 5),), (("tx", "EOF", 5),)]
        placed = classifier.evaluate(combos)
        assert calls == combos
        assert classifier.stats is None
        assert placed.deliveries.shape == (3, 3)
        assert placed.routes.tolist() == [ENGINE] * 3
        assert verdicts(placed) == [
            engine_oracle("can", 5, ("tx", "r1", "r2"), combo, FRAME) for combo in combos
        ]


def off_engine_geometry(protocol, m):
    """The evaluator's geometry, after checking a tail placement runs
    off the engine under it."""
    evaluator = BatchReplayEvaluator(protocol, m, ["tx", "r1"], FRAME)
    evaluator.evaluate([(("r1", EOF, 0),)])
    assert evaluator.stats["engine"] == 0
    return evaluator.geometry


class TestTailShapeSignalling:
    """The signalling geometry the tail micro-model reads, per protocol."""

    def test_can_tail_shape(self):
        geometry = off_engine_geometry("can", 5)
        assert geometry.delimiter_length == 8
        assert geometry.window_end == 0

    def test_majorcan_tail_shape_tracks_m(self):
        for m in (3, 5, 7):
            node = make_controller("majorcan", "n", m=m)
            geometry = off_engine_geometry("majorcan", m)
            assert geometry.delimiter_length == node.geometry.delimiter_length
            assert geometry.window_end == node.window_end == 3 * m + 5

    def test_majorcan_5_window(self):
        geometry = off_engine_geometry("majorcan", 5)
        assert geometry.window_end == 20
        assert geometry.delimiter_length == 11


class TestStatsHelpers:
    def test_format_stats_line(self):
        from repro.analysis.batchreplay import format_stats

        line = format_stats({"batch": 10, "scalar": 0, "header": 4, "engine": 2})
        assert line == (
            "backend stats: batch=10 scalar=0 header=4 resume=0 engine=2 "
            "(total 16)"
        )
        line = format_stats({"batch": 2, "resume": 1})
        assert line == (
            "backend stats: batch=2 scalar=0 header=0 resume=1 engine=0 "
            "(total 3)"
        )

    def test_engine_share_notice_thresholds(self):
        from repro.analysis.batchreplay import engine_share_notice

        assert engine_share_notice({}) is None
        assert engine_share_notice({"batch": 90, "engine": 10}) is None
        notice = engine_share_notice({"batch": 80, "engine": 20})
        assert notice is not None and "20%" in notice


def _strip_stats(output):
    """Drop the batch-only stats/notice lines for backend comparisons."""
    return "".join(
        line
        for line in output.splitlines(keepends=True)
        if "backend stats:" not in line and "notice:" not in line
    )


class TestCli:
    def test_verify_backend_batch(self, capsys):
        engine_rc = main(["verify", "--protocol", "can", "--flips", "1"])
        engine_out = capsys.readouterr().out
        batch_rc = main(
            ["verify", "--protocol", "can", "--flips", "1", "--backend", "batch"]
        )
        batch_out = capsys.readouterr().out
        assert engine_rc == batch_rc == 1
        assert engine_out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_engine_backend_prints_no_stats(self, capsys):
        main(["verify", "--protocol", "can", "--flips", "1"])
        assert "backend stats:" not in capsys.readouterr().out

    def test_montecarlo_backend_batch(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "--trials",
                    "64",
                    "--seed",
                    "5",
                    "--backend",
                    "batch",
                ]
            )
            == 0
        )
        batch_out = capsys.readouterr().out
        assert main(["montecarlo", "--trials", "64", "--seed", "5"]) == 0
        assert capsys.readouterr().out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_enumerate_backend_batch(self, capsys):
        assert main(["enumerate", "--backend", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert main(["enumerate"]) == 0
        assert capsys.readouterr().out == _strip_stats(batch_out)
        assert "backend stats: batch=" in batch_out

    def test_backend_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["verify", "--backend", "cuda"])
