"""Differential tests: table-driven fast path vs reference controller.

The fast path (``ControllerConfig(fast_path=True)``, the default) must
be *bit-identical* to the branchy reference state machine in everything
observable: the wired-AND bus stream, the per-bit positions and states,
the event log, the deliveries, and the scenario verdicts — for CAN,
MinorCAN and MajorCAN alike.  This module checks that three ways:

* replaying every golden-corpus scenario under both configurations and
  comparing the full recorded surface;
* a seeded random-fault fuzz sweep (``RandomViewErrorInjector``) with
  competing transmitters, which exercises arbitration loss, error
  flags, overload frames and retransmission under both paths (and the
  sparse noise path of the non-recording engine against the per-node
  path of the recording one);
* feeding :class:`FastFrameParser` and the reference
  :class:`FrameParser` in lockstep over encoded frames.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.can.bits import DOMINANT, Level
from repro.can.controller_config import ControllerConfig
from repro.can.encoding import encode_frame
from repro.can.frame import data_frame, remote_frame
from repro.can.parser import (
    STEP_ACK_DELIM,
    STEP_EOF,
    STEP_OK,
    STEP_STUFF_VIOLATION,
    FastFrameParser,
    FrameParser,
)
from repro.core.majorcan import DEFAULT_M
from repro.faults.bit_errors import BurstViewErrorInjector, RandomViewErrorInjector
from repro.faults.injector import CompositeInjector
from repro.faults.scenarios import make_controller, run_single_frame_scenario
from repro.simulation.engine import SimulationEngine
from repro.tracestore.replay import load_trace

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus"
)
def _scenario_version(path):
    with open(path) as handle:
        return json.loads(handle.readline()).get("version")


#: Single-frame (schema v1) entries only — this differential rebuilds
#: the scenario from the manifest; v2 traffic recordings replay via
#: the traffic engine instead (and the perf harness asserts their
#: fast-vs-reference ledger identity).
CORPUS_FILES = sorted(
    path
    for path in glob.glob(os.path.join(CORPUS_DIR, "*.jsonl"))
    if _scenario_version(path) == 1
)


def build_nodes(node_specs, fast_path: bool):
    """Fresh controllers for ``(name, protocol, m)`` specs."""
    return [
        make_controller(
            protocol,
            name,
            m=m if m is not None else DEFAULT_M,
            config=ControllerConfig(fast_path=fast_path),
        )
        for name, protocol, m in node_specs
    ]


def event_surface(events):
    """Events as comparable tuples (dict equality is order-insensitive)."""
    return [(event.time, event.node, event.kind, event.data) for event in events]


def delivery_surface(nodes):
    return [
        (delivery.time, delivery.node, delivery.attempt, delivery.wire_key())
        for node in nodes
        for delivery in node.deliveries
    ]


def engine_surface(engine, nodes):
    """Everything observable about a finished engine run."""
    trace = engine.collect_events()
    return {
        "bus": "".join(level.symbol for level in engine.bus.history),
        "events": event_surface(trace.events),
        "deliveries": delivery_surface(nodes),
        "bits": [
            (record.time, record.positions, record.states) for record in trace.bits
        ],
        "offline": [node.name for node in nodes if node.offline],
    }


# ---------------------------------------------------------------------------
# Corpus differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_scenarios_identical_fast_vs_reference(path):
    """Every golden scenario behaves identically under both paths."""
    spec = load_trace(path).spec()
    surfaces = {}
    for fast_path in (False, True):
        outcome = run_single_frame_scenario(
            spec.name,
            build_nodes(spec.nodes, fast_path),
            spec.build_injector(),
            frame=spec.frame,
            max_bits=spec.max_bits,
            record_bits=True,
        )
        surfaces[fast_path] = {
            "engine": engine_surface(outcome.engine, outcome.engine.nodes),
            "deliveries": outcome.deliveries,
            "attempts": outcome.attempts,
            "crashed": outcome.crashed,
            "consistent": outcome.consistent,
            "inconsistent_omission": outcome.inconsistent_omission,
        }
    assert surfaces[True] == surfaces[False]


def test_corpus_covers_all_three_protocols():
    """The differential above actually exercised CAN, MinorCAN, MajorCAN."""
    protocols = set()
    for path in CORPUS_FILES:
        for _, protocol, _ in load_trace(path).spec().nodes:
            protocols.add(protocol.lower())
    assert {"can", "minorcan", "majorcan"} <= protocols


# ---------------------------------------------------------------------------
# Seeded random-fault fuzz sweep
# ---------------------------------------------------------------------------


def fuzz_surface(protocol: str, fast_path: bool, seed: int, ber_star: float):
    """Fixed-length run with competing transmitters under random faults.

    Three nodes all submit frames at time zero (standard, extended and
    remote identifiers), so the run contains arbitration contests and —
    thanks to the injected view errors — error flags, overload
    conditions and retransmissions.  A fixed bit budget (rather than
    run-until-idle) keeps the comparison exact even mid-frame.
    """
    nodes = build_nodes(
        [("n0", protocol, DEFAULT_M), ("n1", protocol, DEFAULT_M), ("n2", protocol, DEFAULT_M)],
        fast_path,
    )
    nodes[0].submit(data_frame(0x123, b"\x55\xaa", message_id="a"))
    nodes[0].submit(data_frame(0x7FF, b"", message_id="b"))
    nodes[1].submit(data_frame(0x0ABCDEF, b"\x01\x02\x03\x04", extended=True, message_id="c"))
    nodes[2].submit(remote_frame(0x124, dlc=2))
    injector = RandomViewErrorInjector(ber_star, seed=seed)
    engine = SimulationEngine(nodes, injector=injector, record_bits=False)
    engine.run(2500)
    surface = engine_surface(engine, nodes)
    surface["injected"] = injector.injections
    return surface


@pytest.mark.parametrize("protocol", ["can", "minorcan", "majorcan"])
@pytest.mark.parametrize("seed", [11, 29, 47])
@pytest.mark.parametrize("ber_star", [0.004, 0.03])
def test_fuzz_identical_fast_vs_reference(protocol, seed, ber_star):
    reference = fuzz_surface(protocol, fast_path=False, seed=seed, ber_star=ber_star)
    fast = fuzz_surface(protocol, fast_path=True, seed=seed, ber_star=ber_star)
    assert fast == reference


def noisy_surface(record_bits: bool, seed: int, burst: bool):
    """Fixed-length contended run under view noise on two of four nodes.

    With ``burst`` the noise shares a ``CompositeInjector`` with a
    burst on a third node.
    """
    nodes = build_nodes([("n%d" % i, "majorcan", DEFAULT_M) for i in range(4)], True)
    nodes[0].submit(data_frame(0x123, b"\x55\xaa", message_id="a"))
    nodes[1].submit(data_frame(0x0ABCDEF, b"\x01\x02", extended=True, message_id="b"))
    nodes[3].submit(data_frame(0x200, b"", message_id="c"))
    noise = RandomViewErrorInjector(0.01, seed=seed, only_nodes=["n1", "n3"])
    injector = noise
    if burst:
        injector = CompositeInjector([noise, BurstViewErrorInjector("n2", 300, 4)])
    engine = SimulationEngine(nodes, injector=injector, record_bits=record_bits)
    engine.run(3000)
    return {
        "injections": noise.injections,
        "deliveries": delivery_surface(nodes),
        "bus": "".join(level.symbol for level in engine.bus.history),
    }


@pytest.mark.parametrize("burst", [False, True], ids=["noise", "noise+burst"])
@pytest.mark.parametrize("seed", [5, 17])
def test_sparse_noise_matches_per_node_path(seed, burst):
    """The non-recording engine consults the noise injector only on its
    flip ticks; the recording engine calls it for every node on every
    tick.  Both must see the same flips."""
    per_node = noisy_surface(record_bits=True, seed=seed, burst=burst)
    sparse = noisy_surface(record_bits=False, seed=seed, burst=burst)
    assert per_node["injections"]
    assert sparse == per_node


def test_fuzz_clean_arbitration_identical_and_delivers():
    """Without faults, every submitted frame is delivered on both paths.

    This pins the fast path's lazy receive-parser materialisation after
    a lost arbitration: the losers must still decode and deliver the
    winner's frame, then win a later round with their own.
    """
    surfaces = {}
    for fast_path in (False, True):
        nodes = build_nodes(
            [("n0", "can", None), ("n1", "can", None), ("n2", "can", None)],
            fast_path,
        )
        nodes[0].submit(data_frame(0x300, b"\x11"))
        nodes[1].submit(data_frame(0x100, b"\x22"))  # wins round one
        nodes[2].submit(data_frame(0x200, b"\x33"))
        engine = SimulationEngine(nodes, record_bits=False)
        engine.run_until_idle(max_bits=2000)
        surfaces[fast_path] = engine_surface(engine, nodes)
        kinds = [event[2] for event in surfaces[fast_path]["events"]]
        assert kinds.count("arbitration_lost") >= 3
        for node in nodes:
            assert len(node.deliveries) == 3
    assert surfaces[True] == surfaces[False]


# ---------------------------------------------------------------------------
# Parser lockstep differential
# ---------------------------------------------------------------------------

PARSER_FRAMES = [
    data_frame(0x123, b"\x55"),
    data_frame(0x000, b""),
    data_frame(0x7FF, b"\xff" * 8),
    data_frame(0x1ABCDE0F, b"\x00\x80", extended=True),
    remote_frame(0x124, dlc=4),
    remote_frame(0x0000000, extended=True),
]


@pytest.mark.parametrize("eof_length", [7, 2 * DEFAULT_M])
@pytest.mark.parametrize(
    "frame", PARSER_FRAMES, ids=[repr(f.can_id.value) for f in PARSER_FRAMES]
)
def test_parsers_agree_bit_for_bit(frame, eof_length):
    wire = encode_frame(frame, eof_length=eof_length)
    reference = FrameParser(eof_length=eof_length)
    fast = FastFrameParser(eof_length=eof_length)
    for level in wire.levels:  # both parsers start at SOF
        upcoming_ref = reference.upcoming
        upcoming_fast = (fast.next_field, fast.next_index, fast.next_is_stuff)
        assert upcoming_fast == upcoming_ref
        assert fast.next_position == (upcoming_ref[0], upcoming_ref[1])
        step = reference.feed(level)
        code = fast.feed_code(level)
        assert not step.stuff_violation and not step.form_violation
        assert code in (STEP_OK, STEP_EOF, STEP_ACK_DELIM)
        assert fast.header_complete == reference.header_complete
        assert fast.complete == reference.complete
        assert fast.crc_ok == reference.crc_ok
        if code == STEP_EOF:
            assert fast.last_index == step.index
    assert fast.complete and reference.complete
    assert fast.crc_ok and reference.crc_ok
    assert fast.frame() == reference.frame()


def test_parsers_agree_on_stuff_violation():
    """Six identical bits trip both parsers at the same bit."""
    reference = FrameParser()
    fast = FastFrameParser()
    # SOF plus four dominant ID bits reach the stuff width, so the
    # expected stuff bit is recessive — feeding dominant again is the
    # violation.
    for _ in range(5):
        step = reference.feed(DOMINANT)
        assert not step.stuff_violation
        assert fast.feed_code(DOMINANT) == STEP_OK
    assert reference.upcoming[2] and fast.next_is_stuff
    step = reference.feed(DOMINANT)
    code = fast.feed_code(DOMINANT)
    assert step.stuff_violation and code == STEP_STUFF_VIOLATION
    assert fast.failed


def test_fast_parser_feed_alias():
    """``feed`` mirrors ``feed_code`` for drop-in replay loops."""
    fast = FastFrameParser()
    assert fast.feed(Level.RECESSIVE) == STEP_OK
