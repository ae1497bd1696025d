"""The engine's recording and non-recording paths agree while nodes go offline.

The recording path (``record_bits=True``) steps every node through the
public ``drive`` / ``on_bit`` API and consults the injector for every
node on every tick.  The non-recording path calls each node's state
handler straight from its tables, an offline node's tables being its
offline handlers, and consults the injector's views only on its flip
ticks.  Hypothesis draws buses where nodes crash, disconnect (by hand
or at the warning limit), go bus-off with and without the recovery
sequence, under view noise and physical drive faults, and both paths
must produce the same bus, events, deliveries and per-tick positions.
A node may also go offline inside the injector's ``perturb_view``: both
paths then run the handler of the state the view left the node in.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.can.controller_config import ControllerConfig
from repro.can.events import EventKind
from repro.can.frame import data_frame
from repro.core.majorcan import DEFAULT_M
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.faults.injector import CompositeInjector
from repro.faults.scenarios import make_controller
from repro.simulation.engine import FaultInjector, SimulationEngine

NODES = ("n0", "n1", "n2", "n3")
BITS = 2200


class _DriveGlitch(FaultInjector):
    """Flips the level one node drives at the given ticks: a physical
    transmit fault, which sends the engine through its drive-perturbing
    node loop."""

    def __init__(self, node, ticks):
        self.node = node
        self.ticks = frozenset(ticks)

    def perturb_drive(self, node, time, level):
        if node.name == self.node and time in self.ticks:
            return level.flipped()
        return level


class _ViewOffline(FaultInjector):
    """Takes one node offline from inside ``perturb_view`` at one tick,
    before that node's bit phase runs."""

    def __init__(self, tick, node, action):
        self.tick = tick
        self.node = node
        self.action = action

    def perturb_view(self, node, time, bus_level):
        if node.name == self.node and time == self.tick:
            getattr(node, self.action)()
        return bus_level


@st.composite
def buses(draw):
    return {
        "protocol": draw(st.sampled_from(["can", "minorcan", "majorcan"])),
        "fast_path": draw(st.booleans()),
        "disconnect_on_warning": draw(st.booleans()),
        "bus_off_recovery": draw(st.booleans()),
        # A TEC near the bus-off limit reaches bus-off on the first
        # transmit error; one above the warning limit warns at once.
        "tec": tuple(draw(st.sampled_from([0, 100, 250])) for _ in NODES),
        "offline": tuple(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(0, BITS - 1),
                        st.sampled_from(NODES),
                        st.sampled_from(["crash", "disconnect"]),
                    ),
                    max_size=3,
                )
            )
        ),
        "ber": draw(st.sampled_from([0.0, 0.003, 0.02])),
        "noise_seed": draw(st.integers(0, 2**16)),
        "glitch": draw(
            st.none()
            | st.tuples(
                st.sampled_from(NODES),
                st.lists(st.integers(0, 400), min_size=1, max_size=6),
            )
        ),
        "view_offline": draw(
            st.none()
            | st.tuples(
                st.integers(0, 400),
                st.sampled_from(NODES),
                st.sampled_from(["crash", "disconnect"]),
            )
        ),
    }


def _config(case):
    return ControllerConfig(
        fast_path=case["fast_path"],
        disconnect_on_warning=case["disconnect_on_warning"],
        bus_off_recovery=case["bus_off_recovery"],
    )


def run_bus(case, record_bits):
    """Run the drawn bus for ``BITS`` ticks; everything both paths show."""
    config = _config(case)
    nodes = [
        make_controller(case["protocol"], name, m=DEFAULT_M, config=config)
        for name in NODES
    ]
    for index, (node, tec) in enumerate(zip(nodes, case["tec"])):
        node.counters.tec = tec
        for seq in range(2):
            node.submit(data_frame(0x100 + 0x10 * index + seq, bytes([index, seq])))
    injectors = []
    if case["ber"]:
        injectors.append(RandomViewErrorInjector(case["ber"], seed=case["noise_seed"]))
    if case["glitch"] is not None:
        injectors.append(_DriveGlitch(*case["glitch"]))
    if case["view_offline"] is not None:
        injectors.append(_ViewOffline(*case["view_offline"]))
    if len(injectors) > 1:
        injectors = [CompositeInjector(injectors)]
    engine = SimulationEngine(
        nodes, injector=injectors[0] if injectors else None, record_bits=record_bits
    )
    actions = {}
    for tick, name, action in case["offline"]:
        actions.setdefault(tick, []).append((name, action))
    ticks = []

    def hook(time):
        ticks.append(tuple((node.position, node.state) for node in nodes))
        for name, action in actions.get(time, ()):
            getattr(engine.node(name), action)()

    engine.add_tick_hook(hook)
    engine.run(BITS)
    events = engine.collect_events().events
    return {
        "bus": "".join(level.symbol for level in engine.bus.history),
        "events": [(e.time, e.node, e.kind, e.data) for e in events],
        "deliveries": [
            (d.time, d.node, d.attempt, d.wire_key())
            for node in nodes
            for d in node.deliveries
        ],
        "ticks": ticks,
        "offline": [(n.crashed, n.disconnected, n.offline) for n in nodes],
    }


def _case(**overrides):
    case = {
        "protocol": "majorcan",
        "fast_path": True,
        "disconnect_on_warning": False,
        "bus_off_recovery": True,
        "tec": (250, 0, 0, 0),
        "offline": (),
        "ber": 0.0,
        "noise_seed": 0,
        "glitch": ("n0", [30]),
        "view_offline": None,
    }
    case.update(overrides)
    return case


#: Pinned buses: bus-off then recovery under noise; a crash and a
#: disconnection mid-run; a disconnection at the warning limit; a crash
#: inside the view call.
RECOVERY = _case(ber=0.003, noise_seed=4)
CRASH_AND_DISCONNECT = _case(
    protocol="can",
    bus_off_recovery=False,
    tec=(0, 0, 0, 0),
    offline=((60, "n1", "crash"), (140, "n2", "disconnect"), (150, "n2", "crash")),
    ber=0.02,
    noise_seed=9,
    glitch=None,
)
WARNING = _case(protocol="minorcan", disconnect_on_warning=True, tec=(100, 0, 0, 0))
#: n1 crashes inside ``perturb_view`` while it receives the first frame.
VIEW_CRASH = _case(tec=(0, 0, 0, 0), glitch=None, view_offline=(20, "n1", "crash"))


def test_pinned_buses_reach_their_offline_paths():
    kinds = {
        name: {event[2] for event in run_bus(case, record_bits=False)["events"]}
        for name, case in (
            ("recovery", RECOVERY),
            ("crash", CRASH_AND_DISCONNECT),
            ("warning", WARNING),
        )
    }
    assert {EventKind.BUS_OFF, EventKind.BUS_OFF_RECOVERED} <= kinds["recovery"]
    assert {EventKind.CRASHED, EventKind.DISCONNECTED} <= kinds["crash"]
    assert {EventKind.WARNING_RAISED, EventKind.DISCONNECTED} <= kinds["warning"]


@settings(max_examples=30, deadline=None)
@example(RECOVERY)
@example(CRASH_AND_DISCONNECT)
@example(WARNING)
@example(VIEW_CRASH)
@given(buses())
def test_recording_and_fast_steps_agree(case):
    assert run_bus(case, record_bits=False) == run_bus(case, record_bits=True)
