"""Deterministic reproductions of every error scenario figure.

Each ``fig*`` builder assembles a small network (a transmitter ``tx``,
an affected receiver set ``x*`` and an unaffected set ``y*``), scripts
the exact per-node view disturbances described in the corresponding
figure of the paper, runs the single-frame simulation to completion and
returns a :class:`ScenarioOutcome` with the consistency verdict.

Scenario map (see DESIGN.md experiment index):

========  ==========================================================
fig1a     error in the last EOF bit — the last-bit rule achieves
          consistency in standard CAN
fig1b     error in the last-but-one EOF bit — double reception
fig1c     fig1b plus a transmitter crash — inconsistent omission
fig2x     the fig1 scenarios under MinorCAN (all become consistent)
fig3a     the paper's new scenario: X rejects, the transmitter's view
          of the error flag is masked — IMO with a correct transmitter
fig3b     the same disturbances defeat MinorCAN (the transmitter's
          reactive overload flag fakes a primary error)
fig5      MajorCAN_5 reaching agreement under five errors
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.controller import CanController, STATE_ERROR_FLAG
from repro.can.controller_config import ControllerConfig
from repro.can.events import EventKind
from repro.can.fields import DATA, EOF, SAMPLING
from repro.can.frame import Frame, data_frame
from repro.core.majorcan import DEFAULT_M, MajorCanController
from repro.core.minorcan import MinorCanController
from repro.errors import ConfigurationError
from repro.faults.injector import CrashFault, ScriptedInjector, Trigger, ViewFault
from repro.simulation.engine import FaultInjector, SimulationEngine
from repro.simulation.trace import Trace

#: Registry of protocol names to controller factories.
PROTOCOLS: Dict[str, Callable[..., CanController]] = {
    "can": CanController,
    "minorcan": MinorCanController,
    "majorcan": MajorCanController,
}


def make_controller(
    protocol: str,
    name: str,
    m: int = DEFAULT_M,
    config: Optional[ControllerConfig] = None,
) -> CanController:
    """Instantiate a controller of the named protocol variant."""
    key = protocol.lower()
    if key not in PROTOCOLS:
        raise ConfigurationError(
            "unknown protocol %r (choose from %s)" % (protocol, sorted(PROTOCOLS))
        )
    if key == "majorcan":
        return MajorCanController(name, m=m, config=config)
    return PROTOCOLS[key](name, config=config)


@dataclass
class ScenarioOutcome:
    """Result of one deterministic scenario run."""

    name: str
    protocol: str
    deliveries: Dict[str, int]
    crashed: List[str]
    attempts: int
    errors_injected: int
    trace: Trace
    engine: SimulationEngine = field(repr=False, default=None)
    #: The frame the scenario transmitted (the trace store serializes
    #: it into recording manifests so the scenario can be rebuilt).
    frame: Optional[Frame] = None

    @property
    def live_nodes(self) -> List[str]:
        """Nodes that did not crash during the scenario."""
        return [name for name in self.deliveries if name not in self.crashed]

    @property
    def consistent(self) -> bool:
        """All live nodes delivered the message the same number of times."""
        counts = {self.deliveries[name] for name in self.live_nodes}
        return len(counts) <= 1

    @property
    def inconsistent_omission(self) -> bool:
        """Some live node delivered the message while another never did."""
        counts = [self.deliveries[name] for name in self.live_nodes]
        return any(count == 0 for count in counts) and any(
            count > 0 for count in counts
        )

    @property
    def double_reception(self) -> bool:
        """Some node delivered the same message more than once."""
        return any(count > 1 for count in self.deliveries.values())

    @property
    def all_delivered_once(self) -> bool:
        """Every live node delivered the message exactly once."""
        return all(self.deliveries[name] == 1 for name in self.live_nodes)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verdict = "CONSISTENT" if self.consistent else "INCONSISTENT"
        tags = []
        if self.inconsistent_omission:
            tags.append("IMO")
        if self.double_reception:
            tags.append("double-reception")
        return "%s/%s: %s %s deliveries=%s attempts=%d" % (
            self.name,
            self.protocol,
            verdict,
            ",".join(tags) or "-",
            self.deliveries,
            self.attempts,
        )


def run_single_frame_scenario(
    name: str,
    nodes: Sequence[CanController],
    injector: "FaultInjector",
    frame: Optional[Frame] = None,
    max_bits: int = 20000,
    record_bits: bool = True,
) -> ScenarioOutcome:
    """Drive one frame through ``nodes`` under ``injector`` and summarise.

    The first node is the transmitter.  The delivery count per node is
    the number of times the frame's wire identity was delivered.
    """
    transmitter = nodes[0]
    if frame is None:
        frame = data_frame(0x123, b"\x55", message_id="m")
    transmitter.submit(frame)
    engine = SimulationEngine(nodes, injector=injector, record_bits=record_bits)
    engine.run_until_idle(max_bits)
    trace = engine.collect_events()
    key = (frame.can_id.value, frame.can_id.extended, frame.remote, frame.dlc, frame.data)
    deliveries = {
        node.name: sum(1 for d in node.deliveries if d.wire_key() == key)
        for node in nodes
    }
    attempts = max(
        (event.data.get("attempt", 0) for event in trace.events
         if event.kind == EventKind.TX_START),
        default=0,
    )
    injected = getattr(injector, "total_fired", None)
    if injected is None:
        injected = getattr(injector, "injected", 0)
    return ScenarioOutcome(
        name=name,
        protocol=type(transmitter).protocol_name,
        deliveries=deliveries,
        crashed=[node.name for node in nodes if node.crashed],
        attempts=attempts,
        errors_injected=injected,
        trace=trace,
        engine=engine,
        frame=frame,
    )


def run_placement(
    protocol: str,
    m: int,
    node_names: Sequence[str],
    combo: Sequence[Tuple[str, str, int]],
    frame: Frame,
) -> ScenarioOutcome:
    """One engine run of ``frame`` under a flip placement.

    Builds one ``protocol`` controller per name (the first transmits)
    and one flip per ``(node, field, index)`` site of ``combo``.  Each
    scripted fault fires once, so a frame with k flips settles within
    k + 1 attempts and the bit bound never binds.
    """
    nodes = [make_controller(protocol, name, m=m) for name in node_names]
    faults = [
        ViewFault(name, Trigger(field=field_name, index=index), force=None)
        for name, field_name, index in combo
    ]
    return run_single_frame_scenario(
        "placement",
        nodes,
        ScriptedInjector(view_faults=faults),
        frame=frame,
        record_bits=False,
        max_bits=60000,
    )


def _network(
    protocol: str,
    m: int,
    x_count: int = 1,
    y_count: int = 1,
) -> Tuple[CanController, List[CanController], List[CanController]]:
    transmitter = make_controller(protocol, "tx", m=m)
    x_set = [
        make_controller(protocol, "x%d" % i if x_count > 1 else "x", m=m)
        for i in range(1, x_count + 1)
    ]
    y_set = [
        make_controller(protocol, "y%d" % i if y_count > 1 else "y", m=m)
        for i in range(1, y_count + 1)
    ]
    return transmitter, x_set, y_set


# ---------------------------------------------------------------------------
# Figure 1 (and, with protocol="minorcan", Figure 2)
# ---------------------------------------------------------------------------


def fig1a(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1a: the X set sees a dominant level in the last EOF bit.

    In standard CAN the last-bit rule makes X accept the frame and send
    an overload flag; everyone delivers exactly once.
    """
    transmitter, x_set, y_set = _network(protocol, m, x_count, y_count)
    eof_last = transmitter.config.eof_length - 1
    faults = [
        ViewFault(node.name, Trigger(field=EOF, index=eof_last), force=DOMINANT)
        for node in x_set
    ]
    return run_single_frame_scenario(
        "fig1a", [transmitter] + x_set + y_set, ScriptedInjector(view_faults=faults)
    )


def fig1b(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1b: the X set sees a dominant level in the last-but-one EOF bit.

    X rejects and flags; the transmitter retransmits; the Y set is
    obliged to accept by the last-bit rule and receives the frame twice
    (double reception) in standard CAN.
    """
    transmitter, x_set, y_set = _network(protocol, m, x_count, y_count)
    eof_last = transmitter.config.eof_length - 1
    faults = [
        ViewFault(node.name, Trigger(field=EOF, index=eof_last - 1), force=DOMINANT)
        for node in x_set
    ]
    return run_single_frame_scenario(
        "fig1b", [transmitter] + x_set + y_set, ScriptedInjector(view_faults=faults)
    )


def fig1c(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1c: as Fig. 1b, but the transmitter crashes before it can
    retransmit — the inconsistent message omission of Rufino et al."""
    transmitter, x_set, y_set = _network(protocol, m, x_count, y_count)
    eof_last = transmitter.config.eof_length - 1
    faults = [
        ViewFault(node.name, Trigger(field=EOF, index=eof_last - 1), force=DOMINANT)
        for node in x_set
    ]
    crash = CrashFault("tx", Trigger(state=STATE_ERROR_FLAG))
    return run_single_frame_scenario(
        "fig1c",
        [transmitter] + x_set + y_set,
        ScriptedInjector(view_faults=faults, crash_faults=[crash]),
    )


# ---------------------------------------------------------------------------
# Figure 3: the paper's new scenarios
# ---------------------------------------------------------------------------


def fig3(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 3a/3b: the new inconsistency scenario.

    The X set sees a dominant level in the last-but-one EOF bit and
    rejects; an additional single-bit disturbance masks the first bit
    of X's error flag from the transmitter, which therefore considers
    the frame correctly transmitted.  The Y set accepts via the
    last-bit rule (standard CAN) or via a faked primary-error
    indication (MinorCAN).  Result: an inconsistent message omission
    with a *correct* transmitter.
    """
    transmitter, x_set, y_set = _network(protocol, m, x_count, y_count)
    eof_last = transmitter.config.eof_length - 1
    faults = [
        ViewFault(node.name, Trigger(field=EOF, index=eof_last - 1), force=DOMINANT)
        for node in x_set
    ]
    faults.append(
        ViewFault("tx", Trigger(field=EOF, index=eof_last), force=RECESSIVE)
    )
    name = "fig3b" if protocol.lower() == "minorcan" else "fig3a"
    return run_single_frame_scenario(
        name, [transmitter] + x_set + y_set, ScriptedInjector(view_faults=faults)
    )


def fig3a(m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 3a: the new scenario under standard CAN."""
    return fig3("can", m=m, x_count=x_count, y_count=y_count)


def fig3b(m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 3b: the new scenario under MinorCAN."""
    return fig3("minorcan", m=m, x_count=x_count, y_count=y_count)


# ---------------------------------------------------------------------------
# Figure 5: MajorCAN_m agreement under m errors
# ---------------------------------------------------------------------------


def fig5(m: int = DEFAULT_M, protocol: str = "majorcan") -> ScenarioOutcome:
    """Fig. 5: MajorCAN_5 consistency in front of five errors.

    * the X set detects a dominant bit in the 3rd EOF bit (1 error);
    * the Y set detects X's error flag in the 4th bit (no extra error);
    * two disturbances mask the flag from the transmitter until the
      6th bit — the second sub-field — so it accepts and answers with
      an extended error flag (2 errors);
    * two further disturbances corrupt samples of the Y set inside the
      sampling window; the majority vote still accepts (2 errors).
    """
    transmitter, x_set, y_set = _network(protocol, m, 1, 1)
    window_start = m + 7
    faults = [
        ViewFault("x", Trigger(field=EOF, index=2), force=DOMINANT),
        ViewFault("tx", Trigger(field=EOF, index=3), force=RECESSIVE),
        ViewFault("tx", Trigger(field=EOF, index=4), force=RECESSIVE),
        ViewFault("y", Trigger(field=SAMPLING, index=window_start), force=RECESSIVE),
        ViewFault("y", Trigger(field=SAMPLING, index=window_start + 1), force=RECESSIVE),
    ]
    return run_single_frame_scenario(
        "fig5", [transmitter] + x_set + y_set, ScriptedInjector(view_faults=faults)
    )


# ---------------------------------------------------------------------------
# Figure 4: per-bit behaviour probe of a MajorCAN node
# ---------------------------------------------------------------------------


@dataclass
class BehaviourRow:
    """One row of the Fig. 4 behaviour table."""

    case: str
    flag: str
    sampling: bool
    verdict: str

    def render(self) -> str:
        sampling = "sampling is performed" if self.sampling else "no sampling"
        return "%-14s %-20s %-22s frame is %s" % (
            self.case,
            self.flag,
            sampling,
            self.verdict,
        )


def fig4_behaviour(m: int = DEFAULT_M) -> List[BehaviourRow]:
    """Regenerate the Fig. 4 table: the behaviour of a MajorCAN_m node
    for a CRC error and for an error in each of the 2m EOF bits."""
    rows: List[BehaviourRow] = [_fig4_case_crc(m)]
    for eof_index in range(2 * m):
        rows.append(_fig4_case_eof(m, eof_index))
    return rows


def _fig4_probe(m: int, faults: List[ViewFault], case: str) -> BehaviourRow:
    transmitter, x_set, y_set = _network("majorcan", m, 1, 1)
    outcome = run_single_frame_scenario(
        case, [transmitter] + x_set + y_set, ScriptedInjector(view_faults=faults)
    )
    probe = outcome.engine.node("x")
    extended = any(
        event.kind == EventKind.EXTENDED_FLAG_START for event in probe.events
    )
    verdicts = [
        event for event in probe.events if event.kind == EventKind.SAMPLING_VERDICT
    ]
    # The verdict on the *first* frame instance: an extended flag means
    # unconditional acceptance; a sampling node follows its majority
    # vote; otherwise (the CRC-error class) the frame is rejected.
    if extended:
        accepted = True
    elif verdicts:
        accepted = bool(verdicts[0].data.get("accept"))
    else:
        accepted = False
    return BehaviourRow(
        case=case,
        flag="extended error flag" if extended else "6-bit error flag",
        sampling=bool(verdicts),
        verdict="accepted" if accepted else "rejected",
    )


def _fig4_case_crc(m: int) -> BehaviourRow:
    # Corrupt one DATA bit of x's view: with the alternating 0x55
    # payload no stuff bits are involved, so the error is a pure CRC
    # mismatch at x, whose error flag starts at the first EOF bit.
    faults = [ViewFault("x", Trigger(field=DATA, index=3))]
    return _fig4_probe(m, faults, "CRC error")


def _fig4_case_eof(m: int, eof_index: int) -> BehaviourRow:
    faults = [ViewFault("x", Trigger(field=EOF, index=eof_index), force=DOMINANT)]
    return _fig4_probe(m, faults, "Error in EOF bit %d" % (eof_index + 1))


#: Name -> builder registry used by the CLI and the benchmarks.
SCENARIOS: Dict[str, Callable[..., ScenarioOutcome]] = {
    "fig1a": fig1a,
    "fig1b": fig1b,
    "fig1c": fig1c,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig5": fig5,
}
