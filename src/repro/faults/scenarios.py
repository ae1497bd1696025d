"""Deterministic reproductions of every error scenario figure.

Each figure's disturbance pattern is written once, as a row of
:data:`SCRIPTS`: per-node view disturbances over three roles — the
transmitter ``tx``, every node of the affected receiver set X and every
node of the unaffected set Y — plus an optional crash.
:func:`run_script` resolves a script against a fresh network (``tx``,
``x``/``x1..``, ``y``/``y1..``), runs the single frame to completion
and returns a :class:`ScenarioOutcome` with the consistency verdict.
The figure builders, the property matrices, the campaign rounds and
the golden corpus map the same rows onto their own nodes.

Script map (see DESIGN.md experiment index):

=====  ==============================================================
clean  no disturbance (the matrix's control run)
fig1a  error in the last EOF bit — the last-bit rule achieves
       consistency in standard CAN
fig1b  error in the last-but-one EOF bit — double reception
fig1c  fig1b plus a transmitter crash — inconsistent omission
       (fig1a-c under MinorCAN are the paper's Fig. 2)
fig3   the paper's new scenario: X rejects, the transmitter's view of
       the error flag is masked — IMO with a correct transmitter;
       Fig. 3a under standard CAN, Fig. 3b under MinorCAN (the
       transmitter's reactive overload flag fakes a primary error)
fig5   MajorCAN_5 reaching agreement under five errors
=====  ==============================================================

Fig. 4's per-bit probes run the one-disturbance EOF script
:func:`x_eof_error` at every EOF bit, plus a CRC error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.can.bits import DOMINANT, RECESSIVE, Level
from repro.can.controller import CanController, STATE_ERROR_FLAG
from repro.can.controller_config import ControllerConfig
from repro.can.events import EventKind
from repro.can.fields import DATA, EOF, SAMPLING
from repro.can.frame import Frame, data_frame
from repro.can.geometry import frame_end
from repro.core.majorcan import DEFAULT_M, MajorCanController
from repro.core.minorcan import MinorCanController
from repro.faults.injector import CrashFault, ScriptedInjector, Trigger, ViewFault
from repro.properties.ledger import DeliveryFlags, delivery_flags
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
    """Instantiate a controller of the named protocol variant (any
    letter case; :func:`repro.can.geometry.frame_end` checks the name)."""
    key = frame_end(protocol, m).protocol
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
    def flags(self) -> DeliveryFlags:
        """The delivery rule over the live nodes, except ``double``,
        which reads every node (a crashed node's second delivery still
        happened)."""
        live = delivery_flags([[self.deliveries[name] for name in self.live_nodes]])
        every = delivery_flags([list(self.deliveries.values())])
        return live._replace(double=every.double)

    @property
    def consistent(self) -> bool:
        """All live nodes delivered the message the same number of times."""
        return not self.flags.split[0]

    @property
    def inconsistent_omission(self) -> bool:
        """Some live node delivered the message while another never did."""
        return bool(self.flags.imo[0])

    @property
    def double_reception(self) -> bool:
        """Some node delivered the same message more than once."""
        return bool(self.flags.double[0])

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
    injector: Optional[FaultInjector],
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
    key = frame.wire_key()
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


# ---------------------------------------------------------------------------
# The disturbance scripts
# ---------------------------------------------------------------------------

#: One disturbance of a script: ``(role, field, index, force)``.  EOF
#: indexes count from the start of the frame's EOF, negative ones from
#: its end (-1 is the last bit); SAMPLING indexes count from the first
#: bit of the MajorCAN sampling window.  ``force=None`` flips the level
#: the node observes.
View = Tuple[str, str, int, Optional[Level]]


@dataclass(frozen=True)
class Script:
    """One disturbance pattern over the roles ``tx`` (the transmitter),
    ``x`` (every X-set node) and ``y`` (every Y-set node)."""

    views: Tuple[View, ...] = ()
    #: Role whose nodes crash as soon as they start an error flag.
    crash: Optional[str] = None

    def resolve(
        self,
        roles: Mapping[str, Sequence[str]],
        eof_length: int,
        window_start: int = 0,
    ) -> List[Tuple[str, str, int, Optional[Level]]]:
        """The views as ``(node, field, index, force)`` over ``roles``
        (role -> node names), their indexes made absolute against an
        ``eof_length``-bit EOF and a sampling window whose first bit is
        ``window_start``."""
        resolved = []
        for role, field_name, index, force in self.views:
            if field_name == EOF and index < 0:
                index += eof_length
            elif field_name == SAMPLING:
                index += window_start
            resolved.extend((node, field_name, index, force) for node in roles[role])
        return resolved

    def injector(
        self,
        roles: Mapping[str, Sequence[str]],
        eof_length: int,
        window_start: int = 0,
    ) -> ScriptedInjector:
        """A fresh injector playing the script on the nodes of ``roles``."""
        return ScriptedInjector(
            view_faults=[
                ViewFault(node, Trigger(field=field_name, index=index), force=force)
                for node, field_name, index, force in self.resolve(
                    roles, eof_length, window_start
                )
            ],
            crash_faults=[
                CrashFault(node, Trigger(state=STATE_ERROR_FLAG))
                for node in (roles[self.crash] if self.crash else ())
            ],
        )


def x_eof_error(index: int) -> Script:
    """The X set sees a dominant level in EOF bit ``index``."""
    return Script(views=(("x", EOF, index, DOMINANT),))


#: Fig. 4's CRC-error probe: one flipped DATA bit in x's view.  With
#: the alternating 0x55 payload no stuff bits are involved, so the
#: error is a pure CRC mismatch at x, whose error flag starts at the
#: first EOF bit.
_CRC_ERROR = Script(views=(("x", DATA, 3, None),))

#: Scenario name -> its disturbance script (see the module docstring).
SCRIPTS: Dict[str, Script] = {
    "clean": Script(),
    "fig1a": x_eof_error(-1),
    "fig1b": x_eof_error(-2),
    "fig1c": replace(x_eof_error(-2), crash="tx"),
    # X sees a dominant last-but-one EOF bit and rejects; the
    # transmitter's view of the first bit of X's error flag is masked.
    "fig3": Script(views=(("x", EOF, -2, DOMINANT), ("tx", EOF, -1, RECESSIVE))),
    "fig5": Script(
        views=(
            ("x", EOF, 2, DOMINANT),
            ("tx", EOF, 3, RECESSIVE),
            ("tx", EOF, 4, RECESSIVE),
            ("y", SAMPLING, 0, RECESSIVE),
            ("y", SAMPLING, 1, RECESSIVE),
        )
    ),
}


def _role_names(role: str, count: int) -> List[str]:
    if count == 1:
        return [role]
    return ["%s%d" % (role, i) for i in range(1, count + 1)]


def run_script(
    name: str,
    script: Script,
    protocol: str = "can",
    m: int = DEFAULT_M,
    x_count: int = 1,
    y_count: int = 1,
) -> ScenarioOutcome:
    """Run ``script`` under ``protocol`` on a fresh network of ``tx``,
    ``x_count`` X-set and ``y_count`` Y-set nodes (``x``/``y`` alone,
    else ``x1``, ...); the outcome is named ``name``."""
    roles = {
        "tx": ["tx"],
        "x": _role_names("x", x_count),
        "y": _role_names("y", y_count),
    }
    nodes = [
        make_controller(protocol, node, m=m) for names in roles.values() for node in names
    ]
    # SAMPLING sites count from MajorCAN_m's first sampled bit whatever
    # the protocol, so a script is one injector; only MajorCAN nodes
    # announce them, so under the other protocols they never fire.
    sampled = any(field_name == SAMPLING for _, field_name, _, _ in script.views)
    window_start = frame_end("majorcan", m).window_start if sampled else 0
    injector = script.injector(roles, nodes[0].geometry.eof_length, window_start)
    return run_single_frame_scenario(name, nodes, injector)


# ---------------------------------------------------------------------------
# Figure 1 (and, with protocol="minorcan", Figure 2)
# ---------------------------------------------------------------------------


def fig1a(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1a: the X set sees a dominant level in the last EOF bit.

    In standard CAN the last-bit rule makes X accept the frame and send
    an overload flag; everyone delivers exactly once.
    """
    return run_script("fig1a", SCRIPTS["fig1a"], protocol, m, x_count, y_count)


def fig1b(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1b: the X set sees a dominant level in the last-but-one EOF bit.

    X rejects and flags; the transmitter retransmits; the Y set is
    obliged to accept by the last-bit rule and receives the frame twice
    (double reception) in standard CAN.
    """
    return run_script("fig1b", SCRIPTS["fig1b"], protocol, m, x_count, y_count)


def fig1c(protocol: str = "can", m: int = DEFAULT_M, x_count: int = 1, y_count: int = 1) -> ScenarioOutcome:
    """Fig. 1c: as Fig. 1b, but the transmitter crashes before it can
    retransmit — the inconsistent message omission of Rufino et al."""
    return run_script("fig1c", SCRIPTS["fig1c"], protocol, m, x_count, y_count)


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
    name = "fig3b" if protocol.lower() == "minorcan" else "fig3a"
    return run_script(name, SCRIPTS["fig3"], protocol, m, x_count, y_count)


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
    return run_script("fig5", SCRIPTS["fig5"], protocol, m)


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


def fig4_behaviour(m: int = DEFAULT_M) -> List[BehaviourRow]:
    """Regenerate the Fig. 4 table: the behaviour of a MajorCAN_m node
    for a CRC error and for an error in each of the 2m EOF bits."""
    return [_fig4_probe(m, _CRC_ERROR, "CRC error")] + [
        _fig4_probe(m, x_eof_error(eof_index), "Error in EOF bit %d" % (eof_index + 1))
        for eof_index in range(frame_end("majorcan", m).eof_length)
    ]


def render_behaviour(rows: Sequence[BehaviourRow]) -> List[str]:
    """The Fig. 4 table as text lines, the case column as wide as its
    widest label so every row's columns line up."""
    width = max(len(row.case) for row in rows)
    return [
        "%-*s %-20s %-22s frame is %s"
        % (
            width,
            row.case,
            row.flag,
            "sampling is performed" if row.sampling else "no sampling",
            row.verdict,
        )
        for row in rows
    ]


def _fig4_probe(m: int, script: Script, case: str) -> BehaviourRow:
    outcome = run_script(case, script, "majorcan", m)
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


def _fixed_protocol(builder: Callable[..., ScenarioOutcome]) -> Callable[..., ScenarioOutcome]:
    """``builder``, which runs under its figure's own protocol, as a
    registry entry: the entry ignores the protocol it is passed."""

    def entry(protocol: str = "can", m: int = DEFAULT_M) -> ScenarioOutcome:
        return builder(m=m)

    return entry


#: Name -> builder registry used by the CLI and the benchmarks; every
#: entry is called as ``(protocol, m=...)``.  ``fig3a``, ``fig3b`` and
#: ``fig5`` run under their figure's protocol whatever protocol is
#: passed, as ``record fig3a --protocol minorcan`` records Fig. 3a.
SCENARIOS: Dict[str, Callable[..., ScenarioOutcome]] = {
    "fig1a": fig1a,
    "fig1b": fig1b,
    "fig1c": fig1c,
    "fig3": fig3,
    "fig3a": _fixed_protocol(fig3a),
    "fig3b": _fixed_protocol(fig3b),
    "fig5": _fixed_protocol(fig5),
}
