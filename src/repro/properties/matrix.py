"""The property matrix experiment (E-PROP in DESIGN.md).

Runs every protocol — the link-layer variants (CAN, MinorCAN,
MajorCAN) and the FTCS'98 higher-level protocols (EDCAN, RELCAN,
TOTCAN) — through the paper's scenarios and records which Atomic
Broadcast properties each one preserves.  The paper's qualitative
claims become a checkable table:

* standard CAN: double reception (AB3) in Fig. 1b, omission (AB2) in
  Fig. 1c and in the new Fig. 3a scenario, order violations (AB5);
* MinorCAN: fixes Fig. 1, fails Fig. 3;
* MajorCAN: consistent in every scenario with <= m errors;
* EDCAN: keeps Agreement even in Fig. 3 (diffusion), but no total
  order; RELCAN/TOTCAN: recovery armed only by transmitter failure,
  so Fig. 3 defeats them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.faults.scenarios import SCRIPTS, make_controller, run_script
from repro.properties.broadcast import check_atomic_broadcast
from repro.properties.ledger import SystemLedger
from repro.protocols.base import app_ledger, build_protocol_network
from repro.protocols.registry import PROTOCOL_FACTORIES

#: The :data:`~repro.faults.scenarios.SCRIPTS` rows each matrix runs.
CORE_SCENARIOS = ("clean", "fig1a", "fig1b", "fig1c", "fig3")
HLP_SCENARIOS = ("clean", "fig1c", "fig3")


@dataclass
class MatrixCell:
    """Verdicts of one (protocol, scenario) run."""

    protocol: str
    scenario: str
    properties: Dict[str, bool] = field(default_factory=dict)
    deliveries: Dict[str, List] = field(default_factory=dict)

    @property
    def atomic_broadcast(self) -> bool:
        return all(self.properties.values())

    def failed_properties(self) -> List[str]:
        return [name for name, holds in self.properties.items() if not holds]


def _ledger_properties(ledger: SystemLedger) -> Dict[str, bool]:
    return {
        name: result.holds
        for name, result in check_atomic_broadcast(ledger).items()
    }


# ---------------------------------------------------------------------------
# Link-layer protocols
# ---------------------------------------------------------------------------


def run_core_cell(protocol: str, scenario: str, m: int = 5) -> MatrixCell:
    """Run one (link-layer protocol, scenario) cell.

    ``scenario`` names a row of :data:`~repro.faults.scenarios.SCRIPTS`:
    ``fig3`` is the two-disturbance pattern of Fig. 3a/3b, ``clean``
    the same network without faults as a control.
    """
    outcome = run_script(scenario, SCRIPTS[scenario], protocol, m=m)
    ledger = SystemLedger.from_controllers(outcome.engine.nodes)
    return MatrixCell(
        protocol=outcome.protocol,
        scenario=scenario,
        properties=_ledger_properties(ledger),
        deliveries=dict(outcome.deliveries),
    )


def core_matrix(m: int = 5) -> List[MatrixCell]:
    """The full link-layer property matrix."""
    return [
        run_core_cell(protocol, scenario, m=m)
        for protocol in ("can", "minorcan", "majorcan")
        for scenario in CORE_SCENARIOS
    ]


# ---------------------------------------------------------------------------
# Higher-level protocols
# ---------------------------------------------------------------------------

#: The script roles in the higher-level runs, which target the first
#: data frame: ``n0`` transmits the affected message, ``n1`` plays the
#: X set and ``n2`` the Y set.
_HLP_ROLES = {"tx": ["n0"], "x": ["n1"], "y": ["n2"]}


def run_hlp_cell(protocol: str, scenario: str) -> MatrixCell:
    """Run one (higher-level protocol, scenario) cell on four nodes.

    Node ``n3`` broadcasts a second message immediately, which exposes
    total-order violations: a node that missed the first message's
    original transmission may deliver the recovery copy after the
    second message.
    """
    factory = PROTOCOL_FACTORIES[protocol.lower()]
    eof_length = make_controller("can", "probe").config.eof_length
    injector = SCRIPTS[scenario].injector(_HLP_ROLES, eof_length)
    engine, nodes = build_protocol_network(
        factory, 4, engine_kwargs={"injector": injector, "record_bits": False}
    )
    nodes[0].broadcast(b"\xaa")
    nodes[3].broadcast(b"\xbb")
    engine.run(4000)
    engine.run_until_idle(60000)
    ledger = app_ledger(nodes)
    return MatrixCell(
        protocol=factory.name,
        scenario=scenario,
        properties=_ledger_properties(ledger),
        deliveries={node.name: node.delivered_keys for node in nodes},
    )


def hlp_matrix() -> List[MatrixCell]:
    """The full higher-level-protocol property matrix."""
    return [
        run_hlp_cell(protocol, scenario)
        for protocol in ("edcan", "relcan", "totcan")
        for scenario in HLP_SCENARIOS
    ]


def render_matrix(cells: Sequence[MatrixCell]) -> str:
    """Format matrix cells as an aligned text table."""
    if not cells:
        return "(empty matrix)"
    property_names = list(cells[0].properties)
    short = {name: name.split("-")[0] for name in property_names}
    header = "%-10s %-8s " % ("protocol", "scenario") + " ".join(
        "%-5s" % short[name] for name in property_names
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        marks = " ".join(
            "%-5s" % ("ok" if cell.properties[name] else "FAIL")
            for name in property_names
        )
        lines.append("%-10s %-8s %s" % (cell.protocol, cell.scenario, marks))
    return "\n".join(lines)
