"""The bit-synchronous simulation engine.

The engine advances all attached controllers in lockstep, one bus bit
time per step, following the model in DESIGN.md:

1. every controller announces the level it drives (and its
   frame-relative position);
2. the fault injector may perturb driven levels (physical transmit
   faults);
3. the bus resolves the wired-AND level;
4. the fault injector may perturb *each node's view* of the bus level
   — this is the paper's error model, in which a bit error affects "a
   node's particular view of the bit" with probability
   ``ber* = ber / N``.  The injector announces the next tick at which
   it might change a view (:attr:`FaultInjector.next_view_tick`); on
   the non-recording path every earlier tick hands the bus level to
   every node without consulting it;
5. every controller consumes its view and steps its state machine;
6. application-layer hooks run (timeouts of the higher-level
   protocols).
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.can.bits import DOMINANT, RECESSIVE, Level
from repro.can.controller import CanController, STATE_IDLE
from repro.errors import SimulationError
from repro.simulation.bus import Bus
from repro.simulation.trace import BitRecord, Trace

#: ``next_view_tick`` of an injector that never changes a view.
NEVER = sys.maxsize

#: ``next_view_tick`` of an injector that must see every view: always
#: tick 0, and assignments (an inherited ``__init__`` keeping its own
#: lookahead) are ignored.
_EVERY_TICK = property(lambda self: 0, lambda self, value: None)


class FaultInjector:
    """Base (no-op) fault injector; see :mod:`repro.faults` for real ones.

    Subclasses override :meth:`perturb_drive` and/or :meth:`perturb_view`.
    Both receive the controller object, so injectors can trigger on the
    node's announced frame position (``controller.position``).

    ``next_view_tick`` is the earliest tick at which :meth:`perturb_view`
    might return something other than the bus level.  The engine skips
    the per-node view calls on every earlier tick, so an injector that
    knows its flips in advance keeps it current; a subclass that
    overrides :meth:`perturb_view` without defining ``next_view_tick``
    is consulted on every tick.
    """

    next_view_tick = NEVER

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "perturb_view" in cls.__dict__ and "next_view_tick" not in cls.__dict__:
            cls.next_view_tick = _EVERY_TICK

    def bind(self, nodes: Sequence[CanController]) -> None:
        """Learn the engine's nodes, in the order it steps them.

        Called when the injector is installed on an engine and whenever
        a node is attached.
        """

    def perturb_drive(self, node: CanController, time: int, level: Level) -> Level:
        """Physical-layer fault on the level ``node`` drives at ``time``."""
        return level

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        """Fault on the level ``node`` observes at ``time``."""
        return bus_level

    def on_bit_start(self, time: int, nodes: Sequence[CanController]) -> None:
        """Hook called once per bit time before any perturbation."""


class SimulationEngine:
    """Lockstep simulator for a set of CAN-family controllers."""

    def __init__(
        self,
        nodes: Optional[Sequence[CanController]] = None,
        injector: Optional[FaultInjector] = None,
        record_bits: bool = True,
    ) -> None:
        self.nodes: List[CanController] = list(nodes or [])
        self.bus = Bus()
        self.trace = Trace(record_bits=record_bits)
        self.time = 0
        self._tick_hooks: List[Callable[[int], None]] = []
        self._nodes_by_name: Dict[str, CanController] = {}
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise SimulationError("node names must be unique: %r" % names)
        self._nodes_by_name = {node.name: node for node in self.nodes}
        self.injector = injector or FaultInjector()

    @property
    def injector(self) -> FaultInjector:
        """The installed fault injector; assigning one binds it to the nodes."""
        return self._injector

    @injector.setter
    def injector(self, injector: FaultInjector) -> None:
        self._injector = injector
        injector_type = type(injector)
        self._injector_drives = (
            injector_type.perturb_drive is not FaultInjector.perturb_drive
        )
        self._injector_bit_start = (
            injector_type.on_bit_start is not FaultInjector.on_bit_start
        )
        injector.bind(self.nodes)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def attach(self, node: CanController) -> CanController:
        """Attach another controller to the bus."""
        if len(self._nodes_by_name) != len(self.nodes):
            self._nodes_by_name = {n.name: n for n in self.nodes}
        if node.name in self._nodes_by_name:
            raise SimulationError("duplicate node name %r" % node.name)
        self.nodes.append(node)
        self._nodes_by_name[node.name] = node
        self._injector.bind(self.nodes)
        return node

    def node(self, name: str) -> CanController:
        """Look up an attached controller by name (O(1) via an index)."""
        if len(self._nodes_by_name) != len(self.nodes):
            # self.nodes was mutated directly; rebuild the index.
            self._nodes_by_name = {n.name: n for n in self.nodes}
        try:
            return self._nodes_by_name[name]
        except KeyError:
            raise SimulationError("no node named %r" % name)

    def add_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callable invoked after every simulated bit time.

        Higher-level protocol layers use tick hooks for their timeout
        logic; the hook receives the bit time that just completed.
        """
        self._tick_hooks.append(hook)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self) -> Level:
        """Advance the simulation by one bus bit time."""
        return self._stepper()()

    def _stepper(self) -> Callable[[], Level]:
        """The step function of this engine's path; raises on an empty bus."""
        if not self.nodes:
            raise SimulationError("cannot simulate an empty bus")
        return self._step_recording if self.trace.record_bits else self._step_fast

    def _step_recording(self) -> Level:
        """One bit time through the public controller API, recorded."""
        time = self.time
        injector = self._injector
        injector.on_bit_start(time, self.nodes)
        drives: Dict[str, Level] = {}
        for node in self.nodes:
            node.now = time
            driven = node.drive()
            drives[node.name] = injector.perturb_drive(node, time, driven)
        bus_level = self.bus.resolve(drives)
        views: Dict[str, Level] = {}
        positions = {node.name: node.position for node in self.nodes}
        states = {node.name: node.state for node in self.nodes}
        for node in self.nodes:
            view = injector.perturb_view(node, time, bus_level)
            views[node.name] = view
            node.on_bit(view)
        self.trace.record(
            BitRecord(
                time=time,
                bus=bus_level,
                drives=drives,
                views=views,
                positions=positions,
                states=states,
            )
        )
        if self._tick_hooks:
            for hook in self._tick_hooks:
                hook(time)
        self.time += 1
        return bus_level

    def _step_fast(self) -> Level:
        """One bit time without per-bit dict/record construction.

        Semantically identical to the recording path — same perturb and
        bit-phase call order per node — but each bit phase is one call
        of the node's handler for its state (an offline node's tables
        hold its offline handlers), and the step skips the ``drives`` /
        ``views`` / ``positions`` / ``states`` dicts and the
        :class:`BitRecord`, injector calls the injector never overrode,
        and the per-node view calls before its ``next_view_tick``.
        """
        nodes = self.nodes
        injector = self._injector
        time = self.time
        if self._injector_bit_start:
            injector.on_bit_start(time, nodes)
        level = RECESSIVE
        if self._injector_drives:
            for node in nodes:
                node.now = time
                driven = node._drive_handlers[node._state](node)
                if injector.perturb_drive(node, time, driven) is DOMINANT:
                    level = DOMINANT
        else:
            for node in nodes:
                node.now = time
                if node._drive_handlers[node._state](node) is DOMINANT:
                    level = DOMINANT
        self.bus.history.append(level)
        if time >= injector.next_view_tick:
            for node in nodes:
                # The view first: the handler is looked up after
                # ``perturb_view`` has run, as ``on_bit`` does.
                view = injector.perturb_view(node, time, level)
                node._bit_handlers[node._state](node, view)
        else:
            for node in nodes:
                node._bit_handlers[node._state](node, level)
        if self._tick_hooks:
            for hook in self._tick_hooks:
                hook(time)
        self.time += 1
        return level

    def run(self, bits: int) -> None:
        """Advance the simulation by ``bits`` bit times."""
        if bits <= 0:
            return
        step = self._stepper()
        for _ in range(bits):
            step()

    def run_until_idle(self, max_bits: int = 100000, settle_bits: int = 12) -> int:
        """Run until the bus has been quiet for ``settle_bits`` bits.

        Quiet means: every node is idle (or offline), no transmissions
        are pending, and the bus floats recessive.  Returns the number
        of bits simulated by this call.

        Raises
        ------
        SimulationError
            If the bus does not become idle within ``max_bits``.
        """
        quiet = 0
        step = self._stepper()
        for elapsed in range(max_bits):
            level = step()
            if level is RECESSIVE and self._all_idle():
                quiet += 1
                if quiet >= settle_bits:
                    return elapsed + 1
            else:
                quiet = 0
        raise SimulationError(
            "bus did not become idle within %d bits" % max_bits
        )

    def _all_idle(self) -> bool:
        for node in self.nodes:
            if node.offline:
                continue
            if node.state != STATE_IDLE:
                return False
            if node.pending_transmissions:
                return False
        return True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def collect_events(self) -> Trace:
        """Merge all controller events into the trace and return it.

        Each controller's event stream is already time-ordered (events
        are emitted at the monotonically advancing ``now``), so an
        N-way sorted merge suffices — no full re-sort.
        """
        self.trace.events = list(
            heapq.merge(
                *(node.events for node in self.nodes),
                key=lambda event: event.time,
            )
        )
        return self.trace
