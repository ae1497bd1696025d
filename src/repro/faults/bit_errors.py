"""Random bit-error injection following the paper's spatial model.

Every node's view of every bus bit is flipped independently with
probability ``ber*`` (:func:`repro.faults.models.ber_star`).  This is
the stochastic counterpart of the deterministic scenario scripts and
drives the Monte-Carlo validation of the analytical model (experiment
E-MC in DESIGN.md).

The realisation is defined by one uniform per noise-eligible node per
tick, in engine node order (:func:`view_noise_ranks`), compared against
``ber*``.  :class:`RandomViewErrorInjector` is the only code that
knows this order.  It draws those uniforms in blocks of
:data:`VIEW_BLOCK_TICKS` ticks — ``Generator.random(k)`` fills from the
same PCG64 stream as ``k`` scalar calls — and reports the tick of its
next flip as ``next_view_tick``, so the engine only consults it on
ticks where a view can change.  The batch backends ask it for the
first flip of a tick range (:meth:`RandomViewErrorInjector.next_flip`)
and hand the same injector to the engine when one is found.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.can.bits import Level
from repro.can.controller import CanController
from repro.errors import ConfigurationError, SimulationError
from repro.simulation.engine import NEVER, FaultInjector
from repro.simulation.rng import SeedLike, make_rng

#: Ticks of view-noise uniforms drawn per generator call.
VIEW_BLOCK_TICKS = 1024

#: Uniforms discarded per generator call when the stream is settled.
_DISCARD_CHUNK = 65536


def view_noise_ranks(
    names: Sequence[str], only_nodes: Optional[Sequence[str]] = None
) -> Dict[str, int]:
    """Each noise-eligible node's draw slot within one tick.

    The eligible nodes are ``names`` (in engine order) restricted to
    ``only_nodes``; each draws one uniform per tick, in that order, and
    the others draw nothing.  ``len()`` of the result is the number of
    draws per tick.
    """
    allowed = None if only_nodes is None else set(only_nodes)
    eligible = [name for name in names if allowed is None or name in allowed]
    return {name: rank for rank, name in enumerate(eligible)}


class RandomViewErrorInjector(FaultInjector):
    """Flip each node's view of each bit with probability ``ber_star``.

    Parameters
    ----------
    ber_star:
        Per-node, per-bit flip probability (``ber / N`` in the paper's
        model).
    seed:
        Seed or generator for reproducibility.
    only_nodes:
        Optional restriction of the fault universe to some node names
        (useful to keep a reference observer fault-free).
    names:
        Optional node names in engine order.  With them the injector
        knows its draw slots before an engine binds it, so
        :meth:`next_flip` can scan ahead of any engine run.

    The injector is the one owner of the noise stream's draw order.
    The uniform of eligible node ``rank`` at tick ``t`` is draw
    ``(t - t0) * width + rank`` of the generator, ``t0`` being the
    first tick the injector is consulted or scanned at and ``width``
    the number of eligible nodes — the order of one scalar draw per
    ``perturb_view`` call.  Draws come in blocks and stay as the
    injector's lookahead, so the generator runs ahead of the engine;
    :meth:`next_flip` scans the lookahead further ahead, and
    :meth:`settle` puts the generator back where the scalar order
    would leave it.
    """

    # Declared here, so the engine trusts the value ``perturb_view``
    # keeps current instead of consulting the injector on every tick.
    next_view_tick = 0

    def __init__(
        self,
        ber_star: float,
        seed: SeedLike = None,
        only_nodes: Optional[Sequence[str]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self.rng = make_rng(seed)
        self.ber_star = ber_star
        self.only_nodes = set(only_nodes) if only_nodes is not None else None
        self.injected = 0
        self.injected_by_node: Counter = Counter()
        self.injections: list = []
        self._ranks: Optional[Dict[str, int]] = None
        self._bound_ranks: Optional[Dict[str, int]] = None
        if names is not None:
            self._bound_ranks = view_noise_ranks(names, only_nodes)
        self._engine_bound = False
        # The generator sits at the first draw of tick ``_stream_tick``
        # (``_ranks`` is None until the first block).  The lookahead
        # starts at tick ``_block_tick`` from generator state
        # ``_block_state`` and holds one or more blocks; its flips not
        # yet passed are ``_flips``, ``(tick, rank)`` pairs in
        # descending order.  Ticks from ``_block_end`` on are not drawn.
        self._stream_tick = 0
        self._block_tick = 0
        self._block_state: Optional[dict] = None
        self._block_end = -1
        self._flips: List[Tuple[int, int]] = []

    @property
    def ber_star(self) -> float:
        return self._ber_star

    @ber_star.setter
    def ber_star(self, ber_star: float) -> None:
        if not 0.0 <= ber_star <= 1.0:
            raise ConfigurationError("ber_star must be a probability")
        self._ber_star = ber_star
        self._redraw()

    def bind(self, nodes: Sequence[CanController]) -> None:
        ranks = view_noise_ranks([node.name for node in nodes], self.only_nodes)
        # The first engine goes on from a scan drawn with its own slots;
        # any other binding redraws from its first consulted tick.
        if self._engine_bound or ranks != self._bound_ranks:
            self._redraw()
        self._bound_ranks = ranks
        self._engine_bound = True

    def _redraw(self) -> None:
        """Make the next consulted tick settle the stream and redraw."""
        self._block_end = -1
        self.next_view_tick = 0

    def settle(self, time: int) -> None:
        """Position the generator where scalar draws would leave it at ``time``.

        That is after the draws of every tick before ``time``; the
        lookahead is dropped, and the next consulted tick draws a new
        block.
        """
        start = self._stream_tick
        if self._ranks is not None and time != start:
            if time < self._block_tick:
                raise SimulationError(
                    "view noise cannot rewind to tick %d, before its lookahead "
                    "at tick %d: use one injector per engine run"
                    % (time, self._block_tick)
                )
            if time < start:
                self.rng.bit_generator.state = self._block_state
                start = self._block_tick
            draws = (time - start) * len(self._ranks)
            while draws > 0:
                step = min(draws, _DISCARD_CHUNK)
                self.rng.random(step)
                draws -= step
        self._stream_tick = time
        self._flips = []
        self._block_end = time
        self.next_view_tick = time

    def next_flip(self, start: int, end: int) -> Optional[int]:
        """The first tick in ``start..end-1`` where an eligible view flips.

        None when no view flips there.  The scan draws further blocks
        as it needs them, in the engine's order, into the lookahead, so
        an engine run or a later scan goes on from its draws.  A
        ``start`` outside the lookahead begins a new one there.
        """
        if not self._block_tick <= start <= self._block_end:
            self._draw_block(start)
        while True:
            for tick, _ in reversed(self._flips):
                if tick >= start:
                    return tick if tick < end else None
            if self._block_end >= end:
                return None
            self._draw_next_block()

    def _draw_block(self, time: int) -> None:
        """Begin a new lookahead with the block starting at tick ``time``."""
        if self._bound_ranks is None:
            raise SimulationError(
                "RandomViewErrorInjector has no draw slots: give it the node "
                "names or bind it to an engine"
            )
        self.settle(time)
        self._ranks = ranks = self._bound_ranks
        self._block_tick = time
        if not ranks or self._ber_star <= 0.0:
            # No view can flip: draw nothing until something changes.
            # ``settle`` consumes the skipped draws when it is asked to.
            self._block_end = NEVER
            return
        self._block_state = self.rng.bit_generator.state
        self._draw_next_block()

    def _draw_next_block(self) -> None:
        """Extend the lookahead by the block starting at ``_block_end``."""
        time = self._block_end
        width = len(self._ranks)
        draws = self.rng.random(VIEW_BLOCK_TICKS * width)
        hits = np.flatnonzero(draws < self._ber_star).tolist()
        self._stream_tick = self._block_end = time + VIEW_BLOCK_TICKS
        self._flips[:0] = [
            (time + hit // width, hit % width) for hit in reversed(hits)
        ]

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        if time >= self._block_end:
            self._draw_block(time)
        key = (time, self._ranks.get(node.name, -1))
        flips = self._flips
        while flips and flips[-1] < key:
            flips.pop()
        hit = bool(flips) and flips[-1] == key
        if hit:
            flips.pop()
        self.next_view_tick = flips[-1][0] if flips else self._block_end
        if not hit:
            return bus_level
        self.injected += 1
        self.injected_by_node[node.name] += 1
        self.injections.append((time, node.name, node.position))
        return bus_level.flipped()


class BurstViewErrorInjector(FaultInjector):
    """Flip a contiguous burst of one node's view bits.

    Used by the CRC robustness tests: CAN's CRC-15 detects any burst
    shorter than 15 bits, so a burst injector exercises exactly that
    guarantee.
    """

    # The start tick until the burst is over, then never.
    next_view_tick = 0

    def __init__(self, node: str, start_time: int, length: int) -> None:
        if length < 1:
            raise ConfigurationError("burst length must be positive")
        self.node = node
        self.start_time = start_time
        self.length = length
        self.injected = 0
        self.next_view_tick = start_time

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        if time >= self.start_time + self.length:
            self.next_view_tick = NEVER
            return bus_level
        if node.name != self.node:
            return bus_level
        if self.start_time <= time:
            self.injected += 1
            return bus_level.flipped()
        return bus_level


class ErrorBudgetInjector(FaultInjector):
    """Flip an exact set of (time, node) view bits.

    The property-based MajorCAN consistency tests use this to place a
    bounded number of random errors (``<= m``) at arbitrary positions
    relative to the frame end.
    """

    def __init__(self, flips: Sequence[Tuple[int, str]]) -> None:
        self._flips: Dict[Tuple[int, str], bool] = {
            (int(time), name): False for time, name in flips
        }

    def perturb_view(self, node: CanController, time: int, bus_level: Level) -> Level:
        key = (time, node.name)
        if key in self._flips:
            self._flips[key] = True
            return bus_level.flipped()
        return bus_level

    @property
    def applied(self) -> int:
        """Number of scheduled flips that actually happened."""
        return sum(1 for fired in self._flips.values() if fired)
