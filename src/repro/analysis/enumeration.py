"""Exact validation of the probability model by pattern enumeration.

Equation 4 counts specific error patterns at the frame tail.  For a
small network, this module *enumerates every possible pattern of view
errors over the last ``window`` EOF bits*, runs the bit-level
simulator on each pattern, classifies the outcome (consistent,
inconsistent omission, double reception...), and accumulates exact
per-frame probabilities by weighting each pattern with its ``ber*``
probability (times the probability that the rest of the frame is
error-free for every node).

This serves two purposes:

* it validates that the closed-form equation 4 captures the dominant
  IMO patterns — the enumerated IMO probability is bounded below by
  equation 4's prediction and converges to it as ``ber* -> 0``;
* it catalogues *all* tail patterns that break consistency at a given
  window size, which the closed form does not enumerate.

An enumeration runs in two steps:

* the **verdict step** (:func:`tail_verdicts`) builds the sites and
  patterns and classifies each one.  Its verdicts depend only on
  ``(protocol, n_nodes, window, m, max_flips, payload)``; on the batch
  backend it is memoised per process with :func:`functools.lru_cache`,
  whose key is exactly that signature, so a design sweep classifies
  each universe once and every further cell of it (another BER, bit
  rate or bus length) only re-weights it.  The engine backend is the
  oracle and simulates on every call;
  :func:`repro.analysis.batchreplay.clear_caches` empties the cache;
* the **weighting step** (:meth:`EnumerationResult.probability`) turns
  ``ber*`` and ``tau_data`` into per-frame probabilities, weighting
  each pattern by its flip count as equation 4 does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.batchreplay import placement_classifier
from repro.analysis.verification import placement_node_names
from repro.can.fields import EOF
from repro.can.geometry import frame_end
from repro.errors import AnalysisError
from repro.properties.ledger import delivery_flags

#: A pattern assigns flipped view bits as (node_index, eof_index) pairs.
Pattern = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class PatternOutcome:
    """Simulation verdict for one tail error pattern."""

    pattern: Pattern
    consistent: bool
    inconsistent_omission: bool
    double_reception: bool
    attempts: int


#: The weighted properties: name -> whether an outcome counts towards it.
PROPERTIES: Dict[str, Callable[[PatternOutcome], bool]] = {
    "inconsistent_omission": lambda o: o.inconsistent_omission,
    "double_reception": lambda o: o.double_reception,
    "inconsistent": lambda o: not o.consistent,
}


class TailVerdicts(NamedTuple):
    """One classified tail-pattern universe (the verdict step's output)."""

    outcomes: Tuple[PatternOutcome, ...]
    #: Batch provenance counters (``None`` on the engine backend).
    stats: Optional[Dict[str, int]]
    #: Per :data:`PROPERTIES` name, the flip count of every matching
    #: outcome, in enumeration order.
    flips: Dict[str, Tuple[int, ...]]


def _flip_counts(
    outcomes: Sequence[PatternOutcome],
) -> Dict[str, Tuple[int, ...]]:
    """The :attr:`TailVerdicts.flips` of ``outcomes``."""
    return {
        name: tuple(len(o.pattern) for o in outcomes if selector(o))
        for name, selector in PROPERTIES.items()
    }


@dataclass
class EnumerationResult:
    """Exact tail-window probabilities for one protocol and network."""

    protocol: str
    n_nodes: int
    window: int
    tau_data: int
    ber_star: float
    outcomes: List[PatternOutcome] = field(default_factory=list)
    #: Batch-backend provenance counters (None on the engine backend).
    backend_stats: Optional[dict] = None
    #: :attr:`TailVerdicts.flips` of the enumerated universe; derived
    #: from ``outcomes`` when not given.  The ``p_*`` properties weigh
    #: these, so they describe the universe as enumerated even if a
    #: caller edits its ``outcomes`` list.
    flips: Optional[Dict[str, Tuple[int, ...]]] = None
    #: ``(weighting inputs, weights)`` of the last :meth:`_weights` call.
    _weighted: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flips is None:
            self.flips = _flip_counts(self.outcomes)

    def _probability_of(self, flips: int) -> float:
        """Probability of a specific pattern with ``flips`` flipped bits.

        Every other (node, bit) view in the whole frame must be clean:
        the tail window has ``N * window`` candidate bits, the rest of
        the frame ``N * (tau - window)``.
        """
        b = self.ber_star
        tail_bits = self.n_nodes * self.window
        rest_bits = self.n_nodes * (self.tau_data - self.window)
        return (b**flips) * ((1 - b) ** (tail_bits - flips)) * ((1 - b) ** rest_bits)

    def _weights(self) -> List[float]:
        """``weights[k] = _probability_of(k)`` for every flip count.

        Built once per weighting inputs and shared by every property of
        the result.
        """
        inputs = (self.ber_star, self.tau_data, self.n_nodes, self.window)
        if self._weighted is None or self._weighted[0] != inputs:
            weights = [
                self._probability_of(flips)
                for flips in range(self.n_nodes * self.window + 1)
            ]
            self._weighted = (inputs, weights)
        return self._weighted[1]

    def probability(self, selector: Callable[[PatternOutcome], bool]) -> float:
        """Exact per-frame probability of the outcomes matching ``selector``.

        This is the weighting step: a pattern's weight depends only on
        its flip count, so each count is weighted once, and the sum runs
        over the patterns in enumeration order.
        """
        weights = self._weights()
        return sum(
            weights[len(outcome.pattern)]
            for outcome in self.outcomes
            if selector(outcome)
        )

    def _property(self, name: str) -> float:
        """:meth:`probability` of the :data:`PROPERTIES` selector ``name``,
        summed over its cached flip counts (same terms, same order)."""
        return sum(map(self._weights().__getitem__, self.flips[name]))

    @property
    def p_inconsistent_omission(self) -> float:
        """Exact per-frame IMO probability within the tail window."""
        return self._property("inconsistent_omission")

    @property
    def p_double_reception(self) -> float:
        return self._property("double_reception")

    @property
    def p_inconsistent(self) -> float:
        return self._property("inconsistent")

    def imo_patterns(self) -> List[Pattern]:
        """All tail patterns that produce an inconsistent omission."""
        return [o.pattern for o in self.outcomes if o.inconsistent_omission]


def enumerate_tail_patterns(
    protocol: str = "can",
    n_nodes: int = 3,
    window: int = 2,
    ber_star: float = 1e-6,
    tau_data: int = 110,
    m: int = 5,
    max_flips: int = None,
    backend: str = "engine",
    payload: bytes = b"\x55",
) -> EnumerationResult:
    """Enumerate all view-error patterns over the last ``window`` EOF bits.

    Parameters
    ----------
    protocol:
        ``"can"``, ``"minorcan"`` or ``"majorcan"``.
    n_nodes:
        Network size (node 0 transmits).  Runtime is
        ``2 ** (n_nodes * window)`` simulations, so keep it small.
    window:
        Number of trailing EOF bits in the fault universe.
    ber_star:
        Per-node per-bit error probability used for the weights.
    max_flips:
        Optionally skip patterns with more simultaneous errors (their
        weight is ``O(ber*^flips)`` and rarely matters).
    backend:
        ``"engine"`` simulates every pattern; ``"batch"`` classifies
        them with the vectorised tail replay of
        :mod:`repro.analysis.batchreplay` (identical outcomes) and
        reuses the verdicts of a universe it already classified in this
        process.
    payload:
        Data bytes of the simulated frame.  The tail-window outcomes do
        not depend on it, but the design-space sweeps pass each cell's
        payload so the simulated frame matches the ``tau_data`` the
        weights are computed against.
    """
    # The verdict step is the same function on both backends; only the
    # batch one goes through its cache (the engine is the oracle).
    classify = tail_verdicts if backend == "batch" else tail_verdicts.__wrapped__
    verdicts = classify(protocol, n_nodes, window, m, max_flips, payload, backend)
    return EnumerationResult(
        protocol=protocol,
        n_nodes=n_nodes,
        window=window,
        tau_data=tau_data,
        ber_star=ber_star,
        outcomes=list(verdicts.outcomes),
        backend_stats=dict(verdicts.stats) if verdicts.stats is not None else None,
        flips=verdicts.flips,
    )


#: Most tail-pattern universes the batch backend keeps classified per
#: process.  A universe holds at most a few thousand tiny outcomes, and
#: a design sweep visits one per (protocol, m, payload, node count).
VERDICT_CACHE_SIZE = 256


@lru_cache(maxsize=VERDICT_CACHE_SIZE)
def tail_verdicts(
    protocol: str,
    n_nodes: int,
    window: int,
    m: int,
    max_flips: Optional[int],
    payload: bytes,
    backend: str,
) -> TailVerdicts:
    """Classify every tail pattern of one universe: the verdict step.

    A pure function of its arguments (``ber*`` and ``tau_data`` only
    weight the verdicts), so its signature is the cache key.  Returns
    the outcomes in enumeration order, the batch provenance counters
    (``None`` on the engine) and the outcomes' flip counts per weighted
    property.  Callers must not mutate any of them: on the batch
    backend they are shared by every result of the universe.
    """
    if n_nodes < 2:
        raise AnalysisError("need at least a transmitter and a receiver")
    eof_length = frame_end(protocol, m).eof_length
    if window > eof_length:
        raise AnalysisError(
            "window of %d bits exceeds the %d-bit EOF" % (window, eof_length)
        )
    node_names = placement_node_names(n_nodes)
    sites = [
        (node_index, eof_length - window + offset)
        for node_index in range(n_nodes)
        for offset in range(window)
    ]
    patterns: List[Pattern] = []
    for size in range(len(sites) + 1):
        if max_flips is not None and size > max_flips:
            break
        patterns.extend(itertools.combinations(sites, size))
    classifier = placement_classifier(protocol, m, node_names, backend, payload)
    combos = [
        tuple(
            (node_names[node_index], EOF, eof_index)
            for node_index, eof_index in pattern
        )
        for pattern in patterns
    ]
    placed = classifier.evaluate(combos)
    flags = delivery_flags(placed.deliveries)
    outcomes = tuple(
        PatternOutcome(
            pattern=tuple(pattern),
            consistent=not split,
            inconsistent_omission=imo,
            double_reception=double,
            attempts=attempts,
        )
        for pattern, split, imo, double, attempts in zip(
            patterns,
            flags.split.tolist(),
            flags.imo.tolist(),
            flags.double.tolist(),
            placed.attempts.tolist(),
        )
    )
    return TailVerdicts(outcomes, classifier.stats, _flip_counts(outcomes))


def equation4_tail_prediction(ber_star: float, n_nodes: int, tau_data: int) -> float:
    """Equation 4 recomputed from ``ber*`` directly (helper for
    comparing against :class:`EnumerationResult` values)."""
    b = ber_star
    total = 0.0
    affected = ((1 - b) ** (tau_data - 2)) * b
    clean = (1 - b) ** (tau_data - 1)
    for i in range(1, n_nodes - 1):
        total += math.comb(n_nodes - 1, i) * affected**i * clean ** (n_nodes - 1 - i)
    return total * ((1 - b) ** (tau_data - 1)) * b
