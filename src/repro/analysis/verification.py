"""Bounded exhaustive verification of the agreement machinery.

The paper's future work plans "model checking on the VHDL description
to achieve a formal verification".  This module provides the
simulation analogue: *bounded* exhaustive exploration of every
placement of up to ``max_flips`` view errors over a configurable site
universe (frame-tail bits, the whole EOF, the sampling/extended-flag
window, and optionally the frame header), classifying each run with
the bit-level simulator and reporting all counterexamples to
consistency.

Two standing results of the reproduction come out of this harness:

* with the site universe restricted to the paper's error model (the
  EOF region and the agreement window), MajorCAN_m has **no**
  counterexample with up to m flips at the explored network sizes;
* extending the universe to the frame header exposes finding F1 (the
  DLC desynchronisation channel) automatically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.batchreplay import placement_classifier
from repro.can.fields import DATA, DLC
from repro.can.geometry import FrameEnd, frame_end
from repro.errors import AnalysisError
from repro.parallel.pool import effective_jobs, imap_tasks, merge_stats
from repro.parallel.seeds import BATCH_DISCOUNT, adaptive_chunk
from repro.properties.ledger import KINDS, delivery_flags

#: A fault site: (node name, field label, index within the field).
Site = Tuple[str, str, int]

#: Baseline flip placements per task chunk on the parallel path, tuned
#: for the canonical three-node engine sweep.  The placement
#: enumeration order is fixed, so chunking only partitions it; results
#: merged in chunk order are identical to the serial sweep.
#: :func:`verify_consistency` adapts this baseline to the node
#: count and — because, unlike the Monte-Carlo spawn tree, the
#: partition cannot change verification results — to the backend: the
#: vectorised batch backend classifies a placement roughly 16x faster,
#: so its chunks grow by that factor to keep per-chunk wall-clock
#: comparable.
CHUNK_PLACEMENTS = 64

#: Placements per inline chunk (``jobs=1``): large slabs amortise the
#: batch replay's per-pass setup without changing the enumeration
#: order.  The batch/scalar route split, and so the ``backend stats``
#: line, depends on the slab size.
_BATCH_SLAB = 2048


@dataclass(frozen=True)
class Counterexample:
    """A flip placement that broke a consistency property."""

    sites: Tuple[Site, ...]
    deliveries: Tuple[Tuple[str, int], ...]
    attempts: int
    kind: str  # "imo" | "double" | "inconsistent"

    def __str__(self) -> str:
        flips = ", ".join("%s@%s[%d]" % site for site in self.sites)
        return "%s from {%s} -> %s" % (self.kind, flips, dict(self.deliveries))


@dataclass
class VerificationResult:
    """Outcome of a bounded exhaustive exploration."""

    protocol: str
    m: int
    n_nodes: int
    max_flips: int
    site_count: int
    runs: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: Batch-backend provenance counters (None on the engine backend):
    #: placements classified by the array pass / scalar micro-sim /
    #: reduced header runs / engine fallback.
    backend_stats: Optional[dict] = None
    #: Resolved placements-per-chunk of this run (recorded even when
    #: the sweep ran inline): the partition is part of the experiment
    #: identity.
    chunk_placements: Optional[int] = None

    @property
    def holds(self) -> bool:
        """Whether consistency held for every explored placement."""
        return not self.counterexamples

    def summary(self) -> str:
        verdict = (
            "no counterexample"
            if self.holds
            else "%d counterexamples" % len(self.counterexamples)
        )
        return (
            "%s (m=%d, N=%d): %d placements over %d sites, <=%d flips: %s"
            % (
                self.protocol,
                self.m,
                self.n_nodes,
                self.runs,
                self.site_count,
                self.max_flips,
                verdict,
            )
        )


def tail_sites(node_names: Sequence[str], geometry: FrameEnd) -> List[Site]:
    """The paper's error universe: the frame tail and agreement window.

    Every node's :attr:`~repro.can.geometry.FrameEnd.sites`: the CRC/ACK
    delimiters and the ACK slot (errors whose flags start at the first
    EOF bit), every EOF bit and — under MajorCAN — every window bit
    (reached through the SAMPLING position that quiet nodes announce).
    """
    return [(name,) + position for name in node_names for position in geometry.sites]


def placement_node_names(n_nodes: int) -> Tuple[str, ...]:
    """Node names of a placement network: ``tx`` then receivers ``r1`` ...

    The one naming rule every placement driver (verification,
    enumeration, Monte-Carlo, ablation rows, the CLI) builds its
    network and its sites with.
    """
    return ("tx",) + tuple("r%d" % i for i in range(1, n_nodes))


def header_sites(node_names: Sequence[str], data_bits: int = 8) -> List[Site]:
    """Frame-header sites that can desynchronise a receiver (finding F1)."""
    sites: List[Site] = []
    for name in node_names:
        for index in range(4):
            sites.append((name, DLC, index))
        for index in range(data_bits):
            sites.append((name, DATA, index))
    return sites


def verify_consistency(
    protocol: str = "majorcan",
    m: int = 5,
    n_nodes: int = 3,
    max_flips: int = 2,
    extra_sites: Iterable[Site] = (),
    payload: bytes = b"\x55",
    jobs: Optional[int] = 1,
    backend: str = "engine",
) -> VerificationResult:
    """Exhaustively explore every ≤ ``max_flips`` placement of view
    errors over the chosen site universe.

    A placement is a *counterexample* when the resulting execution is
    inconsistent: some live node delivers the frame a different number
    of times than another (inconsistent omission), or any node delivers
    it twice (double reception).

    ``jobs > 1`` partitions the (fixed, deterministic) placement
    enumeration into chunks and explores them on a worker pool; the
    counterexample list and run count are identical to the serial
    sweep.

    ``backend="batch"`` classifies placements with the vectorised
    replay of :mod:`repro.analysis.batchreplay` — array passes for tail
    placements, cached reduced engine runs for header flips (the
    ``header_sites`` F1 universe), and a transparent engine
    fallback for anything neither models, with the split recorded in
    ``result.backend_stats``; ``"engine"`` keeps one engine run per
    placement.  Both backends produce identical results.

    The parallel chunk size adapts to the node count and backend —
    :data:`CHUNK_PLACEMENTS` for the canonical three-node engine sweep,
    larger for the batch backend whose per-placement cost is far lower
    — and is recorded in ``result.chunk_placements``.
    """
    if n_nodes < 2:
        raise AnalysisError("need a transmitter and at least one receiver")
    if max_flips < 1:
        raise AnalysisError("max_flips must be at least 1")
    if backend not in ("engine", "batch"):
        raise AnalysisError("unknown backend %r (use 'engine' or 'batch')" % backend)
    node_names = placement_node_names(n_nodes)
    sites = tail_sites(node_names, frame_end(protocol, m))
    sites.extend(extra_sites)
    cost_units = n_nodes / 3.0
    if backend == "batch":
        cost_units /= BATCH_DISCOUNT
    chunk_placements = adaptive_chunk(CHUNK_PLACEMENTS, cost_units)
    result = VerificationResult(
        protocol=protocol,
        m=m,
        n_nodes=n_nodes,
        max_flips=max_flips,
        site_count=len(sites),
        chunk_placements=chunk_placements,
    )
    combos = itertools.chain.from_iterable(
        itertools.combinations(sites, size) for size in range(1, max_flips + 1)
    )
    inline = effective_jobs(jobs) == 1
    tasks = (
        partial(verify_chunk, protocol, m, node_names, tuple(chunk), payload, backend)
        for chunk in _chunked(combos, _BATCH_SLAB if inline else chunk_placements)
    )
    stats: dict = {}
    for runs, hits, chunk_stats in imap_tasks(tasks, 1 if inline else jobs):
        result.runs += runs
        result.counterexamples.extend(Counterexample(*hit) for hit in hits)
        stats = merge_stats([stats, chunk_stats])
    result.backend_stats = stats or None
    return result


def verify_chunk(
    protocol: str,
    m: int,
    node_names: Tuple[str, ...],
    combos: Tuple[Tuple[Site, ...], ...],
    payload: bytes,
    backend: str = "engine",
) -> Tuple[int, List[Tuple], Optional[dict]]:
    """Classify one chunk of placements; one task of
    :func:`verify_consistency`, run inline or on the pool.

    Returns ``(runs, hits, stats)``: the placements classified, the
    :class:`Counterexample` argument tuples of the broken ones in
    enumeration order, and the classifier's provenance counters
    (``None`` on the engine backend).  The delivery rule runs over the
    whole delivery matrix, and only the rows that hit become hit tuples.
    """
    classifier = placement_classifier(protocol, m, node_names, backend, payload)
    placed = classifier.evaluate(combos)
    kinds = delivery_flags(placed.deliveries).kinds()
    hits = [
        (
            tuple(combos[row]),
            tuple(sorted(zip(node_names, placed.deliveries[row].tolist()))),
            int(placed.attempts[row]),
            KINDS[kinds[row]],
        )
        for row in np.flatnonzero(kinds).tolist()
    ]
    return len(combos), hits, classifier.stats


def _chunked(combos: Iterator, size: int) -> Iterator[List]:
    while True:
        chunk = list(itertools.islice(combos, size))
        if not chunk:
            return
        yield chunk

