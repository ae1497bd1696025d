"""Monte-Carlo validation of the probability model (experiment E-MC).

Two sampling modes complement the exact enumeration of
:mod:`repro.analysis.enumeration`:

* :func:`monte_carlo_tail` — samples error patterns over the same
  tail window as the enumeration (each site flipped independently with
  probability ``ber*``) and classifies each sampled frame with the
  bit-level simulator.  Its estimate converges to the enumeration's
  exact probability, providing a stochastic-vs-exhaustive
  cross-validation of the whole pipeline.
* :func:`monte_carlo_full` — unrestricted per-bit view errors over the
  entire frame at an inflated ``ber``, checking the qualitative
  scaling of the inconsistency rate (the IMO probability grows
  quadratically in ``ber*``, the signature of the two-error Fig. 3a
  pattern).

Direct sampling at the paper's operational rates (``ber <= 1e-4``,
per-frame probabilities around 1e-10) is computationally meaningless
for any simulator — the paper itself evaluates Table 1 analytically —
which is why the reproduction validates the *model* at tractable error
rates and the *numbers* with the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from repro.analysis.batchreplay import placement_classifier
from repro.analysis.verification import placement_node_names
from repro.can.fields import EOF
from repro.can.frame import data_frame
from repro.can.geometry import frame_end
from repro.errors import AnalysisError
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.faults.scenarios import make_controller, run_single_frame_scenario
from repro.parallel.pool import merge_stats, run_tasks
from repro.parallel.seeds import (
    ChildSeed,
    adaptive_chunk,
    chunk_sizes,
    rng_from,
    spawn_seeds,
)
from repro.properties.ledger import DeliveryFlags, delivery_flags
from repro.simulation.rng import SeedLike

#: Baseline trials per task chunk, tuned for the canonical three-node
#: universe.  Fixed regardless of ``jobs`` so the seed spawn tree — and
#: therefore every aggregate count — is identical for serial and
#: parallel runs of the same seed.  The default ``chunk_trials=None``
#: adapts this baseline to the node count (larger universes mean
#: costlier trials, so smaller chunks) but never to the backend: the
#: partition shapes the spawn tree, and engine and batch backends must
#: draw identical placements for the same seed.
CHUNK_TRIALS = 32


def _adaptive_chunk_trials(n_nodes: int) -> int:
    """Resolve the default chunk size for an ``n_nodes`` universe."""
    return adaptive_chunk(CHUNK_TRIALS, n_nodes / 3.0)


@dataclass
class MonteCarloResult:
    """Aggregated classification counts of sampled frames."""

    trials: int
    imo: int = 0
    double_reception: int = 0
    inconsistent: int = 0
    no_fault_trials: int = 0
    flips_total: int = 0
    #: Merged batch-backend provenance counters (None on the engine
    #: backend): how many sampled placements the array pass, the scalar
    #: micro-sim, the reduced header runs and the engine fallback each
    #: classified.
    backend_stats: Optional[dict] = None
    #: Resolved trials-per-chunk of this run.  Part of the experiment
    #: identity: it shapes the seed spawn tree, so re-running with a
    #: different value changes the sampled placements.
    chunk_trials: Optional[int] = None

    @property
    def p_imo(self) -> float:
        """Point estimate of the per-frame IMO probability."""
        return self.imo / self.trials if self.trials else 0.0

    @property
    def p_inconsistent(self) -> float:
        return self.inconsistent / self.trials if self.trials else 0.0

    @property
    def p_double(self) -> float:
        return self.double_reception / self.trials if self.trials else 0.0

    def imo_confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for the IMO probability."""
        return wilson_interval(self.imo, self.trials, z)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials <= 0:
        raise AnalysisError("need at least one trial")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass
class ChunkCounts:
    """Additive partial classification counts of one Monte-Carlo chunk."""

    trials: int = 0
    imo: int = 0
    double_reception: int = 0
    inconsistent: int = 0
    no_fault_trials: int = 0
    flips_total: int = 0
    #: Batch-backend provenance counters (None on the engine backend
    #: and for a chunk without a fault-bearing trial).
    backend_stats: Optional[dict] = None

    def absorb(self, flags: DeliveryFlags) -> None:
        """Fold the delivery rule's flags of some trials in; each flag
        counts on its own (a double reception is also inconsistent)."""
        self.imo += int(flags.imo.sum())
        self.double_reception += int(flags.double.sum())
        self.inconsistent += int(flags.split.sum())


def tail_chunk(
    protocol: str,
    m: int,
    node_names: Tuple[str, ...],
    sites: Tuple[Tuple[str, int], ...],
    ber_star: float,
    trials: int,
    seed: ChildSeed,
    backend: str = "engine",
) -> ChunkCounts:
    """Classify one chunk of tail-window trials (``sites`` are
    ``(node name, EOF index)`` pairs); one pool task of
    :func:`monte_carlo_tail`."""
    rng = rng_from(seed)
    counts = ChunkCounts(trials=trials)
    # Draw the whole chunk as one (trials, sites) matrix.  The
    # generator fills row-major from the same PCG64 stream as the
    # per-trial ``rng.random(len(sites))`` calls it replaces, so
    # the drawn placements — and therefore the aggregate counts —
    # are bit-identical to the scalar draw order for the same
    # SeedSequence child, for both backends and any chunking.
    mask = rng.random((trials, len(sites))) < ber_star
    counts.flips_total = int(mask.sum())
    counts.no_fault_trials = trials - int(mask.any(axis=1).sum())
    # ``nonzero`` walks the mask in row-major order too, so the
    # fault-bearing trials regroup in draw order at O(flips) cost.
    groups: List[List[Tuple[str, str, int]]] = []
    last_trial = -1
    for trial, site in zip(*(axis.tolist() for axis in mask.nonzero())):
        if trial != last_trial:
            groups.append([])
            last_trial = trial
        name, index = sites[site]
        groups[-1].append((name, EOF, index))
    trial_combos = [tuple(group) for group in groups]
    if not trial_combos:
        return counts
    classifier = placement_classifier(protocol, m, node_names, backend)
    counts.absorb(delivery_flags(classifier.evaluate(trial_combos).deliveries))
    counts.backend_stats = classifier.stats
    return counts


def full_chunk(
    protocol: str,
    m: int,
    node_names: Tuple[str, ...],
    ber_star: float,
    trials: int,
    payload: bytes,
    max_bits: int,
    seed: ChildSeed,
) -> ChunkCounts:
    """Classify one chunk of whole-frame random-view-error trials; one
    pool task of :func:`monte_carlo_full`."""
    rng = rng_from(seed)
    counts = ChunkCounts(trials=trials)
    for _ in range(trials):
        nodes = [make_controller(protocol, name, m=m) for name in node_names]
        injector = RandomViewErrorInjector(ber_star, seed=rng)
        outcome = run_single_frame_scenario(
            "mc-full",
            nodes,
            injector,  # type: ignore[arg-type]
            frame=data_frame(0x123, payload, message_id="m"),
            record_bits=False,
            max_bits=max_bits,
        )
        # The chunk's trials share ``rng``: leave it where one draw per
        # node per simulated tick leaves it, not at the end of the
        # injector's last block.
        injector.settle(outcome.engine.time)
        counts.flips_total += injector.injected
        counts.absorb(outcome.flags)
    return counts


def _merge_counts(trials: int, parts: List[ChunkCounts]) -> MonteCarloResult:
    """Fold per-chunk counts (merged in chunk order) into one result."""
    result = MonteCarloResult(trials=trials)
    for part in parts:
        result.imo += part.imo
        result.double_reception += part.double_reception
        result.inconsistent += part.inconsistent
        result.no_fault_trials += part.no_fault_trials
        result.flips_total += part.flips_total
    result.backend_stats = merge_stats(part.backend_stats for part in parts) or None
    return result


def monte_carlo_tail(
    protocol: str = "can",
    n_nodes: int = 3,
    ber_star: float = 0.05,
    trials: int = 500,
    window: int = 2,
    m: int = 5,
    seed: SeedLike = None,
    jobs: Optional[int] = 1,
    chunk_trials: Optional[int] = None,
    backend: str = "engine",
) -> MonteCarloResult:
    """Sample tail-window error patterns and classify them by simulation.

    The fault universe matches
    :func:`repro.analysis.enumeration.enumerate_tail_patterns`, so the
    estimate converges to that module's conditional exact probability
    (restricted to the window, i.e. without the clean-elsewhere factor).

    Trials are split into fixed-size chunks, each with its own spawned
    child seed, and fanned out over ``jobs`` workers; the same chunking
    runs inline at ``jobs=1``, so the counts are identical either way.
    Each chunk draws all its placements as one seeded ``(trials,
    sites)`` numpy matrix whose row-major fill consumes the child's
    PCG64 stream exactly as the per-trial draws it replaced, so the
    sampled placements are bit-identical to the scalar draw order and
    ``backend="batch"`` (vectorised tail replay) produces the exact
    same counts as the engine for the same seed.

    ``chunk_trials=None`` (the default) resolves an adaptive chunk size
    from the node count — :data:`CHUNK_TRIALS` at the canonical three
    nodes, proportionally smaller for larger universes.  The resolution
    never looks at ``backend`` or ``jobs``, and the resolved value is
    recorded in ``result.chunk_trials``: the partition is part of the
    experiment identity.
    """
    if n_nodes < 2:
        raise AnalysisError("need at least two nodes")
    if backend not in ("engine", "batch"):
        raise AnalysisError("unknown backend %r (use 'engine' or 'batch')" % backend)
    eof_length = frame_end(protocol, m).eof_length
    if window > eof_length:
        raise AnalysisError("window exceeds the EOF length")
    node_names = placement_node_names(n_nodes)
    sites = tuple(
        (name, eof_length - window + offset)
        for name in node_names
        for offset in range(window)
    )
    if chunk_trials is None:
        chunk_trials = _adaptive_chunk_trials(n_nodes)
    sizes = chunk_sizes(trials, chunk_trials)
    children = spawn_seeds(seed, len(sizes))
    tasks = [
        partial(
            tail_chunk,
            protocol=protocol,
            m=m,
            node_names=node_names,
            sites=sites,
            ber_star=ber_star,
            trials=size,
            seed=child,
            backend=backend,
        )
        for size, child in zip(sizes, children)
    ]
    result = _merge_counts(trials, run_tasks(tasks, jobs))
    result.chunk_trials = chunk_trials
    return result


def monte_carlo_full(
    protocol: str = "can",
    n_nodes: int = 3,
    ber_star: float = 2e-3,
    trials: int = 200,
    m: int = 5,
    payload: bytes = b"",
    seed: SeedLike = None,
    jobs: Optional[int] = 1,
    chunk_trials: Optional[int] = None,
) -> MonteCarloResult:
    """Unrestricted per-bit view errors over whole single-frame runs.

    Uses :class:`repro.faults.bit_errors.RandomViewErrorInjector`
    directly, so errors can hit arbitration, data, CRC, flags and
    delimiters — everything the protocol machinery covers.  Chunked and
    seeded like :func:`monte_carlo_tail` (including the adaptive
    ``chunk_trials=None`` default): ``jobs`` never changes the counts,
    only the wall-clock time.
    """
    if n_nodes < 2:
        raise AnalysisError("need at least two nodes")
    node_names = placement_node_names(n_nodes)
    if chunk_trials is None:
        chunk_trials = _adaptive_chunk_trials(n_nodes)
    sizes = chunk_sizes(trials, chunk_trials)
    children = spawn_seeds(seed, len(sizes))
    tasks = [
        partial(
            full_chunk,
            protocol=protocol,
            m=m,
            node_names=node_names,
            ber_star=ber_star,
            trials=size,
            payload=payload,
            max_bits=60000,
            seed=child,
        )
        for size, child in zip(sizes, children)
    ]
    result = _merge_counts(trials, run_tasks(tasks, jobs))
    result.chunk_trials = chunk_trials
    return result
