"""Deterministic submission-schedule construction.

The schedule — which node submits which message at which bit time —
is computed serially in the driver *before* any window fans out to a
worker, straight from the :class:`~repro.traffic.spec.TrafficSpec`.
That makes jobs-invariance structural: workers receive their window's
slice of a schedule that never depended on the worker count, and the
only per-worker randomness (view-error noise) draws from per-window
spawned child seeds.

A periodic node submits at ``phase, phase + period, ...``, so
scheduling costs O(messages), not O(bits).  A Poisson node makes one
Bernoulli trial per bit time with one uniform from its own generator;
:func:`poisson_times` draws those uniforms in blocks and keeps only
the hits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel.seeds import rng_from, spawn_seeds
from repro.traffic.spec import Submission, TrafficSpec

#: Uniforms per generator call of :func:`poisson_times`.
POISSON_CHUNK = 65536


def traffic_seed_tree(spec: TrafficSpec) -> Tuple[list, list]:
    """(per-node source children, per-window noise children) of the root seed.

    One spawn tree per spec: the Poisson nodes and the per-window
    noise injectors draw from disjoint children of ``spec.seed``, so
    enabling one never perturbs the other.
    """
    top = spawn_seeds(spec.seed, 2)
    return spawn_seeds(top[0], spec.n_nodes), spawn_seeds(top[1], spec.windows)


def poisson_times(rng, rate: float, bits: int, cap: Optional[int]) -> List[int]:
    """Hit ticks of one uniform per tick ``0..bits-1``, at most ``cap``.

    Draws from ``rng`` in chunks of :data:`POISSON_CHUNK` —
    ``Generator.random(k)`` fills from the same stream as ``k`` scalar
    calls — and stops drawing once ``cap`` ticks hit.  Draws past the
    cap are never read, since every node owns its generator.
    """
    times: List[int] = []
    offset = 0
    while offset < bits and (cap is None or len(times) < cap):
        draws = rng.random(min(POISSON_CHUNK, bits - offset))
        times.extend((np.flatnonzero(draws < rate) + offset).tolist())
        offset += draws.size
    return times if cap is None else times[:cap]


def build_schedule(spec: TrafficSpec) -> Tuple[Submission, ...]:
    """The complete submission schedule of ``spec``, in time order."""
    total = spec.total_active_bits
    cap = spec.messages_per_node
    if spec.source == "periodic":
        period = spec.period_bits
        per_node = [
            range((index * period) // spec.n_nodes, total, period)[:cap]
            for index in range(spec.n_nodes)
        ]
    else:
        source_children, _ = traffic_seed_tree(spec)
        per_node = [
            poisson_times(rng_from(child), spec.rate_per_bit, total, cap)
            for child in source_children
        ]

    submissions: List[Submission] = []
    for index, (name, times) in enumerate(zip(spec.node_names, per_node)):
        if len(times) > spec.seq_cap:
            raise ConfigurationError(
                "node %s schedules %d messages but the %s wire encoding "
                "carries at most %d sequence numbers; raise the period, "
                "cap messages_per_node, or shorten the run"
                % (name, len(times), "HLP" if spec.hlp else "payload", spec.seq_cap)
            )
        submissions.extend(
            Submission(time, time // spec.window_bits, name, index, seq)
            for seq, time in enumerate(times)
        )
    submissions.sort(key=lambda sub: (sub.time, sub.node_index))
    return tuple(submissions)
