"""Deterministic submission-schedule construction.

The schedule — which node submits which message at which bit time —
is computed serially in the driver *before* any window fans out to a
worker, by running the real ``repro.workload`` generators against stub
controllers that record submissions instead of queueing them.  That
makes jobs-invariance structural: workers receive their window's slice
of a schedule that never depended on the worker count, and the only
per-worker randomness (view-error noise) draws from per-window spawned
child seeds.

Periodic sources are only ticked at their arithmetic candidate times
(``tick`` is a no-op elsewhere), so scheduling costs O(messages), not
O(bits).  A Poisson source's ``tick`` consumes one uniform draw per
bit; the schedule draws the same uniforms from the source's own
generator in blocks (:func:`submit_poisson`) and submits only at the
hits.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.traffic.spec import ID_BASE, Submission, TrafficSpec

#: Uniforms per generator call of :func:`submit_poisson`.
POISSON_CHUNK = 65536


class _ScheduleProbe:
    """Stub controller satisfying the workload sources' interface.

    Records ``(time, frame)`` pairs instead of queueing transmissions;
    ``now`` is set by the scheduler before each tick.
    """

    __slots__ = ("name", "now", "submissions")

    def __init__(self, name: str) -> None:
        self.name = name
        self.now = 0
        self.submissions: List[tuple] = []

    def submit(self, frame) -> None:
        self.submissions.append((self.now, frame))


def traffic_seed_tree(spec: TrafficSpec) -> Tuple[list, list]:
    """(per-source children, per-window noise children) of the root seed.

    One spawn tree per spec: the Poisson sources and the per-window
    noise injectors draw from disjoint children of ``spec.seed``, so
    enabling one never perturbs the other.
    """
    from repro.parallel.seeds import spawn_seeds

    top = spawn_seeds(spec.seed, 2)
    return spawn_seeds(top[0], spec.n_nodes), spawn_seeds(top[1], spec.windows)


def submit_poisson(source, bits: int) -> None:
    """Submit what ``source.tick`` would over ticks ``0..bits-1``.

    ``tick`` draws one uniform per tick until the source reaches
    ``max_messages``.  This draws them from the source's generator in
    chunks of :data:`POISSON_CHUNK` — ``Generator.random(k)`` fills from the same stream as
    ``k`` scalar calls — and submits at the hits, setting the
    controller's (a schedule probe's) ``now`` first.  Draws past the
    cap are never read, since every source owns its generator.
    """
    import numpy as np

    offset = 0
    while offset < bits and not source.exhausted:
        draws = source.rng.random(min(POISSON_CHUNK, bits - offset))
        for hit in np.flatnonzero(draws < source.rate_per_bit).tolist():
            if source.exhausted:
                return
            source.controller.now = offset + hit
            source.submit_next()
        offset += draws.size


def build_schedule(spec: TrafficSpec) -> Tuple[Submission, ...]:
    """The complete submission schedule of ``spec``, in time order."""
    from repro.workload.generator import PeriodicSource, PoissonSource

    probes = [_ScheduleProbe(name) for name in spec.node_names]
    total = spec.total_active_bits
    if spec.source == "periodic":
        period = spec.period_bits
        for index, probe in enumerate(probes):
            source = PeriodicSource(
                controller=probe,
                period_bits=period,
                identifier=ID_BASE + index,
                phase=(index * period) // spec.n_nodes,
                max_messages=spec.messages_per_node,
            )
            for time in range(source.phase, total, period):
                probe.now = time
                source.tick(time)
    else:
        from repro.parallel.seeds import rng_from

        source_children, _ = traffic_seed_tree(spec)
        for index, probe in enumerate(probes):
            source = PoissonSource(
                controller=probe,
                rate_per_bit=spec.rate_per_bit,
                identifier=ID_BASE + index,
                rng=rng_from(source_children[index]),
                max_messages=spec.messages_per_node,
            )
            submit_poisson(source, total)

    submissions: List[Submission] = []
    for index, probe in enumerate(probes):
        if len(probe.submissions) > spec.seq_cap:
            raise ConfigurationError(
                "node %s schedules %d messages but the %s wire encoding "
                "carries at most %d sequence numbers; raise the period, "
                "cap messages_per_node, or shorten the run"
                % (
                    probe.name,
                    len(probe.submissions),
                    "HLP" if spec.hlp else "payload",
                    spec.seq_cap,
                )
            )
        for seq, (time, frame) in enumerate(probe.submissions):
            submissions.append(
                Submission(
                    time=time,
                    window=time // spec.window_bits,
                    node=probe.name,
                    node_index=index,
                    seq=seq,
                    identifier=frame.can_id.value,
                    payload=frame.data,
                    message_id=frame.message_id,
                )
            )
    submissions.sort(key=lambda sub: (sub.time, sub.node_index))
    return tuple(submissions)
