"""Deterministic randomness splitting for parallel workloads.

The aggregate result of a chunked workload must not depend on how many
workers executed it.  To get that, the *parent* process splits its seed
into one independent child stream per chunk with
``numpy.random.SeedSequence.spawn`` — the spawn tree depends only on
the root seed and the chunk count, never on the worker layout — and
every chunk creates its generator from its own child.  Serial runs use
the exact same children in the exact same order, so ``jobs=1`` and
``jobs=N`` are bit-identical.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

#: Everything a chunk can carry across a process boundary as its seed.
#: ``SeedSequence`` and ``Generator`` both pickle cleanly.  The aliases
#: are quoted so that importing this module does not load
#: ``numpy.random`` (numpy imports it lazily, on first attribute access).
ChildSeed = Union["np.random.SeedSequence", "np.random.Generator"]

SeedLike = Union[int, None, "np.random.SeedSequence", "np.random.Generator"]


def spawn_seeds(seed: SeedLike, count: int) -> List[ChildSeed]:
    """Split ``seed`` into ``count`` independent child seeds.

    Accepts an integer, ``None`` (OS entropy, drawn once in the parent
    so the children still form one coherent spawn tree), an existing
    ``SeedSequence``, or a ``Generator`` (split with ``Generator.spawn``
    so callers sharing a stream keep their reproducibility).
    """
    if count < 0:
        raise ValueError("count must be non-negative, got %d" % count)
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(count))
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(count))
    return list(np.random.SeedSequence(seed).spawn(count))


def rng_from(child: ChildSeed) -> np.random.Generator:
    """Instantiate the generator for one spawned child seed."""
    if isinstance(child, np.random.Generator):
        return child
    return np.random.default_rng(child)


#: Per-placement cost discount of the batch replay relative to the
#: engine: the cost units :func:`adaptive_chunk` gets for a batch-backend
#: placement are the engine's divided by this.  Verification chunks and
#: sweep cell chunks both resolve with it, and a sweep cell's resolved
#: chunk is part of its store key, so changing it moves cell keys.
BATCH_DISCOUNT = 16.0


def adaptive_chunk(
    base: int, cost_units: float, floor: int = 8, cap: int = 4096
) -> int:
    """Scale a baseline chunk size by the relative per-item cost.

    ``cost_units`` expresses how expensive one item is relative to the
    configuration the baseline was tuned for (1.0 = the baseline
    configuration): costlier items get proportionally smaller chunks,
    cheaper items larger ones, so per-chunk wall-clock stays roughly
    constant as problem parameters scale.  The result is clamped to
    ``[floor, cap]`` and depends only on the arguments — never on the
    worker count — because the chunk partition is part of the
    experiment identity (for seeded workloads it shapes the seed spawn
    tree, so it is recorded alongside results).
    """
    if base < 1:
        raise ValueError("base chunk must be positive, got %d" % base)
    if not cost_units > 0:
        raise ValueError("cost_units must be positive, got %r" % cost_units)
    if floor < 1 or cap < floor:
        raise ValueError("need 1 <= floor <= cap, got %d..%d" % (floor, cap))
    return max(floor, min(cap, int(round(base / cost_units))))


def chunk_sizes(total: int, chunk: int) -> List[int]:
    """Partition ``total`` items into fixed-size chunks (last may be short).

    The partition depends only on ``total`` and ``chunk`` — never on the
    worker count — which is what keeps parallel runs deterministic.
    """
    if total < 0:
        raise ValueError("total must be non-negative, got %d" % total)
    if chunk < 1:
        raise ValueError("chunk size must be positive, got %d" % chunk)
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes
