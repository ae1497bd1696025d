"""Deterministic random-number helpers.

All stochastic components of the library (random bit-error injection,
workload generation, Monte-Carlo studies) draw from numpy generators
created through :func:`make_rng`, so every experiment is reproducible
from its seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Quoted so that importing this module does not load ``numpy.random``
#: (numpy imports that submodule lazily, on first attribute access).
SeedLike = Union[int, "np.random.Generator", None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy random generator for ``seed``.

    Accepts an integer seed, an existing generator (returned as-is, so
    components can share a stream), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list:
    """Derive ``count`` independent child generators from ``rng``."""
    return [np.random.default_rng(s) for s in rng.integers(0, 2**63 - 1, size=count)]
