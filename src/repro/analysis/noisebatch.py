"""Draw-order-preserving vectorised noise scans.

The engine's :class:`repro.faults.bit_errors.RandomViewErrorInjector`
realises one uniform draw per noise-eligible node per bus bit, in a
fixed order (the engine's per-tick node loop, ranked by
:func:`repro.faults.bit_errors.view_noise_ranks`).  It draws them in
blocks itself and rewinds with :func:`restore_state` and
:func:`advance` when a caller needs the scalar stream position.  That
makes a whole window's — or campaign round's — noise realisation a
*prefix* of the generator stream whose length is known in advance from
the fault-free timeline: ``bits * draw_width`` draws, where
``draw_width`` is the number of nodes the injector draws for.

This module materialises that prefix in large generator calls and
thresholds it against the BER, so the batch backends can answer the
only question that matters cheaply — *where is the first flip?* — and
dispatch:

* no flip → the realisation **is** the fault-free timeline, already
  solved in closed form (the traffic window's clean rendering, the
  batch-replay combo cache);
* a flip at draw ``i`` → the engine re-enters at tick
  ``i // draw_width`` with the generator rewound (``generator_state`` /
  ``restore_state``) or fast-forwarded (``advance``) to the exact same
  stream position, so the cascade is bit-identical to a full engine
  run at the same seed.

numpy's ``Generator.random(k)`` fills from the same PCG64 stream as
``k`` scalar ``.random()`` calls (the invariant the Monte-Carlo tail
chunk already relies on), so the vector scan preserves the engine's
draw order exactly.  Every caller passes a numpy ``Generator`` (from
:func:`repro.parallel.seeds.rng_from`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Draws per vectorised scan call: large enough to amortise the call,
#: small enough that a hit early in a long window wastes little work.
SCAN_CHUNK = 65536


def first_flip(
    rng: np.random.Generator, total: int, ber: float, chunk: int = SCAN_CHUNK
) -> Optional[int]:
    """Index of the first draw in the next ``total`` that is ``< ber``.

    Consumes draws from ``rng`` in the engine's order and returns the
    stream-relative index of the first flip, or ``None`` when the whole
    prefix is flip-free.  On a hit the generator has overshot to the
    end of the containing chunk — rewind with ``restore_state`` before
    handing the stream to an engine run.
    """
    offset = 0
    while offset < total:
        draws = rng.random(min(chunk, total - offset))
        hits = np.nonzero(draws < ber)[0]
        if hits.size:
            return offset + int(hits[0])
        offset += draws.size
    return None


def advance(rng: np.random.Generator, draws: int, chunk: int = SCAN_CHUNK) -> None:
    """Discard the next ``draws`` uniforms from ``rng``.

    Positions the stream exactly where the engine's injector would be
    after ``draws`` scalar calls, so a resumed engine continues the
    same realisation the scan classified.
    """
    while draws > 0:
        step = min(chunk, draws)
        rng.random(step)
        draws -= step


def generator_state(rng: np.random.Generator) -> dict:
    """Snapshot of ``rng``'s stream position (see ``restore_state``)."""
    return rng.bit_generator.state


def restore_state(rng: np.random.Generator, state: dict) -> None:
    """Rewind ``rng`` to a ``generator_state`` snapshot, in place.

    Restores the *same object* rather than re-creating it: campaign
    child seeds may be shared ``np.random.Generator`` instances, so the
    engine fallback must consume the original stream object from the
    restored position, exactly like the pure engine path.
    """
    rng.bit_generator.state = state
