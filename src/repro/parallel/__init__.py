"""Parallel batch execution of independent simulation trials.

Every statistical workload of the reproduction — Monte-Carlo
validation, bounded exhaustive verification, fault campaigns and the
ablation sweeps — reduces to many *independent* single-frame
simulations.  This package fans chunks of such trials out over a
``multiprocessing`` worker pool:

* :mod:`repro.parallel.seeds` — deterministic seed splitting via
  ``numpy.random.SeedSequence.spawn``, so parallel and serial runs of
  the same seed produce bit-identical aggregate results;
* :mod:`repro.parallel.pool` — the worker pool itself, with a
  zero-dependency serial fallback and a ``jobs=1`` path that executes
  tasks inline.

A task is any picklable zero-argument callable returning a picklable
partial result: callers pass ``functools.partial`` objects of the
module-level function that evaluates one chunk.

The determinism contract: callers chunk their work identically
regardless of ``jobs`` and merge partial results in chunk order, so
``jobs`` only decides *where* a chunk runs, never *what* it computes.
"""

from repro._namespace import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "pool": ("effective_jobs", "imap_tasks", "merge_stats", "run_tasks"),
        "seeds": ("adaptive_chunk", "rng_from", "spawn_seeds"),
    },
)
