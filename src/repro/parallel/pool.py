"""The worker pool: fan picklable tasks out over processes.

A task is any picklable zero-argument callable — in practice a
``functools.partial`` of a module-level function — and its result is
``task()``.  ``imap_tasks`` and ``run_tasks`` are the entry points the
analysis layer uses.  Their contract:

* ``jobs=1`` executes tasks inline in submission order — byte-for-byte
  the serial behaviour, with no ``multiprocessing`` machinery touched;
* ``jobs>1`` maps the same tasks over a process pool, *preserving
  submission order* in the returned results, so merging partial results
  is identical either way;
* if a pool cannot be created (sandboxes without semaphore support,
  restricted platforms), it silently falls back to the serial path —
  the results are the same, only slower.

``jobs=None``/``0`` resolves through ``REPRO_JOBS`` (then 1) and a
negative ``jobs`` means "all visible CPUs".

The pool itself is created lazily and *reused* across calls: CLI
subcommands and sweeps that fan out repeatedly (ablation rows, chunked
verification, Monte-Carlo batches) pay the process start-up and import
cost once instead of per call.  Workers are forked (the Linux default),
so they inherit the parent's warm caches and fill the rest on demand.
The cached pool is replaced when a different worker count is
requested, recycled by ``maxtasksperchild`` to bound worker memory
growth, discarded on any failure mid-map, and torn down at interpreter
exit.  None of this
changes results: tasks are deterministic functions of their arguments,
so which process runs them — fresh or reused — is unobservable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Dict, Iterable, List, Optional

#: Tasks a worker processes before it is replaced.  High enough that
#: recycling never dominates, low enough to bound the memory of
#: long-lived workers accumulating per-task allocations.
MAXTASKSPERCHILD = 512

_POOL = None
_POOL_WORKERS = 0


def cpu_count() -> int:
    """Number of CPUs this process may actually use."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``None``/``0`` consult the ``REPRO_JOBS`` environment variable and
    default to 1 (serial); negative values mean every visible CPU.
    """
    if jobs is None or jobs == 0:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 1
        else:
            jobs = 1
    if jobs < 0:
        jobs = cpu_count()
    return max(1, jobs)


def oversubscription_notice(jobs: Optional[int]) -> Optional[str]:
    """A ``notice:`` line when ``jobs`` resolves to more workers than
    :func:`cpu_count`, else None.

    The worker count is left as requested (results never depend on
    it); the notice only says that the workers will share CPUs, which
    makes a parallel run slower than a serial one.
    """
    workers, cpus = effective_jobs(jobs), cpu_count()
    if workers <= cpus:
        return None
    return "notice: %d workers requested on %d usable CPU%s; they will share them" % (
        workers,
        cpus,
        "" if cpus == 1 else "s",
    )


def execute(task):
    """Run one task (the pool's map function — must be module level)."""
    return task()


def _get_pool(workers: int):
    """Return the shared pool for ``workers``, creating or resizing it.

    Returns ``None`` when no pool can be created on this platform.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    shutdown_pool()
    try:
        _POOL = multiprocessing.get_context().Pool(
            processes=workers, maxtasksperchild=MAXTASKSPERCHILD
        )
        _POOL_WORKERS = workers
    except (ImportError, OSError, PermissionError, ValueError):
        _POOL = None
        _POOL_WORKERS = 0
    return _POOL


def shutdown_pool(terminate: bool = False) -> None:
    """Tear down the shared pool (idempotent; also runs at exit).

    ``terminate=True`` stops the workers at once instead of letting
    them finish queued work — for a pool whose state is suspect.
    """
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()


atexit.register(shutdown_pool)


def imap_tasks(tasks: Iterable, jobs: Optional[int] = None):
    """Yield task results one by one, in submission order.

    For drivers that persist partial results as they arrive (the sweep
    engine appends each chunk to its store the moment it completes, so
    an interrupted run keeps everything finished so far).  ``jobs=1``
    and a platform without process support execute inline; the pool
    path preserves submission order.
    """
    workers = effective_jobs(jobs)
    pool = _get_pool(workers) if workers > 1 else None
    if pool is None:
        for task in tasks:
            yield task()
        return
    iterator = pool.imap(execute, tasks)
    while True:
        try:
            result = next(iterator)
        except StopIteration:
            return
        except BaseException:
            # A worker died or a task raised: the pool may hold queued
            # work, so never hand it to the next caller.
            shutdown_pool(terminate=True)
            raise
        try:
            yield result
        except BaseException:
            # The consumer abandoned the stream (GeneratorExit) or threw
            # into it: queued chunks may still be in flight, so the pool
            # is not safe to hand to the next caller.
            shutdown_pool(terminate=True)
            raise


def run_tasks(tasks: Iterable, jobs: Optional[int] = None) -> List:
    """Execute ``tasks`` and return their results in submission order."""
    return list(imap_tasks(tasks, jobs))


def merge_stats(parts: Iterable[Optional[Dict[str, int]]]) -> Dict[str, int]:
    """Sum per-chunk provenance counters, in chunk order.

    A part may be ``None`` or empty (the engine backend reports none);
    the merged dict is then empty too, and drivers that publish
    ``None`` for "no counters" write ``merge_stats(...) or None``.
    """
    merged: Dict[str, int] = {}
    for part in parts:
        for key, value in (part or {}).items():
            merged[key] = merged.get(key, 0) + value
    return merged
