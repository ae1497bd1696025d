"""Run one ``repro.cli`` invocation for the benchmark runner.

Usage (the runner builds this command)::

    python bench/child.py RESULT RUN_ID TRACE SPAWNED -- ARGV...

``SPAWNED`` is the runner's ``time.monotonic()`` just before it started
this process; the monotonic clock is system-wide, so ``ready -
SPAWNED`` is the set-up time: interpreter start, the traced modules
imported and ARGV parsed.  With ``TRACE`` = 1 the layer spans of
``tracing.py`` are installed before ``main`` runs.  The program's stdout
is left untouched; everything the runner needs goes to the JSON file
RESULT.

A speed probe runs from start to exit in traced and untraced runs
alike: every ``PROBE_INTERVAL_S`` a timer signal times a fixed loop.  On
a shared host a core's speed drifts by tens of percent over minutes
(other tenants contend for it); the loop times tell the runner how fast
the core was while the program ran.
"""

from __future__ import annotations

import importlib
import json
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.02
PROBE_LOOP = 2000


class SpeedProbe:
    """Times a fixed loop on every timer signal; keeps the durations."""

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for step in range(PROBE_LOOP):
            total += step
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.samples


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return _run(probe)
    finally:
        # A timer left running would kill the exiting interpreter with
        # SIGALRM and hide the program's own exit code.
        probe.stop()


def _run(probe: SpeedProbe) -> int:
    result_path, run_id, trace, spawned = sys.argv[1:5]
    argv = sys.argv[6:]

    import tracing

    import repro.cli

    for module in tracing.MODULES:
        importlib.import_module(module)
    repro.cli.build_parser().parse_args(argv)
    ready = time.monotonic()

    tracer = tracing.install(run_id) if trace == "1" else None
    code = repro.cli.main(argv)
    sys.stdout.flush()

    from repro.parallel.pool import shutdown_pool

    shutdown_pool()
    result = {
        "spawned": float(spawned),
        "ready": ready,
        "code": code,
        "rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "probe_samples": probe.stop(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.delta()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
