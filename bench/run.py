"""End-to-end benchmark of the MajorCAN reproduction.

Runs four user workloads as fresh ``repro.cli`` processes, checks every
output, and prints each metric by name with its unit::

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds N]
                         [--trace 0|1] [--out FILE]

A run repeats a workload for about ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``).  ``--trace 0`` repeats it
untraced and reports the end-to-end metrics as medians over the
repetitions; ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones; without
``--trace`` a workload gets one run of each.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out`` also writes the full result, stamped with
the host and versions, for ``bench/compare.py``.

Every invocation runs ``bench/child.py`` in its own session with
``PYTHONPATH`` pointing at this checkout's ``src``; inputs are made from
``--seed``; scratch files live under ``.bench_work`` and are removed.
See ``bench/README.md`` for why each workload and metric is in.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 2026

#: Median duration of the child's speed probe (``child.PROBE_LOOP``) on
#: an undisturbed core of the 2-vCPU Xeon VM the benchmark was set up
#: on.  Reported times are scaled by each invocation's probed speed
#: relative to this (see ``_speed``), so a core slowed by other tenants
#: does not read as a slower program; ``raw_*`` fields in ``--out`` keep
#: the times as read.
PROBE_REFERENCE_S = 6.0e-5


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def config() -> dict:
    """The benchmark definition, ``BENCHMARK.json``."""
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


def expectations() -> dict:
    """Exit codes and output fingerprints per workload, ``expected.json``."""
    return _load(os.path.join(BENCH, "expected.json"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One ``repro.cli`` process: its argv and a timeout (~5x seed median)."""

    argv: tuple
    timeout_s: float


@dataclass
class Outputs:
    """What a repetition produced, as the checks see it."""

    fingerprint: str
    items: int
    problems: List[str] = field(default_factory=list)
    #: Per-layer metrics read from the outputs rather than from spans.
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A fixed sequence of CLI invocations and the checks on its outputs."""

    item: str  # what ``items_per_s`` counts
    invocations: Callable  # (seed, work dir, params) -> [Invocation]
    outputs: Callable  # (work dir, [stdout], params) -> Outputs
    params: dict  # the benchmark's sizes
    tiny: dict  # overrides for the self-test


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _paper_invocations(seed, work, params):
    argv = (
        "traffic", "--protocol", "majorcan", "--m", "5",
        "--nodes", str(params["nodes"]),
        "--windows", str(params["windows"]),
        "--window-bits", str(params["window_bits"]),
        "--load", "0.9", "--seed", str(seed), "--no-events",
        "--backend", params["backend"],
        "--record", os.path.join(work, "profile.jsonl"),
    )
    return [Invocation(argv, params["timeout_s"])]


def _paper_outputs(work, stdouts, params):
    out = stdouts[0]
    match = re.search(r"frames: (\d+) submitted - (\d+) delivered, 0 omitted, "
                      r"0 duplicated, 0 lost", out)
    outputs = Outputs(_sha256(os.path.join(work, "profile.jsonl")),
                      int(match.group(1)) if match else 0)
    if not match or match.group(1) != match.group(2):
        outputs.problems.append("not every frame was delivered exactly once")
    if out.count(": holds") != 5:
        outputs.problems.append("an AB1-AB5 property does not hold")
    return outputs


def _spec(params):
    spec = _load(os.path.join(BENCH, "specs", params["template"]))
    spec.update(params["spec"])
    return spec


def _write_spec(work, spec):
    path = os.path.join(work, "spec.json")
    with open(path, "w") as handle:
        json.dump(spec, handle, indent=2, sort_keys=True)
    return path


def _cell_count(spec):
    axes = ("protocols", "m_values", "node_counts", "loads", "sources", "noise_bers")
    if spec.get("surface") != "traffic":
        axes = ("protocols", "m_values", "bers", "bit_rates", "bus_lengths_m",
                "payloads", "node_counts")
    count = 1
    for axis in axes:
        count *= len(spec[axis])
    return count


_SWEEP_LINE = re.compile(
    r"(\d+) cells, (\d+) evaluated, (\d+) skipped, (\d+) deferred, (\d+) stored"
    r"\n  store digest ([0-9a-f]+)"
)


def _sweep_outputs(work, stdouts, params):
    """Parse each ``sweep run`` summary and check the compacted store."""
    store = os.path.join(work, "store", "store.jsonl")
    outputs = Outputs(_sha256(store), 0)
    cells = _cell_count(_spec(params))
    evaluated = []
    match = None
    for out in stdouts:
        match = _SWEEP_LINE.search(out)
        if not match:
            outputs.problems.append("no sweep summary in the output")
            continue
        if int(match.group(1)) != cells:
            outputs.problems.append("the sweep expanded to the wrong cell count")
        evaluated.append(int(match.group(2)))
    if match and not outputs.fingerprint.startswith(match.group(6)):
        outputs.problems.append("the final store digest is not the store's")
    outputs.items = sum(evaluated)
    if outputs.items != cells:
        outputs.problems.append("evaluated %d cells, not %d" % (outputs.items, cells))
    outputs.layers["sweep.store.bytes"] = os.path.getsize(store)
    if params.get("budget"):
        outputs.layers["sweep.rerun_evaluated"] = evaluated[-1] if evaluated else -1
    return outputs


def _noisy_invocations(seed, work, params):
    spec = _write_spec(work, dict(_spec(params), traffic_seed=seed))
    argv = ("sweep", "run", spec, "--store", os.path.join(work, "store"),
            "--jobs", str(params["jobs"]))
    return [Invocation(argv, params["timeout_s"])]


def _design_invocations(seed, work, params):
    spec = _write_spec(work, _spec(params))
    store = os.path.join(work, "store")
    budgeted = ("sweep", "run", spec, "--store", store,
                "--cell-budget", str(params["budget"]))
    rerun = ("sweep", "run", spec, "--store", store)
    return ([Invocation(budgeted, params["timeout_s"])] * params["runs"]
            + [Invocation(rerun, params["timeout_s"])])


def _verify_invocations(seed, work, params):
    common = ("verify", "--protocol", "majorcan", "--m", "5")
    tail = common + ("--nodes", str(params["tail_nodes"]), "--flips", "3",
                     "--backend", "batch")
    header = common + ("--nodes", str(params["header_nodes"]), "--flips", "1",
                       "--include-header", "--backend", "batch")
    return [Invocation(tail, params["tail_timeout_s"]),
            Invocation(header, params["header_timeout_s"])]


def _verify_outputs(work, stdouts, params):
    text = "".join(stdouts)
    placements = [int(n) for n in re.findall(r"(\d+) placements over", text)]
    outputs = Outputs(hashlib.sha256(text.encode()).hexdigest(), sum(placements))
    if len(placements) != 2:
        outputs.problems.append("missing verification summaries")
    if "no counterexample" not in stdouts[0]:
        outputs.problems.append("the tail universe has a counterexample")
    if not re.search(r"placements over \d+ sites, <=1 flips: [1-9]\d* counterexamples",
                     stdouts[-1]):
        outputs.problems.append("the header universe lost its counterexamples")
    return outputs


WORKLOADS: Dict[str, Workload] = {
    "paper_profile": Workload(
        item="frames",
        invocations=_paper_invocations,
        outputs=_paper_outputs,
        params={"nodes": 32, "windows": 4, "window_bits": 6000,
                "backend": "batch", "timeout_s": 12},
        tiny={"nodes": 6, "windows": 2, "window_bits": 1500},
    ),
    "noisy_sweep": Workload(
        item="cells",
        invocations=_noisy_invocations,
        outputs=_sweep_outputs,
        params={"template": "noisy.json", "spec": {}, "jobs": 1, "timeout_s": 12},
        tiny={"spec": {"node_counts": [4], "loads": [0.9], "traffic_windows": 2,
                       "traffic_window_bits": 600}},
    ),
    "verify_m5": Workload(
        item="placements",
        invocations=_verify_invocations,
        outputs=_verify_outputs,
        params={"tail_nodes": 3, "header_nodes": 5,
                "tail_timeout_s": 12, "header_timeout_s": 5},
        tiny={"tail_nodes": 2, "header_nodes": 3},
    ),
    "design_sweep": Workload(
        item="cells",
        invocations=_design_invocations,
        outputs=_sweep_outputs,
        params={"template": "design.json", "spec": {}, "budget": 432, "runs": 4,
                "timeout_s": 5},
        tiny={"spec": {"protocols": ["can", "majorcan"], "m_values": [5],
                       "bers": [1e-5, 1e-4], "bit_rates": [1000000.0],
                       "bus_lengths_m": [40.0], "payloads": [1, 8], "node_counts": [3]},
              "budget": 2},
    ),
}


def workload_params(name: str, tiny: bool = False, **overrides) -> dict:
    """The parameters of ``name``: benchmark sizes, or self-test sizes."""
    workload = WORKLOADS[name]
    params = dict(workload.params)
    if tiny:
        params.update(workload.tiny)
    params.update(overrides)
    return params


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _child_env(work: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = work
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the invocation's session (the child and any pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _invoke(invocation: Invocation, work: str, index: int, traced: bool,
            run_id: str) -> dict:
    """Run one invocation to completion; returns its timings and outputs."""
    result_path = os.path.join(work, "child%d.json" % index)
    head = [sys.executable, CHILD, result_path, run_id, "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        head + [repr(spawned), "--", *invocation.argv],
        cwd=work, env=_child_env(work), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    timed_out = False
    try:
        stdout, stderr = proc.communicate(timeout=invocation.timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_group(proc)
        stdout, stderr = "", ""
    except BaseException:
        _kill_group(proc)
        raise
    ended = time.monotonic()
    run = {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
           "timed_out": timed_out, "wall": ended - spawned, "child": None, "speed": 1.0}
    if not timed_out and os.path.exists(result_path):
        run["child"] = _load(result_path)
        run["speed"] = _speed(run["child"]["probe_samples"])
    return run


def _speed(samples: List[float]) -> float:
    """Scale from the probed CPU speed of an invocation to the reference.

    The probe fires at even intervals of wall time, so the mean of the
    per-sample speeds weights each interval by how fast the core ran in
    it; a core's speed swings within seconds, which a median of probe
    times misses.  The fastest and slowest 5% of samples are dropped.
    """
    if not samples:
        return 1.0
    ordered = sorted(samples)
    cut = len(ordered) // 20
    kept = ordered[cut:len(ordered) - cut]
    return statistics.mean(PROBE_REFERENCE_S / sample for sample in kept)


@dataclass
class Rep:
    """One repetition of a workload: every invocation, in a fresh directory.

    ``wall`` and ``setup`` are scaled to the reference CPU speed (see
    ``PROBE_REFERENCE_S``); ``raw_wall`` and ``raw_setup`` are as timed.
    """

    traced: bool
    wall: float
    setup: float
    raw_wall: float
    raw_setup: float
    items: int
    rss_mb: float
    fingerprint: str
    problems: List[str]
    layers: Dict[str, float]
    elapsed: float = 0.0  # runner time for the repetition, set-up included


def run_rep(name: str, seed: int, params: dict, traced: bool, expected: dict,
            reference: Optional[str], parent: str, run_id: str) -> Rep:
    """Run every invocation of ``name`` once and check the outputs.

    ``reference`` is the fingerprint to match when ``expected`` records
    none for ``seed``.  A wrong output, exit code or timeout becomes one
    of the repetition's ``problems``; it does not stop the run.
    """
    workload = WORKLOADS[name]
    work = tempfile.mkdtemp(prefix="rep-", dir=parent)
    try:
        invocations = workload.invocations(seed, work, params)
        runs = [_invoke(invocation, work, index, traced, "%s-%d" % (run_id, index))
                for index, invocation in enumerate(invocations)]
        problems = []
        for index, run in enumerate(runs):
            if run["timed_out"]:
                problems.append("invocation %d timed out" % index)
            elif run["child"] is None:
                problems.append("invocation %d died: %s" % (index, run["stderr"][-300:]))
        codes = [run["code"] for run in runs]
        if codes != expected["exit_codes"]:
            problems.append("exit codes %s, expected %s" % (codes, expected["exit_codes"]))
        try:
            outputs = workload.outputs(work, [run["stdout"] for run in runs], params)
        except (OSError, ValueError, IndexError) as exc:
            outputs = Outputs("", 0, ["outputs unreadable: %s" % exc])
        problems.extend(outputs.problems)
        rerun = outputs.layers.get("sweep.rerun_evaluated")
        if "rerun_evaluated" in expected and rerun != expected["rerun_evaluated"]:
            problems.append("a completed sweep re-evaluated %s cells" % rerun)
        want = expected.get("fingerprints", {}).get(str(seed), reference)
        if want is not None and outputs.fingerprint != want:
            problems.append("fingerprint %s, expected %s" % (outputs.fingerprint[:16], want[:16]))
        complete = [run["child"] for run in runs if run["child"] is not None]
        raw_wall = sum(run["wall"] for run in runs)
        raw_setup = sum(child["ready"] - child["spawned"] for child in complete)
        wall = sum(run["wall"] * run["speed"] for run in runs)
        setup = sum((run["child"]["ready"] - run["child"]["spawned"]) * run["speed"]
                    for run in runs if run["child"] is not None)
        layers: Dict[str, float] = {}
        if traced and len(complete) == len(runs):
            # Stretching an invocation's time axis by its speed scales
            # every span duration like the end-to-end times.
            layers = tracing.layer_metrics([
                {"wall": run["wall"] * run["speed"],
                 "setup": (run["child"]["ready"] - run["child"]["spawned"]) * run["speed"],
                 "spans": [dict(span, start=span["start"] * run["speed"],
                                end=span["end"] * run["speed"])
                           for span in run["child"]["spans"]],
                 "counters": run["child"]["counters"]}
                for run in runs
            ])
            layers.update(outputs.layers)
        return Rep(
            traced=traced,
            wall=wall,
            setup=setup,
            raw_wall=raw_wall,
            raw_setup=raw_setup,
            items=outputs.items,
            rss_mb=max((child["rss_kb"] for child in complete), default=0) / 1024.0,
            fingerprint=outputs.fingerprint,
            problems=problems,
            layers=layers,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values: List[float], unit: str) -> dict:
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 params: Optional[dict] = None, expected: Optional[dict] = None) -> dict:
    """Repeat ``name`` for about ``seconds``; returns its metrics and checks.

    ``trace`` 0 gives the end-to-end metrics of untraced repetitions;
    1 alternates untraced and traced repetitions and gives the per-layer
    metrics, ``trace.overhead`` among them.  A repetition starts only
    if a typical repetition still fits in ``seconds``, and a run has at
    least one repetition of each kind it needs.
    """
    params = workload_params(name) if params is None else params
    expected = expectations()[name] if expected is None else expected
    spec = config()
    reps: List[Rep] = []
    reference = None
    os.makedirs(WORK, exist_ok=True)
    parent = tempfile.mkdtemp(prefix="run-", dir=WORK)
    start = time.monotonic()
    try:
        while True:
            begun = time.monotonic()
            traced = trace == 1 and len(reps) % 2 == 1
            rep = run_rep(name, seed, params, traced, expected, reference, parent,
                          "%s-%d" % (name, len(reps)))
            rep.elapsed = time.monotonic() - begun
            reps.append(rep)
            if reference is None and not rep.problems:
                reference = rep.fingerprint
            if trace == 1 and len(reps) < 2:
                continue
            typical = statistics.median(r.elapsed for r in reps)
            if time.monotonic() - start + typical > seconds:
                break
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    failed = sum(1 for rep in reps if rep.problems)
    result = {
        "workload": name,
        "item": WORKLOADS[name].item,
        "trace": trace,
        "attempted": len(reps),
        "failed": failed,
        "failed_share": failed / len(reps),
        "problems": sorted({p for rep in reps for p in rep.problems}),
        "reps": [{"traced": r.traced, "wall": r.wall, "setup": r.setup,
                  "raw_wall": r.raw_wall, "raw_setup": r.raw_setup, "items": r.items,
                  "rss_mb": r.rss_mb, "problems": r.problems} for r in reps],
        "metrics": {},
    }
    plain = [rep for rep in reps if not rep.traced]
    good = [rep for rep in plain if not rep.problems] or plain
    if trace == 0:
        samples = {
            "wall_s": [rep.wall for rep in good],
            "setup_s": [rep.setup for rep in good],
            "items_per_s": [rep.items / (rep.wall - rep.setup) for rep in good],
            "peak_rss_mb": [rep.rss_mb for rep in good],
        }
        for metric in spec["end_to_end"]:
            result["metrics"][metric["name"]] = _summary(samples[metric["name"]],
                                                        metric["unit"])
        return result
    traced_reps = [rep for rep in reps if rep.traced and rep.layers]
    layers = {key: statistics.median(rep.layers[key] for rep in traced_reps)
              for key in (traced_reps[0].layers if traced_reps else {})}
    if traced_reps:
        layers["trace.overhead"] = (
            statistics.median(rep.wall for rep in traced_reps)
            / statistics.median(rep.wall for rep in good) - 1.0
        )
    for metric in spec["per_layer"]:
        result["metrics"][metric["name"]] = {
            "value": layers.get(metric["name"], 0.0), "unit": metric["unit"]
        }
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return None


def stamp(seed: int, seconds: float) -> dict:
    """What a result depends on besides the code: host, versions, load."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": _loadavg(),
    }


def _print_result(result: dict) -> None:
    name = result["workload"]
    for metric, entry in result["metrics"].items():
        spread = ""
        if "q1" in entry:
            spread = "  [q1 %.6g, q3 %.6g, n=%d]" % (entry["q1"], entry["q3"], entry["n"])
        label = " (%s)" % result["item"] if metric == "items_per_s" else ""
        print("%-13s %-32s %14.6g %-6s%s%s"
              % (name, metric, entry["value"], entry["unit"], spread, label))
    print("%-13s %-32s %14.6g %-6s  [%d of %d repetitions failed]"
          % (name, "failed_share", result["failed_share"], "ratio",
             result["failed"], result["attempted"]))
    for problem in result["problems"]:
        print("%-13s problem: %s" % (name, problem))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                        "default: both")
    parser.add_argument("--out", help="also write the stamped result here (JSON)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("bench: no program at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else config()["run_seconds"]
    names = args.workload or list(WORKLOADS)
    modes = (0, 1) if args.trace is None else (args.trace,)
    header = stamp(args.seed, seconds)
    results = []
    for name in names:
        for mode in modes:
            result = run_workload(name, args.seed, seconds, mode)
            _print_result(result)
            results.append(result)
    header["loadavg_end"] = _loadavg()

    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    metrics = {}
    for result in results:
        for metric, entry in result["metrics"].items():
            key = metric if len(names) == 1 else "%s/%s" % (result["workload"], metric)
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"stamp": header, "results": results}, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
