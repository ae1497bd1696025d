"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

A is the baseline and B the candidate, both written by ``bench/run.py
--out``.  For every workload and end-to-end metric it prints each
side's median and quartiles, the metric's bound from ``BENCHMARK.json``
and a verdict:

* ``ok``: B is not worse than A by more than the bound;
* ``regressed``: B is worse than A by more than the bound;
* ``unresolved``: the quartile spread of either side, as a share of its
  median, exceeds the bound, so the difference cannot be judged.

``failed_share`` has a bound of 0: any rise regresses.  Per-layer
metrics have no bound; they are listed with the change for reference.
Exits 1 when anything regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _by_workload(result_file: dict) -> dict:
    """workload -> {"end_to_end": metrics, "per_layer": metrics, "failed_share"}."""
    merged: dict = {}
    for result in result_file["results"]:
        entry = merged.setdefault(
            result["workload"], {"end_to_end": {}, "per_layer": {}, "failed": 0, "attempted": 0}
        )
        entry["end_to_end" if result["trace"] == 0 else "per_layer"].update(result["metrics"])
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
    for entry in merged.values():
        entry["failed_share"] = entry["failed"] / entry["attempted"]
    return merged


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def verdict(base: dict, candidate: dict, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric's summaries."""
    if max(_spread(base), _spread(candidate)) > bound:
        return "unresolved"
    change = (candidate["value"] - base["value"]) / base["value"]
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def _stamp_line(label: str, stamp: dict) -> str:
    return "%s: commit %s, seed %s, %s CPUs, python %s, numpy %s, load %s -> %s" % (
        label, (stamp.get("commit") or "-")[:12], stamp.get("seed"), stamp.get("cpu_count"),
        stamp.get("python"), stamp.get("numpy"), stamp.get("loadavg_start"),
        stamp.get("loadavg_end"),
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE.json CANDIDATE.json", file=sys.stderr)
        return 2
    base_file, candidate_file = _load(argv[0]), _load(argv[1])
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    print(_stamp_line("A", base_file["stamp"]))
    print(_stamp_line("B", candidate_file["stamp"]))
    base, candidate = _by_workload(base_file), _by_workload(candidate_file)
    row = "%-13s %-30s %12s %25s %12s %25s %7s  %s"
    print(row % ("workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
                 "bound", "verdict"))
    regressed = False
    for name in [name for name in base if name in candidate]:
        a, b = base[name], candidate[name]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                continue
            x, y = a["end_to_end"][key], b["end_to_end"][key]
            outcome = verdict(x, y, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            print(row % (name, key, "%.6g" % x["value"], "[%.6g, %.6g]" % (x["q1"], x["q3"]),
                         "%.6g" % y["value"], "[%.6g, %.6g]" % (y["q1"], y["q3"]),
                         "%.2f" % metric["bound"], outcome))
        worse = b["failed_share"] > a["failed_share"]
        regressed |= worse
        print(row % (name, "failed_share", "%.3g" % a["failed_share"], "",
                     "%.3g" % b["failed_share"], "", "0", "regressed" if worse else "ok"))
    print("\nper-layer metrics (no bound; rows where both sides are 0 omitted)")
    layer_row = "%-13s %-32s %12s %12s %9s"
    print(layer_row % ("workload", "metric", "A", "B", "change"))
    for name in [name for name in base if name in candidate]:
        a, b = base[name]["per_layer"], candidate[name]["per_layer"]
        for metric in bench["per_layer"]:
            key = metric["name"]
            if key in a and key in b and (a[key]["value"] or b[key]["value"]):
                x, y = a[key]["value"], b[key]["value"]
                change = "%+.1f%%" % (100.0 * (y - x) / x) if x else ""
                print(layer_row % (name, key, "%.6g" % x, "%.6g" % y, change))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
