"""Differential suite: the full ≤2-flip universe vs the engine oracle.

The PR-6 batchreplay extension classifies *multi-flip* combos — header
and tail sites mixed, on any subset of nodes — without engine runs.
This module sweeps the complete ≤2-flip universe (every header site
plus every EOF site, all singles and pairs, plus the clean combo) for
CAN, MinorCAN and MajorCAN at m ∈ {3, 5}, and demands

* *verdict identity*: deliveries and attempts equal the per-combo
  engine oracle everywhere, and
* *engine share < 1%*: the evaluator classifies the whole universe on
  its batch/scalar/header routes.

An empty payload keeps the universe dense but small enough for tier-1
(~500-900 combos per configuration).
"""

import itertools

import pytest

from repro.analysis.batchreplay import BatchReplayEvaluator, clear_caches
from repro.analysis.verification import header_sites
from repro.can.fields import EOF
from repro.can.frame import data_frame
from repro.faults.injector import ScriptedInjector, Trigger, ViewFault
from repro.faults.scenarios import make_controller, run_single_frame_scenario

NODE_NAMES = ("tx", "r1", "r2")
FRAME = data_frame(0x123, b"", message_id="m")

CONFIGS = [("can", 5), ("minorcan", 5), ("majorcan", 3), ("majorcan", 5)]


def full_universe(protocol, m):
    """Every header site and EOF site; all ≤2-flip combos over them."""
    probe = make_controller(protocol, "probe", m=m)
    sites = list(header_sites(NODE_NAMES, data_bits=0))
    sites += [
        (name, EOF, index)
        for name in NODE_NAMES
        for index in range(probe.geometry.eof_length)
    ]
    return (
        [()]
        + [(site,) for site in sites]
        + list(itertools.combinations(sites, 2))
    )


def engine_oracle(protocol, m, combo):
    nodes = [make_controller(protocol, name, m=m) for name in NODE_NAMES]
    faults = [
        ViewFault(name, Trigger(field=field_name, index=index), force=None)
        for name, field_name, index in combo
    ]
    outcome = run_single_frame_scenario(
        "multiflip-oracle",
        nodes,
        ScriptedInjector(view_faults=faults),
        frame=FRAME,
        record_bits=False,
    )
    return (
        tuple(outcome.deliveries[name] for name in NODE_NAMES),
        outcome.attempts,
    )


@pytest.mark.parametrize("protocol,m", CONFIGS)
def test_full_two_flip_universe_matches_engine(protocol, m):
    combos = full_universe(protocol, m)
    clear_caches()
    evaluator = BatchReplayEvaluator(protocol, m, NODE_NAMES, frame=FRAME)
    placed = evaluator.evaluate(combos)
    assert len(placed.attempts) == len(combos)
    outcomes = zip(map(tuple, placed.deliveries.tolist()), placed.attempts.tolist())
    mismatches = []
    for combo, outcome in zip(combos, outcomes):
        oracle = engine_oracle(protocol, m, combo)
        if outcome != oracle:
            mismatches.append((combo, outcome, oracle))
    assert mismatches == []
    total = sum(evaluator.stats.values())
    assert total == len(combos)
    assert evaluator.stats["engine"] / total < 0.01
