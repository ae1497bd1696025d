"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from typing import List, Sequence

from repro.can.controller import CanController
from repro.can.fields import header_segments
from repro.can.frame import Frame
from repro.faults.injector import ScriptedInjector
from repro.faults.scenarios import ScenarioOutcome, run_single_frame_scenario


def run_one_frame(
    nodes: Sequence[CanController],
    frame: Frame = None,
    injector=None,
    max_bits: int = 20000,
) -> ScenarioOutcome:
    """Convenience wrapper over the scenario harness for tests."""
    return run_single_frame_scenario(
        "test",
        list(nodes),
        injector or ScriptedInjector(),
        frame=frame,
        max_bits=max_bits,
    )


def delivered_payloads(controller: CanController) -> List[bytes]:
    """Payload bytes of everything a controller delivered, in order."""
    return [delivery.frame.data for delivery in controller.deliveries]


def header_bits(frame: Frame) -> List[int]:
    """All stuffed-region bits of ``frame`` (SOF through CRC) before
    stuffing, in order."""
    return [bit for _, bits in header_segments(frame) for bit in bits]
