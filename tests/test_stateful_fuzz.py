"""Stateful fuzzing of the simulation substrate.

A hypothesis rule machine drives a live bus with arbitrary interleaved
operations — frame submissions on any node, node crashes and
disconnections, bursts of random view noise, plain time advancement —
and checks global invariants after every step:

* the engine never raises;
* nothing is delivered that was never submitted (wire-level
  non-triviality);
* per-source delivery order never inverts the submission order
  (modulo adjacent duplicates from the CAN last-bit rule);
* a crashed or disconnected node logs nothing more;
* error counters remain non-negative and controllers stay in known
  states.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.can.controller import CanController
from repro.can.frame import data_frame
from repro.core.majorcan import MajorCanController
from repro.core.minorcan import MinorCanController
from repro.faults.bit_errors import RandomViewErrorInjector
from repro.simulation.engine import SimulationEngine

NODE_COUNT = 4
KNOWN_STATES = {
    "idle",
    "receiving",
    "transmitting",
    "error_flag",
    "passive_error_flag",
    "error_wait",
    "error_delim",
    "overload_flag",
    "overload_wait",
    "overload_delim",
    "intermission",
    "suspend",
    "bus_off",
    "major_flag",
    "major_quiet",
    "major_extended_flag",
}


class BusMachine(RuleBasedStateMachine):
    @initialize(
        protocol=st.sampled_from(["can", "minorcan", "majorcan"]),
        seed=st.integers(0, 2**31),
    )
    def setup(self, protocol, seed):
        classes = {
            "can": CanController,
            "minorcan": MinorCanController,
            "majorcan": MajorCanController,
        }
        self.nodes = [classes[protocol]("n%d" % i) for i in range(NODE_COUNT)]
        self.injector = RandomViewErrorInjector(0.0, seed=seed)
        self.engine = SimulationEngine(
            self.nodes, injector=self.injector, record_bits=False
        )
        self.submitted_payloads = set()
        self.sequence_counter = 0
        #: Crashed or disconnected node index -> its event count then.
        self.silenced = {}

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(node_index=st.integers(0, NODE_COUNT - 1))
    def submit_frame(self, node_index):
        node = self.nodes[node_index]
        if node.pending_transmissions > 4:
            return
        payload = bytes([node_index, self.sequence_counter % 256])
        self.sequence_counter += 1
        self.submitted_payloads.add(payload)
        node.submit(data_frame(0x100 + node_index, payload))

    @rule(bits=st.integers(1, 300))
    def advance(self, bits):
        self.engine.run(bits)

    @rule(noise=st.sampled_from([0.0, 1e-4, 1e-3]))
    def set_noise(self, noise):
        self.injector.ber_star = noise

    @rule(node_index=st.integers(1, NODE_COUNT - 1))
    def crash_node(self, node_index):
        # Keep node 0 alive so the bus never fully dies.
        self.nodes[node_index].crash()
        self.silenced[node_index] = len(self.nodes[node_index].events)

    @rule(node_index=st.integers(1, NODE_COUNT - 1))
    def disconnect_node(self, node_index):
        self.nodes[node_index].disconnect()
        self.silenced[node_index] = len(self.nodes[node_index].events)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def nothing_undelivered_was_invented(self):
        for node in self.nodes:
            for delivery in node.deliveries:
                assert delivery.frame.data in self.submitted_payloads

    @invariant()
    def per_source_order_never_inverts(self):
        for node in self.nodes:
            per_source = {}
            for delivery in node.deliveries:
                data = delivery.frame.data
                if len(data) != 2:
                    continue
                per_source.setdefault(data[0], []).append(data[1])
            for sequence in per_source.values():
                deduplicated = []
                for item in sequence:
                    if not deduplicated or deduplicated[-1] != item:
                        deduplicated.append(item)
                assert deduplicated == sorted(set(deduplicated), key=deduplicated.index)
                # strictly: the first occurrences must be increasing
                firsts = list(dict.fromkeys(sequence))
                assert firsts == sorted(firsts)

    @invariant()
    def offline_nodes_stay_silent(self):
        for node_index, events in self.silenced.items():
            node = self.nodes[node_index]
            assert node.offline
            assert len(node.events) == events

    @invariant()
    def counters_non_negative_and_states_known(self):
        for node in self.nodes:
            assert node.counters.tec >= 0
            assert node.counters.rec >= 0
            assert node.state in KNOWN_STATES


BusMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestBusFuzz = BusMachine.TestCase
