"""Quickstart: simulate a CAN bus, inject the paper's key fault, and
watch MajorCAN fix it.

Run with::

    python examples/quickstart.py
"""

from repro.can import CanController, data_frame
from repro.core import MajorCanController
from repro.faults import ScriptedInjector, Trigger, ViewFault
from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.fields import EOF
from repro.simulation import SimulationEngine


def error_free_transfer():
    """Three standard CAN nodes, one frame, no faults."""
    transmitter = CanController("tx")
    receiver_a = CanController("rx-a")
    receiver_b = CanController("rx-b")
    engine = SimulationEngine([transmitter, receiver_a, receiver_b])

    transmitter.submit(data_frame(0x123, b"\xbe\xef", message_id="hello"))
    engine.run_until_idle(5000)

    print("-- error-free transfer --")
    for node in engine.nodes:
        frames = [str(delivery.frame) for delivery in node.deliveries]
        print("  %-5s delivered: %s" % (node.name, frames))
    print("  bus busy for %d bit times" % engine.time)
    print()


def the_new_inconsistency(controller_class, label):
    """The paper's Fig. 3a disturbance pattern under a given protocol.

    Two single-bit view errors: receiver x sees a dominant level in the
    last-but-one EOF bit (and rejects); the transmitter's view of x's
    error flag is masked (and it believes the transfer succeeded).
    """
    transmitter = controller_class("tx")
    x = controller_class("x")
    y = controller_class("y")
    last = transmitter.geometry.eof_length - 1
    injector = ScriptedInjector(
        view_faults=[
            ViewFault("x", Trigger(field=EOF, index=last - 1), force=DOMINANT),
            ViewFault("tx", Trigger(field=EOF, index=last), force=RECESSIVE),
        ]
    )
    engine = SimulationEngine([transmitter, x, y], injector=injector)
    transmitter.submit(data_frame(0x123, b"\xbe\xef"))
    engine.run_until_idle(5000)

    counts = {node.name: len(node.deliveries) for node in engine.nodes}
    verdict = "CONSISTENT" if len(set(counts.values())) == 1 else "INCONSISTENT"
    print("-- Fig. 3a pattern under %-8s -> %s %s" % (label, verdict, counts))


def main():
    error_free_transfer()
    the_new_inconsistency(CanController, "CAN")
    the_new_inconsistency(MajorCanController, "MajorCAN")
    print()
    print("Standard CAN leaves x without the frame while the transmitter")
    print("believes everything went fine; MajorCAN's two-sub-field EOF and")
    print("extended error flags make every node accept.")


if __name__ == "__main__":
    main()
