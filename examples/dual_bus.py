"""Protocol fix vs redundancy fix: MajorCAN against a dual CAN bus.

The paper's reference [2] (by the same group) pursues fault tolerance
through *media redundancy* — two independent CAN buses, every message
on both.  The paper itself pursues a *protocol* fix.  This example
puts the two side by side against the Fig. 3a disturbance pattern:

* single CAN bus: the pattern (2 errors) causes the omission;
* dual CAN bus: the same pattern on ONE channel is masked by the
  replica; striking BOTH channels (4 errors) brings the omission back;
* single MajorCAN_5 bus: consistent up to 5 errors per frame, with a
  3-11 bit frame overhead instead of a whole second bus.

Run with::

    python examples/dual_bus.py
"""

from repro.can.frame import data_frame
from repro.faults.scenarios import SCRIPTS, fig3
from repro.redundancy import DualBusSystem

FRAME = data_frame(0x123, b"\x55", message_id="cmd")


def fig3_injector(x_port, tx_port, eof_length=7):
    return SCRIPTS["fig3"].injector({"tx": [tx_port], "x": [x_port]}, eof_length)


def dual_bus_run(injectors, label):
    system = DualBusSystem(["tx", "x", "y"], injectors=injectors)
    system.node("tx").submit(FRAME)
    system.run_until_idle()
    outcome = system.classify(FRAME)
    verdict = "CONSISTENT " if outcome.consistent else "INCONSISTENT"
    print("  %-34s %s %s" % (label, verdict, outcome.counts))


def main():
    print("Fig. 3a pattern, three architectures:\n")

    single = fig3("can")
    print(
        "  %-34s %s %s"
        % (
            "single CAN bus (2 errors)",
            "INCONSISTENT" if not single.consistent else "CONSISTENT ",
            single.deliveries,
        )
    )
    dual_bus_run(
        {"A": fig3_injector("x.A", "tx.A")},
        "dual CAN, channel A hit (2 errors)",
    )
    dual_bus_run(
        {
            "A": fig3_injector("x.A", "tx.A"),
            "B": fig3_injector("x.B", "tx.B"),
        },
        "dual CAN, both channels (4 errors)",
    )
    major = fig3("majorcan")
    print(
        "  %-34s %s %s"
        % (
            "single MajorCAN_5 bus (2 errors)",
            "CONSISTENT " if major.consistent else "INCONSISTENT",
            major.deliveries,
        )
    )
    print()
    print("Redundancy masks single-channel disturbances at the cost of a")
    print("full second bus and transceivers per node; MajorCAN removes the")
    print("inconsistency class itself for 2m-7..4m-9 bits per frame, and")
    print("the two compose (see tests/test_dualbus.py::TestDualMajorCan).")


if __name__ == "__main__":
    main()
