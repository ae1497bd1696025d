"""The FTCS'98 higher-level protocols, message by message.

EDCAN, RELCAN and TOTCAN run above unmodified CAN controllers and are
the baselines MajorCAN is compared against.  This example narrates one
broadcast through each protocol — the frames on the bus, the recovery
actions, and how each behaves under (a) a transmitter crash (Fig. 1c)
and (b) the paper's new scenario (Fig. 3a), where only EDCAN keeps
Agreement and none of them is free.

Run with::

    python examples/rufino_protocols.py
"""

from repro.faults.scenarios import SCRIPTS
from repro.protocols import (
    EdcanProtocol,
    RelcanProtocol,
    TotcanProtocol,
    build_protocol_network,
    decode_message,
)

KIND_NAMES = {0: "DATA", 1: "CONFIRM", 2: "ACCEPT", 3: "RETRANS"}

#: The figure scripts' roles: n0 broadcasts, n1 is the X set.
ROLES = {"tx": ["n0"], "x": ["n1"]}


def narrate(factory, scenario):
    # The protocols run above standard CAN controllers: a 7-bit EOF.
    injector = SCRIPTS[scenario].injector(ROLES, eof_length=7)
    engine, nodes = build_protocol_network(
        factory, 4, engine_kwargs={"injector": injector, "record_bits": False}
    )
    nodes[0].broadcast(b"\xaa")
    engine.run(4000)
    engine.run_until_idle(60000)

    wire_traffic = []
    for node in nodes:
        for time, frame in node.controller.tx_successes:
            message = decode_message(frame)
            if message is not None:
                wire_traffic.append(
                    (time, node.name, KIND_NAMES[message.kind], message.key)
                )
    wire_traffic.sort()

    print("  %s / %s" % (factory.name, scenario))
    for time, sender, kind, key in wire_traffic:
        print("    t=%5d  %-3s sends %-8s for message %s" % (time, sender, kind, key))
    for node in nodes:
        status = "crashed" if not node.correct else "ok     "
        print(
            "    %-3s [%s] delivered: %s"
            % (node.name, status, node.delivered_keys or "-")
        )
    print()


def main():
    for scenario in ("clean", "fig1c", "fig3"):
        print("=" * 64)
        print("scenario:", scenario)
        print("=" * 64)
        for factory in (EdcanProtocol, RelcanProtocol, TotcanProtocol):
            narrate(factory, scenario)
    print("Summary:")
    print(" * EDCAN floods a diffusion copy per receiver: always recovers,")
    print("   never orders (and costs the most bandwidth);")
    print(" * RELCAN/TOTCAN piggyback on transmitter liveness: cheap, and")
    print("   correct under crashes — but the fig3 omission is invisible")
    print("   to them because the transmitter never failed.")


if __name__ == "__main__":
    main()
