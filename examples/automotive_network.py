"""An automotive-style network: a safety-critical broadcast under fire.

The paper's motivation is distributed control in vehicles, where a
message that half the ECUs never saw (an inconsistently omitted brake
command) is a safety hazard.  Operationally such events are rare —
Table 1 puts them at 1e-6..1e-3 per *hour* — so this example makes
them observable by injecting the paper's Fig. 3 tail-disturbance
pattern into a fraction of the rounds, on top of background traffic
from seven other ECUs.

Each round: the ``brakes`` ECU broadcasts a command (highest priority,
first on the bus) while other ECUs queue background frames.  With
probability ``ATTACK_PROBABILITY`` the round suffers the two-bit
disturbance of Fig. 3a: one receiver's view of the last-but-one EOF
bit is hit, and the transmitter's view of the resulting error flag is
masked.

Run with::

    python examples/automotive_network.py
"""

from repro.can import CanController, data_frame
from repro.core import MajorCanController, MinorCanController
from repro.faults.scenarios import SCRIPTS
from repro.metrics import render_table
from repro.simulation import SimulationEngine, make_rng

ECU_NAMES = [
    "brakes",      # the critical broadcaster
    "engine",
    "steering",
    "gearbox",
    "airbag",
    "dashboard",
    "lights",
    "gateway",
]

ROUNDS = 40
ATTACK_PROBABILITY = 0.35
SEED = 2000


def run_round(controller_class, attacked, victim):
    """One round: the brake command plus background traffic."""
    controllers = [controller_class(name) for name in ECU_NAMES]
    brakes = controllers[0]
    injector = SCRIPTS["fig3" if attacked else "clean"].injector(
        {"tx": ["brakes"], "x": [victim]}, brakes.geometry.eof_length
    )
    engine = SimulationEngine(controllers, injector=injector, record_bits=False)
    command = data_frame(0x010, b"\xb0\x01", message_id="brake-cmd")
    brakes.submit(command)
    for index, controller in enumerate(controllers[1:], start=1):
        controller.submit(
            data_frame(0x100 + index, bytes([index]), message_id="bg-%d" % index)
        )
    engine.run_until_idle(60000)
    key = (
        command.can_id.value,
        command.can_id.extended,
        command.remote,
        command.dlc,
        command.data,
    )
    counts = [
        sum(1 for delivery in controller.deliveries if delivery.wire_key() == key)
        for controller in controllers
    ]
    return counts


def campaign(controller_class, label):
    rng = make_rng(SEED)
    consistent = omitted = duplicated = attacks = 0
    for _ in range(ROUNDS):
        attacked = rng.random() < ATTACK_PROBABILITY
        victim = ECU_NAMES[1 + int(rng.integers(0, len(ECU_NAMES) - 1))]
        attacks += int(attacked)
        counts = run_round(controller_class, attacked, victim)
        if any(count == 0 for count in counts) and any(count > 0 for count in counts):
            omitted += 1
        elif any(count > 1 for count in counts):
            duplicated += 1
        else:
            consistent += 1
    return {
        "protocol": label,
        "rounds": ROUNDS,
        "attacked rounds": attacks,
        "consistent": consistent,
        "omitted (IMO)": omitted,
        "duplicated": duplicated,
    }


def main():
    print(
        "%d rounds of a brake command over %d ECUs; %d%% of rounds suffer"
        % (ROUNDS, len(ECU_NAMES), int(100 * ATTACK_PROBABILITY))
    )
    print("the Fig. 3a two-bit tail disturbance.\n")
    rows = [
        campaign(CanController, "CAN"),
        campaign(MinorCanController, "MinorCAN"),
        campaign(MajorCanController, "MajorCAN_5"),
    ]
    print(
        render_table(
            rows,
            columns=[
                "protocol",
                "rounds",
                "attacked rounds",
                "consistent",
                "omitted (IMO)",
                "duplicated",
            ],
            title="Brake-command consistency per protocol",
        )
    )
    print()
    print("Every attacked round becomes an inconsistent omission under CAN")
    print("and MinorCAN: some ECUs actuate the brake command, some never")
    print("see it, and the transmitter believes all is well.  MajorCAN_5")
    print("delivers the command to every ECU in every round.")


if __name__ == "__main__":
    main()
