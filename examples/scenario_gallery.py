"""Scenario gallery: every figure of the paper as a simulation, with
the per-node d/r timelines the figures use.

Run with::

    python examples/scenario_gallery.py
"""

from repro.faults import (
    fig1a,
    fig1b,
    fig1c,
    fig3,
    fig4_behaviour,
    fig5,
    render_behaviour,
)


def show(outcome, description):
    print("=" * 72)
    print("%s" % description)
    print("  " + outcome.summary())
    eof_times = outcome.trace.position_times("tx", "EOF", 0)
    if eof_times:
        start = max(eof_times[0] - 3, 0)
        window = outcome.trace.render_timeline(
            list(outcome.deliveries), start=start, end=start + 34
        )
        print("  timeline around the EOF (d/r as in the paper's figures):")
        for line in window.splitlines():
            print("    " + line)
    print()


def main():
    show(
        fig1a("can"),
        "Fig. 1a  CAN: X sees dominant in the LAST EOF bit -> last-bit rule,\n"
        "         overload flag, everyone keeps the frame.",
    )
    show(
        fig1b("can"),
        "Fig. 1b  CAN: X sees dominant in the LAST-BUT-ONE EOF bit -> X\n"
        "         rejects, tx retransmits, Y receives TWICE.",
    )
    show(
        fig1c("can"),
        "Fig. 1c  CAN: as 1b but the transmitter crashes before the\n"
        "         retransmission -> inconsistent message omission.",
    )
    show(
        fig1b("minorcan"),
        "Fig. 2   MinorCAN on the 1b pattern: nobody sees a primary error,\n"
        "         consistent rejection + one retransmission.",
    )
    show(
        fig3("can"),
        "Fig. 3a  CAN: one extra disturbance masks X's error flag from the\n"
        "         transmitter -> IMO with a CORRECT transmitter.",
    )
    show(
        fig3("minorcan"),
        "Fig. 3b  MinorCAN: the transmitter's reactive overload flag fakes\n"
        "         a primary error for Y -> same IMO.",
    )
    show(
        fig3("majorcan"),
        "Fig. 3   MajorCAN_5: the same two disturbances -> extended error\n"
        "         flags notify acceptance, every node delivers.",
    )
    show(
        fig5(),
        "Fig. 5   MajorCAN_5 under FIVE errors: X errs at EOF bit 3, the\n"
        "         transmitter is masked to bit 6 and extends, two samples\n"
        "         of Y are corrupted -> still consistent.",
    )

    print("=" * 72)
    print("Fig. 4  Behaviour of a MajorCAN_5 node per error position:")
    for line in render_behaviour(fig4_behaviour(5)):
        print("    " + line)


if __name__ == "__main__":
    main()
