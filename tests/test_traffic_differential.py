"""Generated batch ≡ engine differential for traffic runs.

The seeded specs of ``tests/test_traffic_backends.py`` pin known
shapes; here Hypothesis generates non-HLP :class:`TrafficSpec`\\ s —
protocol and ``m``, 2–6 nodes, periodic or Poisson sources, view noise
on all or some nodes, bursts up to bus-off length with and without
recovery, events on and off — and ``run_traffic(backend="batch")`` must
serialize to exactly the records of ``backend="engine"``.  Every window
route is reached: closed form only, a closed-form prefix before the
first engine segment, and an engine segment from tick 0.  The same
strategy also generates long windows at low BERs, where a faulted
window hands the bus back to the closed-form renderer after each
recovery and runs several engine segments.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.metrics.export import json_line
from repro.traffic import BurstSpec, TrafficSpec, run_traffic, traffic_records
from repro.traffic.window import _EngineWindow

_WINDOWS = 2


@st.composite
def traffic_specs(
    draw,
    window_bits=st.integers(64, 400),
    noise_ber=st.just(0.0) | st.floats(1e-4, 2e-2),
):
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    n_nodes = draw(st.integers(2, 6))
    names = ["n%d" % index for index in range(n_nodes)]
    window_bits = draw(window_bits)
    source = draw(st.sampled_from(("periodic", "poisson")))
    noise_nodes = draw(
        st.none() | st.lists(st.sampled_from(names), unique=True).map(tuple)
    )
    bursts = draw(
        st.lists(
            st.builds(
                BurstSpec,
                node=st.sampled_from(names),
                start=st.integers(0, window_bits),
                length=st.integers(1, 600),
                window=st.integers(-1, _WINDOWS - 1),
            ),
            max_size=2,
        )
    )
    return TrafficSpec(
        name="generated",
        protocol=protocol,
        m=draw(st.sampled_from((3, 5))),
        n_nodes=n_nodes,
        windows=_WINDOWS,
        window_bits=window_bits,
        source=source,
        load=draw(st.floats(0.2, 1.5)),
        rate_per_bit=draw(st.floats(1e-3, 1e-2)) if source == "poisson" else 0.0,
        seed=draw(st.integers(0, 2**16)),
        noise_ber=draw(noise_ber),
        noise_nodes=noise_nodes,
        bursts=tuple(bursts),
        bus_off_recovery=draw(st.booleans()),
        record_events=draw(st.booleans()),
    )


def _records(spec, backend):
    try:
        outcome = run_traffic(spec, jobs=1, backend=backend)
    except SimulationError as exc:
        return str(exc)
    return [json_line(record) for record in traffic_records(outcome)]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(traffic_specs())
def test_batch_records_equal_engine_records(spec):
    assert _records(spec, "batch") == _records(spec, "engine")


#: Long windows at low BERs: a faulted window hands the bus back to the
#: closed-form renderer after each recovery and runs several engine
#: segments.
long_noisy_specs = traffic_specs(
    window_bits=st.integers(1000, 3000),
    noise_ber=st.floats(-5.0, math.log10(3e-3)).map(lambda exponent: 10**exponent),
)


def test_long_noisy_windows_batch_records_equal_engine_records(monkeypatch):
    # Spy on the engine-segment driver: every window's engine counts
    # the segments it ran, so the run shows that hand-backs happened.
    segments = []
    run_segment = _EngineWindow.run_segment

    def spy(self, cut, *args):
        self.segments_run = getattr(self, "segments_run", 0) + 1
        segments.append(self.segments_run)
        return run_segment(self, cut, *args)

    monkeypatch.setattr(_EngineWindow, "run_segment", spy)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(long_noisy_specs)
    def check(spec):
        assert _records(spec, "batch") == _records(spec, "engine")

    check()
    assert max(segments) >= 2
