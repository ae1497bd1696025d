"""Generated batch ≡ engine differential for traffic runs.

The seeded specs of ``tests/test_traffic_backends.py`` pin known
shapes; here Hypothesis generates non-HLP :class:`TrafficSpec`\\ s —
protocol and ``m``, 2–6 nodes, periodic or Poisson sources, view noise
on all or some nodes, bursts up to bus-off length with and without
recovery, events on and off — and ``run_traffic(backend="batch")`` must
serialize to exactly the records of ``backend="engine"``.  Every window
route is reached: clean prefix only, prefix plus engine suffix, and
engine suffix from tick 0.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.metrics.export import json_line
from repro.traffic import BurstSpec, TrafficSpec, run_traffic, traffic_records

_WINDOWS = 2


@st.composite
def traffic_specs(draw):
    protocol = draw(st.sampled_from(("can", "minorcan", "majorcan")))
    n_nodes = draw(st.integers(2, 6))
    names = ["n%d" % index for index in range(n_nodes)]
    window_bits = draw(st.integers(64, 400))
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
        noise_ber=draw(st.just(0.0) | st.floats(1e-4, 2e-2)),
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
