"""API surface tests: the documented entry points exist and are wired.

These catch accidental breakage of the public interface (renames,
missed re-exports) that unit tests importing the private modules would
not notice.
"""

import contextlib
import io
import os
import re

import repro
import repro.analysis
import repro.can
import repro.core
import repro.faults
import repro.metrics
import repro.parallel
import repro.properties
import repro.protocols
import repro.redundancy
import repro.simulation
import repro.tracestore
import repro.traffic
import repro.workload


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_classes(self):
        assert repro.CanController.protocol_name == "CAN"
        assert repro.MinorCanController.protocol_name == "MinorCAN"
        assert repro.MajorCanController.protocol_name == "MajorCAN"
        assert callable(repro.SimulationEngine)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_tracestore_entry_points(self):
        assert callable(repro.load_trace)
        assert callable(repro.replay_trace)
        assert callable(repro.check_corpus)
        assert repro.tracestore.SCHEMA_VERSION == 1
        assert repro.tracestore.TRAFFIC_SCHEMA_VERSION == 2

    def test_traffic_entry_points(self):
        assert callable(repro.TrafficSpec)
        assert callable(repro.run_traffic)
        assert callable(repro.record_traffic)


class TestSubpackageAllLists:
    def test_every_all_entry_exists(self):
        for module in (
            repro.analysis,
            repro.can,
            repro.core,
            repro.faults,
            repro.metrics,
            repro.parallel,
            repro.properties,
            repro.protocols,
            repro.redundancy,
            repro.simulation,
            repro.tracestore,
            repro.traffic,
            repro.workload,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_scenario_registry_complete(self):
        assert set(repro.faults.SCENARIOS) == {
            "fig1a",
            "fig1b",
            "fig1c",
            "fig3",
            "fig3a",
            "fig3b",
            "fig5",
        }

    def test_protocol_registries(self):
        assert set(repro.faults.PROTOCOLS) == {"can", "minorcan", "majorcan"}
        assert set(repro.protocols.PROTOCOL_FACTORIES) == {
            "edcan",
            "relcan",
            "totcan",
        }


class TestDocstrings:
    def test_public_callables_are_documented(self):
        import inspect

        undocumented = []
        for module in (
            repro.analysis,
            repro.can,
            repro.core,
            repro.faults,
            repro.metrics,
            repro.parallel,
            repro.properties,
            repro.protocols,
            repro.redundancy,
            repro.simulation,
            repro.tracestore,
            repro.traffic,
            repro.workload,
        ):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append("%s.%s" % (module.__name__, name))
        assert undocumented == []


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestReadme:
    def test_thirty_second_example_runs_as_printed(self):
        """README's "Thirty-second example" runs and prints the verdict
        its comment promises."""
        with open(README, encoding="utf-8") as handle:
            section = handle.read().split("## Thirty-second example", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        assert out.getvalue() == "{'tx': 1, 'x': 1, 'y': 1}\n"
