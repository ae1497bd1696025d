"""Lazy package namespaces and what each entry point imports.

Every check that depends on which modules are loaded runs in a fresh
interpreter: once an earlier test has imported a module, an in-process
check can no longer see a wrong table entry or an eager import.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import repro
from repro._namespace import lazy_namespace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.can",
    "repro.core",
    "repro.faults",
    "repro.metrics",
    "repro.parallel",
    "repro.properties",
    "repro.protocols",
    "repro.redundancy",
    "repro.simulation",
    "repro.sweep",
    "repro.tracestore",
    "repro.traffic",
    "repro.workload",
)

#: Layers that neither ``import repro`` nor ``import repro.cli`` may load.
HEAVY = ("repro.traffic", "repro.sweep", "repro.tracestore", "repro.analysis", "numpy")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def _loaded(modules, prefix):
    return sorted(name for name in modules if name == prefix or name.startswith(prefix + "."))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    probe = (
        "import json, sys\n"
        "before = set(globals())\n"
        "from %s import *\n"
        "bound = sorted(set(globals()) - before - {'before'})\n"
        "package = sys.modules[%r]\n"
        "print(json.dumps([bound, list(package.__all__), dir(package)]))\n"
    ) % (package, package)
    bound, exported, listed = json.loads(_python("-c", probe).stdout)
    assert set(bound) == set(exported)
    assert len(exported) == len(set(exported))
    assert set(exported) <= set(listed)


def test_names_resolve_to_their_defining_objects():
    """Each exported class or function is the object its module defines."""
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            value = getattr(package, name)
            if isinstance(value, (type, types.FunctionType)) and value.__name__ == name:
                owner = sys.modules[value.__module__]
                assert getattr(owner, name) is value, (package_name, name)


def test_subpackages_reachable_after_bare_import():
    probe = (
        "import repro\n"
        "assert repro.can.Frame is repro.Frame\n"
        "assert repro.traffic.run.run_traffic is repro.run_traffic\n"
        "assert repro.analysis.verification.verify_consistency\n"
    )
    _python("-c", probe)


@pytest.mark.parametrize("module", ("repro", "repro.cli"))
def test_import_loads_no_heavy_layer(module):
    probe = "import json, sys, %s\nprint(json.dumps(sorted(sys.modules)))" % module
    modules = json.loads(_python("-c", probe).stdout)
    for prefix in HEAVY:
        assert _loaded(modules, prefix) == [], prefix


@pytest.mark.parametrize("command", ("table1", "geometry"))
def test_analytic_commands_run_without_numpy(command):
    result = _python("-X", "importtime", "-m", "repro.cli", command)
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert result.stdout
    assert "repro.analysis." + command in imported
    assert _loaded(imported, "numpy") == []


class TestLazyNamespace:
    def test_duplicate_name_raises(self):
        sys.modules["_lazy_probe"] = types.ModuleType("_lazy_probe")
        try:
            with pytest.raises(ImportError, match="'x' from both"):
                lazy_namespace("_lazy_probe", {"a": ("x",), "b": ("y", "x")})
        finally:
            del sys.modules["_lazy_probe"]

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            getattr(repro, "no_such_layer")
        with pytest.raises(AttributeError):
            getattr(repro.traffic, "__wrapped__")

    def test_first_access_caches_in_package_globals(self):
        value = repro.metrics.render_table
        assert vars(repro.metrics)["render_table"] is value
