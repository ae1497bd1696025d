"""Each figure's disturbance pattern is written once, in ``SCRIPTS``.

Every consumer — the figure builders, the Fig. 4 probes, the property
matrices, the campaign rounds (both backends) and the golden corpus —
must play the registry's row.  Each test checks the consumer against
the registry and then swaps the row for a different script: a consumer
that kept its own copy of the faults would not follow the swap.
"""

import pytest

from repro.analysis.batchreplay import BatchReplayEvaluator
from repro.can.bits import DOMINANT, RECESSIVE
from repro.can.fields import EOF
from repro.faults import campaigns, scenarios
from repro.faults.scenarios import (
    SCENARIOS,
    SCRIPTS,
    Script,
    make_controller,
    run_script,
)
from repro.parallel.seeds import spawn_seeds
from repro.properties import matrix
from repro.tracestore.corpus import GOLDEN_BUILDERS
from repro.tracestore.spec import spec_from_outcome

PROTOCOLS = ("can", "minorcan", "majorcan")

#: A script no figure uses: a consumer following it follows the table.
#: Its site count differs from Fig. 3's, so a consumer that counted
#: Fig. 3's faults itself would not follow it either.
SWAPPED = Script(
    views=(
        ("x", EOF, -3, DOMINANT),
        ("tx", EOF, -2, RECESSIVE),
        ("tx", EOF, -1, RECESSIVE),
    )
)

#: The protocol of each registry entry fixed to its figure's protocol.
FIXED = {"fig3a": "can", "fig3b": "minorcan", "fig5": "majorcan"}

#: The script row each registry entry plays.
ROW = {"fig3a": "fig3", "fig3b": "fig3"}

ROUND_NODES = ["critical", "bg1", "bg2", "bg3"]


def _round_roles(victim):
    return {
        "tx": ["critical"],
        "x": [victim],
        "y": [name for name in ROUND_NODES[1:] if name != victim],
    }


def _eof_length(protocol):
    return make_controller(protocol, "probe").config.eof_length


def _script_dict(script, roles, protocol="can"):
    return script.injector(roles, _eof_length(protocol)).to_dict()


def _trigger(field, index=None, state=None):
    return {
        "field": field,
        "index": index,
        "time": None,
        "state": state,
        "occurrence": 1,
        "repeat": False,
    }


class TestScriptTable:
    def test_fig3_resolves_to_the_paper_sites(self):
        roles = {"tx": ["tx"], "x": ["x"], "y": ["y"]}
        for protocol, last in (("can", 6), ("majorcan", 9)):
            assert SCRIPTS["fig3"].resolve(roles, _eof_length(protocol)) == [
                ("x", EOF, last - 1, DOMINANT),
                ("tx", EOF, last, RECESSIVE),
            ]

    def test_fig1c_is_fig1b_with_a_crash(self):
        assert SCRIPTS["fig1c"].views == SCRIPTS["fig1b"].views
        assert SCRIPTS["fig1c"].crash == "tx"


class TestEveryScenarioEntry:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_runs_as_protocol_and_m(self, name, protocol):
        outcome = SCENARIOS[name](protocol, m=3)
        resolved = FIXED.get(name, protocol)
        assert outcome.protocol.lower() == resolved
        assert outcome.deliveries.keys() == {"tx", "x", "y"}
        if resolved == "majorcan":
            assert {node.m for node in outcome.engine.nodes} == {3}
        expected = run_script(outcome.name, SCRIPTS[ROW.get(name, name)], resolved, m=3)
        assert spec_from_outcome(outcome).to_manifest() == (
            spec_from_outcome(expected).to_manifest()
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fig3_names_its_figure(self, protocol):
        expected = "fig3b" if protocol == "minorcan" else "fig3a"
        assert SCENARIOS["fig3"](protocol).name == expected

    def test_entry_follows_the_table(self, monkeypatch):
        monkeypatch.setitem(SCRIPTS, "fig1b", SWAPPED)
        outcome = SCENARIOS["fig1b"]("can")
        assert outcome.engine.injector.to_dict() == _script_dict(
            SWAPPED, {"tx": ["tx"], "x": ["x"], "y": ["y"]}
        )


class TestFixedProtocolBuilders:
    """The figure builders fixed to a protocol keep ``m`` first."""

    @pytest.mark.parametrize("builder", [scenarios.fig3a, scenarios.fig3b])
    def test_fig3_builders_take_m_then_x_count(self, builder):
        assert builder(3, 2).deliveries.keys() == {"tx", "x1", "x2", "y"}

    def test_fig5_takes_m_first(self):
        assert {node.m for node in scenarios.fig5(3).engine.nodes} == {3}

    def test_fig5_runs_under_the_protocol_passed(self):
        outcome = scenarios.fig5(protocol="can")
        assert outcome.protocol.lower() == "can"
        assert outcome.engine.injector.to_dict() == (
            scenarios.fig5().engine.injector.to_dict()
        )


class TestCampaignRounds:
    def test_engine_round_plays_fig3a(self):
        _, injector = campaigns._round_network("can", 5, ROUND_NODES, True, "bg2")
        assert injector.to_dict() == _script_dict(SCRIPTS["fig3"], _round_roles("bg2"))
        assert injector.to_dict()["view_faults"] == [
            {"node": "bg2", "trigger": _trigger(EOF, 5), "force": "d"},
            {"node": "critical", "trigger": _trigger(EOF, 6), "force": "r"},
        ]

    def test_quiet_round_is_clean(self):
        _, injector = campaigns._round_network("can", 5, ROUND_NODES, False, "bg2")
        assert injector.to_dict() == _script_dict(SCRIPTS["clean"], _round_roles("bg2"))

    def test_engine_round_follows_the_table(self, monkeypatch):
        monkeypatch.setitem(SCRIPTS, "fig3", SWAPPED)
        _, injector = campaigns._round_network("majorcan", 5, ROUND_NODES, True, "bg1")
        assert injector.to_dict() == _script_dict(
            SWAPPED, _round_roles("bg1"), protocol="majorcan"
        )

    def _batch_combos(self, monkeypatch, protocol):
        """Each attacked batch round's flip combo, with the errors the
        round reports injected."""
        seen = []
        evaluate = BatchReplayEvaluator.evaluate

        def spy(self, combos):
            seen.extend(combos)
            return evaluate(self, combos)

        monkeypatch.setattr(BatchReplayEvaluator, "evaluate", spy)
        seeds = spawn_seeds(5, 6)
        rows, _ = campaigns.run_rounds(
            protocol, 5, len(ROUND_NODES), 1.0, 0.0, 1,
            tuple(enumerate(seeds)), backend="batch",
        )
        assert len(seen) == 6
        return [(combo, row[3]) for combo, row in zip(seen, rows)]

    @pytest.mark.parametrize("protocol", ["can", "majorcan"])
    def test_batch_round_flips_the_script_sites(self, monkeypatch, protocol):
        for combo, injected in self._batch_combos(monkeypatch, protocol):
            victim = combo[0][0]
            sites = SCRIPTS["fig3"].resolve(_round_roles(victim), _eof_length(protocol))
            assert combo == tuple((node, field, index) for node, field, index, _ in sites)
            assert injected == len(sites)

    def test_batch_round_follows_the_table(self, monkeypatch):
        monkeypatch.setitem(SCRIPTS, "fig3", SWAPPED)
        for combo, injected in self._batch_combos(monkeypatch, "can"):
            sites = SWAPPED.resolve(_round_roles(combo[0][0]), _eof_length("can"))
            assert combo == tuple(site[:3] for site in sites)
            assert injected == len(sites) == 3


class TestHigherLevelMatrix:
    ROLES = {"tx": ["n0"], "x": ["n1"], "y": ["n2"]}

    def _injector(self, monkeypatch, scenario):
        seen = []
        build = matrix.build_protocol_network

        def spy(factory, n_nodes, engine_kwargs):
            seen.append(engine_kwargs["injector"])
            return build(factory, n_nodes, engine_kwargs=engine_kwargs)

        monkeypatch.setattr(matrix, "build_protocol_network", spy)
        matrix.run_hlp_cell("edcan", scenario)
        return seen[0].to_dict()

    @pytest.mark.parametrize("scenario", ["fig1c", "fig3"])
    def test_injector_is_the_registry_script(self, monkeypatch, scenario):
        assert self._injector(monkeypatch, scenario) == _script_dict(
            SCRIPTS[scenario], self.ROLES
        )

    def test_fig1c_crashes_the_transmitter(self, monkeypatch):
        script = self._injector(monkeypatch, "fig1c")
        assert script["view_faults"] == [
            {"node": "n1", "trigger": _trigger(EOF, 5), "force": "d"}
        ]
        assert script["crash_faults"] == [
            {"node": "n0", "trigger": _trigger(None, state="error_flag")}
        ]

    def test_follows_the_table(self, monkeypatch):
        monkeypatch.setitem(SCRIPTS, "fig3", SWAPPED)
        assert self._injector(monkeypatch, "fig3") == _script_dict(SWAPPED, self.ROLES)


class TestCorpusEdgeCases:
    def _manifest(self, outcome):
        manifest = spec_from_outcome(outcome).to_manifest()
        manifest.pop("name")
        return manifest

    def test_overload_primary_is_fig1a_under_minorcan(self):
        assert self._manifest(GOLDEN_BUILDERS["overload-primary-minorcan"]()) == (
            self._manifest(scenarios.fig1a("minorcan"))
        )

    def test_extended_flag_is_the_fig4_eof_bit_6_probe(self, monkeypatch):
        probes = {}
        run = scenarios.run_script

        def spy(name, script, *args):
            probes[name] = run(name, script, *args)
            return probes[name]

        monkeypatch.setattr(scenarios, "run_script", spy)
        scenarios.fig4_behaviour(5)
        monkeypatch.undo()
        assert self._manifest(GOLDEN_BUILDERS["eof-extended-flag-majorcan"]()) == (
            self._manifest(probes["Error in EOF bit 6"])
        )

    def test_edge_cases_follow_the_table(self, monkeypatch):
        monkeypatch.setitem(SCRIPTS, "fig1a", SWAPPED)
        outcome = GOLDEN_BUILDERS["overload-primary-minorcan"]()
        assert outcome.engine.injector.to_dict() == _script_dict(
            SWAPPED, {"tx": ["tx"], "x": ["x"], "y": ["y"]}, protocol="minorcan"
        )
