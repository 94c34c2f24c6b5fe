"""The unified backbone API and its deprecation shims.

Two promises are pinned here:

* every backbone construction is reachable through
  ``repro.backbone.build(name, graph, ...)`` and returns a
  :class:`BackboneResult`; and
* every pre-redesign signature still works but emits exactly one
  ``DeprecationWarning`` — while no *internal* call site does (the
  whole test suite runs with ``error::DeprecationWarning``).
"""

import warnings

import pytest

from repro.backbone import (
    BackboneAlgorithm,
    BackboneResult,
    CentralizedAlgorithm,
    as_backbone_result,
    build,
    get,
    names,
)
from repro.graphs import connected_random_udg, line_udg
from repro.sim import SimConfig, UniformLatency
from repro.sim.stats import SimStats
from repro.wcds.base import WCDSResult


@pytest.fixture(scope="module")
def graph():
    return connected_random_udg(25, 3.6, seed=4)


class TestRegistry:
    def test_expected_names_registered(self):
        expected = {
            "algorithm1", "algorithm2", "mis", "wu-li-distributed",
            "algorithm1-centralized", "algorithm2-centralized",
            "greedy-wcds", "greedy-cds", "wu-li", "mis-tree",
        }
        assert expected <= set(names())

    def test_distributed_filter(self):
        distributed = set(names(distributed=True))
        centralized = set(names(distributed=False))
        assert "algorithm1" in distributed
        assert "algorithm1-centralized" in centralized
        assert distributed.isdisjoint(centralized)
        assert distributed | centralized == set(names())

    def test_entries_satisfy_protocol(self):
        for name in names():
            assert isinstance(get(name), BackboneAlgorithm), name

    def test_unknown_name_raises_keyerror(self, graph):
        with pytest.raises(KeyError):
            build("no-such-algorithm", graph)

    @pytest.mark.parametrize("name", ["algorithm1", "algorithm2", "mis",
                                      "wu-li-distributed"])
    def test_distributed_builds_return_backbone_result(self, graph, name):
        result = build(name, graph, seed=3)
        assert isinstance(result, BackboneResult)
        assert result.algorithm == name
        assert result.dominators

    @pytest.mark.parametrize("name", ["algorithm1-centralized",
                                      "algorithm2-centralized",
                                      "greedy-wcds", "mis-tree"])
    def test_centralized_builds_return_backbone_result(self, graph, name):
        result = build(name, graph)
        assert isinstance(result, BackboneResult)
        assert result.algorithm == name

    def test_same_seed_same_backbone(self, graph):
        a = build("algorithm2", graph, seed=9)
        b = build("algorithm2", graph, seed=9)
        assert a.dominators == b.dominators

    def test_centralized_rejects_transport(self, graph):
        with pytest.raises(ValueError, match="centralized"):
            build("greedy-wcds", graph, transport=True)

    def test_centralized_rejects_faulty_sim(self, graph):
        from repro.faults import Crash, FaultPlan

        config = SimConfig(fault_plan=FaultPlan(crashes=(Crash(1.0, 0),)))
        with pytest.raises(ValueError, match="centralized"):
            build("mis-tree", graph, sim=config)


class TestCoercion:
    def test_backbone_result_gets_name(self):
        r = as_backbone_result(
            BackboneResult(
                dominators=frozenset({1}), mis_dominators=frozenset({1})
            ),
            "x",
        )
        assert r.algorithm == "x"

    def test_wcds_result_upgraded(self):
        r = as_backbone_result(
            WCDSResult(
                dominators=frozenset({1, 2}),
                mis_dominators=frozenset({1}),
                additional_dominators=frozenset({2}),
            ),
            "y",
        )
        assert isinstance(r, BackboneResult)
        assert r.mis_dominators == frozenset({1})

    def test_bare_set_and_tuple(self):
        r = as_backbone_result({1, 2}, "z")
        assert r.dominators == frozenset({1, 2})
        stats = SimStats()
        r = as_backbone_result(({3}, stats), "z")
        assert r.dominators == frozenset({3})
        assert r.meta["stats"] is stats

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            as_backbone_result(42, "bad")


def _exactly_one_deprecation(fn):
    """Run ``fn`` asserting it emits exactly one DeprecationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1, [str(w.message) for w in caught]
    return out


class TestDeprecationShims:
    """Every old signature works, warns once, and agrees with the new
    entry point."""

    def test_simulator_legacy_kwargs_removed(self):
        # The Simulator shim was removed after a deprecation cycle: the
        # loose kwargs now fail fast instead of warning.
        from repro.sim import Simulator
        from repro.sim.node import ProtocolNode

        class Quiet(ProtocolNode):
            pass

        g = line_udg(3)
        with pytest.raises(TypeError):
            Simulator(g, Quiet, latency=UniformLatency(seed=1), seed=2)

    def test_run_protocol_legacy_kwargs_removed(self):
        from repro.sim import run_protocol
        from repro.sim.node import ProtocolNode

        class Quiet(ProtocolNode):
            pass

        g = line_udg(3)
        with pytest.raises(TypeError):
            run_protocol(g, Quiet, loss_rate=0.0, seed=1)

    def test_elect_leader_latency(self, graph):
        from repro.election import elect_leader

        old = _exactly_one_deprecation(
            lambda: elect_leader(graph, latency=UniformLatency(seed=3))
        )
        assert old.leader == elect_leader(graph).leader

    def test_converge_cast_latency(self, graph):
        from repro.election import converge_cast

        values = {n: 1 for n in graph.nodes()}
        total, _ = _exactly_one_deprecation(
            lambda: converge_cast(
                graph, values, lambda a, b: a + b,
                latency=UniformLatency(seed=3),
            )
        )
        assert total == graph.num_nodes

    def test_algorithm1_latency(self, graph):
        from repro.wcds import algorithm1_distributed

        result = _exactly_one_deprecation(
            lambda: algorithm1_distributed(graph, latency=UniformLatency(seed=3))
        )
        result.validate(graph)

    def test_algorithm2_latency(self, graph):
        from repro.wcds import algorithm2_distributed

        result = _exactly_one_deprecation(
            lambda: algorithm2_distributed(graph, latency=UniformLatency(seed=3))
        )
        result.validate(graph)

    def test_wu_li_distributed_latency(self, graph):
        from repro.baselines import wu_li_distributed

        cds, _ = _exactly_one_deprecation(
            lambda: wu_li_distributed(graph, latency=UniformLatency(seed=3))
        )
        assert cds

    def test_flood_protocol_latency(self, graph):
        from repro.routing import flood_protocol

        outcome, _ = _exactly_one_deprecation(
            lambda: flood_protocol(graph, 0, latency=UniformLatency(seed=3))
        )
        assert outcome.full_coverage

    def test_backbone_protocol_latency(self, graph):
        from repro.routing import backbone_protocol
        from repro.wcds import algorithm2_distributed

        result = algorithm2_distributed(graph)
        outcome, _ = _exactly_one_deprecation(
            lambda: backbone_protocol(
                graph, result, 0, latency=UniformLatency(seed=3)
            )
        )
        assert outcome.full_coverage

    def test_build_routing_tables_latency(self, graph):
        from repro.routing import build_routing_tables
        from repro.wcds import algorithm2_distributed

        result = algorithm2_distributed(graph)
        tables, _ = _exactly_one_deprecation(
            lambda: build_routing_tables(
                graph, result, latency=UniformLatency(seed=3)
            )
        )
        assert tables

    def test_new_signatures_do_not_warn(self, graph):
        # Redundant with the suite-wide error filter, but explicit:
        # the unified signatures are warning-free.
        from repro.wcds import algorithm2_distributed

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            algorithm2_distributed(
                graph, sim=SimConfig(latency=UniformLatency(seed=3))
            )
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestCentralizedAdapterGuards:
    def test_centralized_adapter_is_not_distributed(self):
        entry = get("greedy-wcds")
        assert isinstance(entry, CentralizedAlgorithm)
        assert entry.distributed is False
