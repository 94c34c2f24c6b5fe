"""The unified backbone API and its one way to configure a run.

Two promises are pinned here:

* every backbone construction is reachable through
  ``repro.backbone.build(name, graph, ...)`` and returns a
  :class:`BackboneResult`; and
* the protocol entry points learn their environment only from
  ``sim=SimConfig(...)``: the loose pre-redesign keywords fail fast.
"""

import warnings

import pytest

from repro.baselines import wu_li_distributed
from repro.backbone import (
    BackboneAlgorithm,
    BackboneResult,
    CentralizedAlgorithm,
    as_backbone_result,
    build,
    get,
    names,
)
from repro.election import converge_cast, elect_leader
from repro.graphs import connected_random_udg, line_udg
from repro.mis import run_mis
from repro.obs import Tracer
from repro.routing import backbone_protocol, build_routing_tables, flood_protocol
from repro.sim import SimConfig, UniformLatency
from repro.sim.stats import SimStats
from repro.wcds import algorithm1_distributed, algorithm2_distributed
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
        result = build(name, graph, sim=SimConfig(seed=3))
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
        a = build("algorithm2", graph, sim=SimConfig(seed=9))
        b = build("algorithm2", graph, sim=SimConfig(seed=9))
        assert a.dominators == b.dominators

    @pytest.mark.parametrize("name", names(distributed=True))
    def test_distributed_build_opens_one_root_span(self, graph, name):
        tracer = Tracer()
        build(name, graph, tracer=tracer)
        assert len(tracer.roots) == 1

    def test_centralized_rejects_transport(self, graph):
        with pytest.raises(ValueError, match="centralized"):
            build("greedy-wcds", graph, sim=SimConfig(transport=True))

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


#: Every public protocol entry point, with the positional arguments it
#: takes after the graph, and whether it is a distributed backbone
#: construction.  The loose keywords fail at call binding, so the
#: placeholder arguments are never used.
ENTRY_POINTS = [
    (elect_leader, (), False),
    (converge_cast, ({}, max), False),
    (algorithm1_distributed, (), True),
    (algorithm2_distributed, (), True),
    (run_mis, (), True),
    (wu_li_distributed, (), True),
    (flood_protocol, (0,), False),
    (backbone_protocol, (None, 0), False),
    (build_routing_tables, (None,), False),
]


class TestDeprecationShims:
    """The loose pre-``SimConfig`` keywords finished their deprecation
    cycle: every entry point now rejects them."""

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

    @pytest.mark.parametrize(
        "fn, args, distributed", ENTRY_POINTS,
        ids=[fn.__name__ for fn, _, _ in ENTRY_POINTS],
    )
    def test_entry_points_reject_loose_keywords(
        self, graph, fn, args, distributed
    ):
        with pytest.raises(TypeError):
            fn(graph, *args, latency=UniformLatency(seed=3))
        if distributed:
            # The seed is a SimConfig field, not a keyword.
            with pytest.raises(TypeError):
                fn(graph, seed=3)

    def test_new_signatures_do_not_warn(self, graph):
        # Redundant with the suite-wide error filter, but explicit:
        # the unified signatures are warning-free.
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
