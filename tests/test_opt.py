"""The optimality-oracle stack: LP-pruned exact search, heuristics,
certificates, and the satellite fixes in the baseline oracle.

The exact engine is cross-validated three ways: against itself with LP
pruning on vs off (bit-identical sets, not just sizes), against the
independent combinatorial oracle of ``repro.baselines.exact``, and
against a from-scratch brute force over subsets on tiny hypothesis
graphs.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.opt._scipy as opt_scipy
from repro.baselines.exact import (
    certify_wcds_optimality,
    exact_minimum_cds,
    exact_minimum_dominating_set,
    exact_minimum_wcds,
)
from repro.baselines.mis_cds import mis_tree_cds
from repro.graphs import Graph, connected_random_udg, uniform_random_udg
from repro.graphs.traversal import is_connected
from repro.kernels import AUTO_THRESHOLD
from repro.mis.properties import is_dominating_set
from repro.opt import (
    LPUnavailableError,
    OptimalityCertificate,
    SearchLimitExceeded,
    SearchStats,
    certified_optimum,
    connect_weakly,
    greedy_mwds,
    greedy_mwds_wcds,
    lp_domination_bound,
    lp_lower_bound,
    measure_ratios,
    opt_minimum,
    opt_minimum_cds,
    opt_minimum_dominating_set,
    opt_minimum_wcds,
    two_hop_packing,
)
from repro.opt.heuristics import pure_greedy_mwds, vector_greedy_mwds
from repro.wcds import is_weakly_connected_dominating_set, weakly_induced_subgraph

edge_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=18,
)


def _connected_graph(edges):
    g = Graph(edges=edges)
    nx_g = g.to_networkx()
    if not nx.is_connected(nx_g):
        component = max(nx.connected_components(nx_g), key=len)
        g = g.subgraph(component)
    return g


def _brute_minimum(g, feasible):
    nodes = sorted(g.nodes())
    for k in range(1, len(nodes) + 1):
        for combo in itertools.combinations(nodes, k):
            if feasible(set(combo)):
                return k
    raise AssertionError("no feasible subset at all")


CORPUS = [(12, 2.8), (16, 3.2), (18, 3.2)]


def _corpus():
    for seed in range(4):
        for n, side in CORPUS:
            yield connected_random_udg(n, side, seed=seed)


class TestExactEngine:
    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_mds_matches_brute_force_and_is_lp_invariant(self, edges):
        g = _connected_graph(edges)
        on = opt_minimum_dominating_set(g, lp="on")
        off = opt_minimum_dominating_set(g, lp="off")
        assert on == off
        assert is_dominating_set(g, on)
        brute = _brute_minimum(g, lambda s: is_dominating_set(g, s))
        assert len(on) == brute

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_wcds_matches_brute_force_and_is_lp_invariant(self, edges):
        g = _connected_graph(edges)
        on = opt_minimum_wcds(g, lp="on")
        off = opt_minimum_wcds(g, lp="off")
        assert on == off
        assert is_weakly_connected_dominating_set(g, on)
        brute = _brute_minimum(
            g, lambda s: is_weakly_connected_dominating_set(g, s)
        )
        assert len(on) == brute

    def test_bit_identical_and_equal_to_baseline_oracle_on_corpus(self):
        # The n <= 18 corpus of the acceptance criteria: the LP-pruned
        # engine must agree with the independent baseline oracle, and
        # its own result must not depend on whether the LP ran.
        for g in _corpus():
            for problem, baseline in (
                ("mds", exact_minimum_dominating_set),
                ("wcds", exact_minimum_wcds),
                ("cds", exact_minimum_cds),
            ):
                on = opt_minimum(g, problem, lp="on")
                off = opt_minimum(g, problem, lp="off")
                assert on == off
                assert len(on) == len(baseline(g))

    def test_oracle_hierarchy(self):
        g = connected_random_udg(18, 3.2, seed=9)
        mds = len(opt_minimum_dominating_set(g))
        wcds = len(opt_minimum_wcds(g))
        cds = len(opt_minimum_cds(g))
        assert mds <= wcds <= cds

    def test_stats_are_populated(self):
        g = connected_random_udg(16, 3.2, seed=1)
        stats = SearchStats()
        result = opt_minimum_wcds(g, lp="on", stats=stats)
        assert stats.problem == "wcds"
        assert stats.num_nodes == 16
        assert stats.optimum == len(result)
        assert stats.nodes_expanded > 0
        assert stats.lp_calls > 0
        assert stats.root_lp_value is not None
        assert set(stats.prune_counts) == {
            "lp", "packing", "coverage", "connectivity"
        }

    def test_empty_and_disconnected_inputs(self):
        assert opt_minimum_dominating_set(Graph()) == set()
        with pytest.raises(ValueError):
            opt_minimum_wcds(Graph())
        disconnected = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            opt_minimum_wcds(disconnected)
        with pytest.raises(ValueError):
            opt_minimum_cds(disconnected)
        with pytest.raises(ValueError):
            opt_minimum(Graph(edges=[(0, 1)]), "tsp")

    def test_max_size_infeasible_raises(self):
        g = connected_random_udg(16, 3.2, seed=2)
        opt = len(opt_minimum_dominating_set(g))
        with pytest.raises(RuntimeError):
            opt_minimum_dominating_set(g, max_size=opt - 1)

    def test_node_limit_raises_search_limit_exceeded(self):
        g = connected_random_udg(18, 3.2, seed=3)
        with pytest.raises(SearchLimitExceeded):
            opt_minimum_wcds(g, node_limit=3)


class TestLPBound:
    def test_lp_never_exceeds_integral_optimum_on_corpus(self):
        for g in _corpus():
            value = lp_domination_bound(g)
            assert lp_lower_bound(value) <= len(
                opt_minimum_dominating_set(g)
            )

    @given(edge_lists)
    @settings(max_examples=15, deadline=None)
    def test_lp_never_exceeds_integral_optimum(self, edges):
        g = _connected_graph(edges)
        value = lp_domination_bound(g)
        assert lp_lower_bound(value) <= len(opt_minimum_dominating_set(g))

    def test_lp_lower_bound_rounding(self):
        assert lp_lower_bound(0.0) == 0
        assert lp_lower_bound(3.0000004) == 3  # solver noise absorbed
        assert lp_lower_bound(3.2) == 4
        with pytest.raises(ValueError):
            lp_lower_bound(float("inf"))


class TestHeuristics:
    def test_greedy_mwds_dominates_and_bounds_opt_from_above(self):
        for g in _corpus():
            chosen = greedy_mwds(g)
            assert is_dominating_set(g, chosen)
            assert len(chosen) >= len(opt_minimum_dominating_set(g))

    def test_greedy_mwds_pure_and_vector_agree(self):
        # Both sides of the size rule, on int and mixed ids, connected
        # and split deployments.
        for n, seed in itertools.product([0, 1, AUTO_THRESHOLD - 1, 80], range(3)):
            g = uniform_random_udg(n, 1.0 + (n / 3.0) ** 0.5, seed=seed)
            name = {v: (f"s{v}" if v % 3 == 0 else v) for v in g.nodes()}
            mixed = Graph(
                nodes=list(name.values()),
                edges=[(name[u], name[v]) for u, v in g.edges()],
            )
            for graph in (g, mixed):
                expected = pure_greedy_mwds(graph, None)
                assert vector_greedy_mwds(graph, None) == expected
                assert greedy_mwds(graph) == expected

    def test_weighted_greedy_prefers_cheap_dominators(self):
        # A star: the hub covers everything, but an exorbitant hub
        # price makes buying all the leaves cheaper.
        star = Graph(edges=[(0, leaf) for leaf in range(1, 5)])
        assert greedy_mwds(star) == {0}
        weights = {0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        assert greedy_mwds(star, weights) == {1, 2, 3, 4}
        with pytest.raises(ValueError):
            greedy_mwds(star, {n: 0.0 for n in star.nodes()})

    def test_two_hop_packing_is_admissible_lower_bound(self):
        for g in _corpus():
            packing = two_hop_packing(g)
            # Pairwise 2-hop separation: closed neighborhoods disjoint.
            members = sorted(packing)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    closed_u = g.closed_neighborhood(u)
                    closed_v = g.closed_neighborhood(v)
                    assert not (closed_u & closed_v)
            assert len(packing) <= len(opt_minimum_dominating_set(g))

    def test_greedy_mwds_wcds_is_valid_wcds(self):
        for seed in range(3):
            g = connected_random_udg(60, 4.5, seed=seed)
            wcds = greedy_mwds_wcds(g)
            assert is_weakly_connected_dominating_set(g, wcds)

    def test_connect_weakly_merges_components(self):
        g = connected_random_udg(40, 4.0, seed=5)
        dominators = greedy_mwds(g)
        wcds = connect_weakly(g, dominators)
        assert dominators <= wcds
        assert is_connected(weakly_induced_subgraph(g, wcds))
        with pytest.raises(ValueError):
            connect_weakly(g, set())

    def test_greedy_mwds_wcds_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            greedy_mwds_wcds(Graph())
        with pytest.raises(ValueError):
            greedy_mwds_wcds(Graph(edges=[(0, 1), (2, 3)]))


class TestWithoutScipy:
    def test_auto_degrades_and_matches_lp_result(self, monkeypatch):
        g = connected_random_udg(16, 3.2, seed=4)
        with_lp = opt_minimum_wcds(g, lp="on")
        monkeypatch.setattr(opt_scipy, "HAVE_SCIPY", False)
        stats = SearchStats()
        without = opt_minimum_wcds(g, lp="auto", stats=stats)
        assert without == with_lp
        assert stats.lp_calls == 0

    def test_explicit_on_raises_without_scipy(self, monkeypatch):
        monkeypatch.setattr(opt_scipy, "HAVE_SCIPY", False)
        g = Graph(edges=[(0, 1), (1, 2)])
        with pytest.raises(LPUnavailableError):
            opt_minimum_wcds(g, lp="on")
        with pytest.raises(LPUnavailableError):
            opt_scipy.require_scipy()

    def test_certificates_still_issue_without_scipy(self, monkeypatch):
        monkeypatch.setattr(opt_scipy, "HAVE_SCIPY", False)
        g = connected_random_udg(30, 3.5, seed=4)
        cert = certified_optimum(g, "wcds")
        assert cert.certified
        assert is_weakly_connected_dominating_set(g, cert.witness)

    def test_unknown_lp_mode_rejected(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            opt_minimum_dominating_set(g, lp="maybe")


class TestCertifyWcdsOptimalityFix:
    def test_nonpositive_size_raises(self):
        g = connected_random_udg(10, 2.5, seed=0)
        for size in (0, -1, -7):
            with pytest.raises(ValueError):
                certify_wcds_optimality(g, size)

    def test_size_one_is_vacuously_certified(self):
        g = connected_random_udg(10, 2.5, seed=0)
        assert certify_wcds_optimality(g, 1)

    def test_agrees_with_exact_optimum(self):
        for seed in range(3):
            g = connected_random_udg(12, 2.8, seed=seed)
            opt = len(exact_minimum_wcds(g))
            assert certify_wcds_optimality(g, opt)
            if opt > 1:
                assert not certify_wcds_optimality(g, opt + 1)


class TestCoverageBoundRegression:
    def test_baseline_optima_unchanged_on_seeded_corpus(self):
        # The tightened coverage bound must only prune harder, never
        # change the optimum: cross-check against the independent
        # LP-engine result (lp off → fully combinatorial, different
        # code path) on a fixed corpus.
        for g in _corpus():
            assert len(exact_minimum_dominating_set(g)) == len(
                opt_minimum_dominating_set(g, lp="off")
            )
            assert len(exact_minimum_wcds(g)) == len(
                opt_minimum_wcds(g, lp="off")
            )


class TestMixedNodeIdDeterminism:
    MIXED_EDGES = [
        ("a", 1), (1, 2), (2, "b"), ("b", 3), (3, "a"),
        (2, "c"), ("c", 4), (4, "b"),
    ]

    def test_baseline_exact_handles_mixed_ids(self):
        g = Graph(edges=self.MIXED_EDGES)
        first = exact_minimum_wcds(g)
        assert is_weakly_connected_dominating_set(g, first)
        for _ in range(3):
            assert exact_minimum_wcds(g) == first
            assert exact_minimum_dominating_set(
                g
            ) == exact_minimum_dominating_set(g)

    def test_mis_tree_cds_connector_choice_is_canonical(self):
        # Mixed int/str ids stop upstream at the MIS ranking layer
        # (Algorithm II ranks by raw node id), so exercise the fixed
        # canonical tie-breaks with non-integer ids that rank fine.
        edges = [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
            ("e", "f"), ("f", "a"), ("b", "g"), ("g", "e"),
        ]
        g = Graph(edges=edges)
        first = mis_tree_cds(g)
        assert is_dominating_set(g, first)
        for _ in range(3):
            assert mis_tree_cds(g) == first

    def test_opt_engine_handles_mixed_ids(self):
        g = Graph(edges=self.MIXED_EDGES)
        assert opt_minimum_wcds(g, lp="on") == opt_minimum_wcds(g, lp="off")


class TestCertificates:
    def test_small_instances_use_the_baseline_oracle(self):
        g = connected_random_udg(14, 3.0, seed=6)
        cert = certified_optimum(g, "wcds")
        assert cert.certified
        assert cert.method == "baseline-bb"
        assert cert.optimum == len(exact_minimum_wcds(g))
        assert is_weakly_connected_dominating_set(g, cert.witness)

    def test_midsize_instances_use_the_lp_engine(self):
        g = connected_random_udg(30, 3.5, seed=6)
        cert = certified_optimum(g, "mds")
        assert cert.certified
        assert cert.method == "lp-bb"
        assert cert.stats is not None
        assert cert.ratio_of(2 * cert.optimum) == pytest.approx(2.0)

    def test_oversize_instances_get_a_sandwich(self):
        g = connected_random_udg(60, 4.5, seed=7)
        cert = certified_optimum(g, "wcds", exact_nodes=40)
        assert cert.method == "sandwich"
        assert cert.lower <= cert.upper
        assert is_weakly_connected_dominating_set(g, cert.witness)

    def test_inverted_certificate_rejected(self):
        with pytest.raises(ValueError):
            OptimalityCertificate(
                problem="mds", num_nodes=5, lower=4, upper=3, method="x"
            )

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            certified_optimum(Graph(edges=[(0, 1)]), "vertex-cover")


class TestRatioMeasurement:
    def test_measured_ratios_sit_inside_the_theorem_envelopes(self):
        g = connected_random_udg(24, 3.2, seed=7)
        results = measure_ratios(g, seeds=range(3), workers=0)
        for name, ratios in results.items():
            assert ratios.certificate.certified
            assert ratios.within_envelope, name
            assert 1.0 <= ratios.mean_ratio <= ratios.max_ratio

    def test_registry_exposes_the_oracles(self):
        from repro.backbone import build

        g = connected_random_udg(24, 3.2, seed=8)
        exact = build("wcds-exact", g)
        assert len(exact.dominators) == len(opt_minimum_wcds(g))
        assert len(build("mds-exact", g).dominators) == len(
            opt_minimum_dominating_set(g)
        )
        heuristic = build("mwds-greedy", g)
        assert is_weakly_connected_dominating_set(g, heuristic.dominators)
        assert len(build("cds-exact", g).dominators) == len(
            opt_minimum_cds(g)
        )
