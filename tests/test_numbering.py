"""Tests for the shared per-version node numbering, ``Graph.numbering()``.

Two contracts:

* **Staleness.**  Every mutation yields a fresh numbering equal to one
  rebuilt from the graph; a move that flips no link keeps the cached one.
* **Clients.**  Every whole-graph client that reads it (CSR arrays, hop
  distances, the batched simulator's audiences, Algorithm II's
  connectors, spanner schedules, the bitset oracle, the batched disk
  query) returns what its own numbering used to give, on int and on
  mixed int/str ids.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.geometry.point import distance_squared
from repro.graphs import Graph, build_udg, connected_random_udg
from repro.graphs.graph import canonical_order
from repro.graphs.traversal import bfs_distances
from repro.kernels import vector_nodes_within
from repro.kernels.bfs import graph_to_csr, vector_hop_distances
from repro.opt.bitset import BitsetGraph, _hop_distances, iter_bits
from repro.routing.broadcast import SpannerIndex
from repro.sim import BatchedSimulator, ProtocolNode
from repro.wcds.algorithm2 import algorithm2_centralized
from repro.wcds.connectors import mis_rows, number_nodes, three_hop_relays

np = pytest.importorskip("numpy")


def _rebuilt(graph):
    """The numbering rebuilt from first principles."""
    nodes = canonical_order(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    adj = tuple(
        tuple(sorted(index[nbr] for nbr in graph.adjacency(node))) for node in nodes
    )
    try:
        sorted(graph.nodes())
        natural = True
    except TypeError:
        natural = False
    return tuple(nodes), index, adj, natural


def _same(numbering, graph):
    nodes, index, adj = numbering
    return (nodes, index, adj, numbering.natural) == _rebuilt(graph)


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------
class TestStaleness:
    def test_cached_per_version(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        first = g.numbering()
        assert g.numbering() is first
        assert first.version == g.version
        assert _same(first, g)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node(9),
            lambda g: g.add_edge(0, 2),
            lambda g: g.remove_node(1),
            lambda g: g.remove_edge(0, 1),
        ],
        ids=["add_node", "add_edge", "remove_node", "remove_edge"],
    )
    def test_mutation_renumbers(self, mutate):
        g = Graph(edges=[(0, 1), (1, 2)])
        before = g.numbering()
        mutate(g)
        after = g.numbering()
        assert after is not before
        assert _same(after, g)

    def test_move_with_link_flip_renumbers(self):
        g = build_udg({0: (0.0, 0.0), 1: (0.5, 0.0), 2: (3.0, 0.0)})
        before = g.numbering()
        gained, lost = g.move_node(2, Point(1.2, 0.0))
        assert gained == {1} and not lost
        after = g.numbering()
        assert after is not before
        assert _same(after, g)

    def test_move_without_link_flip_keeps_numbering(self):
        g = build_udg({0: (0.0, 0.0), 1: (0.5, 0.0), 2: (3.0, 0.0)})
        before = g.numbering()
        assert g.move_node(2, Point(3.5, 0.0)) == (set(), set())
        assert g.numbering() is before

    def test_add_node_at_renumbers(self):
        g = build_udg({0: (0.0, 0.0), 1: (0.5, 0.0)})
        before = g.numbering()
        g.add_node_at("x", Point(0.9, 0.0))
        after = g.numbering()
        assert after is not before
        assert not after.natural
        assert _same(after, g)

    @pytest.mark.parametrize("kind", ["graph", "udg"])
    def test_copy_numbers_on_its_own(self, kind):
        g = (
            Graph(edges=[(0, 1), (1, 2)])
            if kind == "graph"
            else build_udg({0: (0.0, 0.0), 1: (0.5, 0.0), 2: (1.0, 0.0)})
        )
        original = g.numbering()
        clone = g.copy()
        assert _same(clone.numbering(), clone)
        clone.remove_edge(0, 1)
        assert _same(clone.numbering(), clone)
        assert g.numbering() is original
        assert _same(original, g)

    def test_natural_flag_follows_the_ids(self):
        assert Graph(edges=[(1, 2)]).numbering().natural
        assert not Graph(edges=[(1, "a")]).numbering().natural
        assert Graph().numbering() == ((), {}, ())


# ----------------------------------------------------------------------
# Clients against their former numberings
# ----------------------------------------------------------------------
@st.composite
def deployments(draw):
    """A small UDG, with int ids or about a third of them renamed."""
    points = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 3.0, allow_nan=False),
                st.floats(0.0, 3.0, allow_nan=False),
            ),
            min_size=1,
            max_size=18,
        )
    )
    mixed = draw(st.booleans())
    renamed = draw(st.sets(st.integers(0, len(points) - 1))) if mixed else set()
    return build_udg(
        {(f"s{i}" if i in renamed else i): p for i, p in enumerate(points)}
    )


def _former_csr(graph):
    nodes = canonical_order(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    heads, tails = [], []
    for u, v in graph.edges():
        heads += [index[u], index[v]]
        tails += [index[v], index[u]]
    heads = np.array(heads, dtype=np.int64)
    tails = np.array(tails, dtype=np.int64)
    order = np.lexsort((tails, heads))
    return nodes, heads[order], tails[order]


class _FormerSpannerIndex:
    """Spanner schedules over the index's own numbering and its
    bytearray loop, as they stood."""

    def __init__(self, graph, backbone):
        members = set(backbone)
        self._nodes = canonical_order(graph.nodes())
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self._backbone = bytearray(len(self._nodes))
        self._links = []
        for i, node in enumerate(self._nodes):
            nbrs = graph.adjacency(node)
            if node in members:
                self._backbone[i] = 1
            else:
                nbrs = nbrs & members
            self._links.append(tuple(map(self._index.get, canonical_order(nbrs))))

    def schedule(self, source):
        """The schedule loop as it stood over those fields."""
        start = self._index[source]
        links = self._links
        nodes = self._nodes
        forwards = bytearray(self._backbone)
        forwards[start] = 1
        heard = bytearray(len(links))
        heard[start] = 1
        queue = [start]
        forwarders = []
        for node in queue:
            before = len(queue)
            for nbr in links[node]:
                if not heard[nbr]:
                    heard[nbr] = 1
                    queue.append(nbr)
            if forwards[node] or len(queue) > before:
                forwarders.append(nodes[node])
        return forwarders, len(queue)


def _former_bitset(graph):
    nodes = tuple(canonical_order(graph.nodes()))
    index = {node: i for i, node in enumerate(nodes)}
    closed = []
    for i, node in enumerate(nodes):
        mask = 1 << i
        for nbr in graph.adjacency(node):
            mask |= 1 << index[nbr]
        closed.append(mask)
    closed2 = []
    for mask in closed:
        wide = mask
        for j in iter_bits(mask):
            wide |= closed[j]
        closed2.append(wide)
    distances = tuple(tuple(row) for row in _hop_distances(closed, len(nodes)))
    return nodes, tuple(closed), tuple(closed2), distances


class TestClients:
    @given(deployments())
    @settings(max_examples=60, deadline=None)
    def test_clients_match_their_former_numberings(self, g):
        nodes, heads, tails = graph_to_csr(g)
        former = _former_csr(g)
        assert list(nodes) == former[0]
        assert heads.tolist() == former[1].tolist()
        assert tails.tolist() == former[2].tolist()

        sources = list(nodes)
        assert vector_hop_distances(g, sources) == {
            s: bfs_distances(g, s) for s in sources
        }

        sim = BatchedSimulator(g, lambda ctx: ProtocolNode(ctx))
        for node in nodes:
            assert sim.audience_of(node) == tuple(canonical_order(g.adjacency(node)))

        backbone = set(nodes[::3])
        ours = SpannerIndex(g, backbone)
        reference = _FormerSpannerIndex(g, backbone)
        for source in nodes:
            assert ours.schedule(source) == reference.schedule(source)

        bits = BitsetGraph.from_graph(g)
        assert (bits.nodes, bits.closed, bits.closed2, bits.distances) == (
            _former_bitset(g)
        )

        # Each hit list in its own canonical order, as ``nodes_within``
        # gives it: on mixed ids a subset's order need not be the
        # deployment's (``[1, 2, 10]``, not the repr order ``[1, 10, 2]``).
        centers = [g.positions[n] for n in nodes[:4]]
        assert vector_nodes_within(g, centers, 0.8) == [
            canonical_order(
                n
                for n in g.positions
                if distance_squared(g.positions[n], c) <= 0.8 * 0.8
            )
            for c in centers
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_algorithm2_connectors_match_local_numbering(self, seed):
        g = connected_random_udg(60, 5.0, seed=seed)
        result = algorithm2_centralized(g)
        nodes, _, adj = number_nodes(g, g.nodes())
        is_mis = bytearray(n in result.mis_dominators for n in nodes)
        leaders = [i for i, flag in enumerate(is_mis) if flag]
        assert result.meta["pairs_covered"] == [
            (nodes[u], nodes[w], nodes[v])
            for u, w, v, _ in three_hop_relays(adj, mis_rows(adj, is_mis), leaders)
        ]

    def test_algorithm2_refuses_mixed_ids(self):
        g = Graph(edges=[(1, "a"), ("a", 2)])
        assert not g.numbering().natural
        with pytest.raises(TypeError):
            algorithm2_centralized(g)
