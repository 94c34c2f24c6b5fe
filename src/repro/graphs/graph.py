"""A minimal, fast undirected graph with adjacency sets.

The library deliberately ships its own graph type instead of building on
networkx: the protocols and benchmarks hammer neighbor iteration and
membership checks, and a plain ``dict[node, set]`` is both faster and
dependency-free.  :meth:`Graph.to_networkx` and
:meth:`Graph.from_networkx` bridge to networkx for cross-validation.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]


def _ordered(items: Iterable[Node]) -> Tuple[List[Node], bool]:
    """``(canonical_order(items), natural)``: ``natural`` is whether
    plain ``sorted`` succeeded, i.e. the items are mutually comparable."""
    materialized = list(items)
    try:
        return sorted(materialized), True  # type: ignore[type-var]
    except TypeError:
        return sorted(materialized, key=repr), False


def canonical_order(items: Iterable[Node]) -> "list[Node]":
    """Deterministic ordering of node identifiers.

    Natural sort order when the items are mutually comparable (the
    common all-int case, where it coincides with numeric order), falling
    back to ``repr``-keyed order for mixed or unorderable types.  The
    simulator and protocol code use this wherever a set's iteration
    order would otherwise leak into the execution (hash order depends on
    the interpreter's hash seed and the set's insertion history).
    """
    return _ordered(items)[0]


class _Numbered(NamedTuple):
    nodes: Tuple[Node, ...]
    index: Dict[Node, int]
    adj: Tuple[Tuple[int, ...], ...]


class Numbering(_Numbered):
    """``nodes`` in :func:`canonical_order`, ``index`` node → number,
    ``adj[i]`` node ``i``'s neighbours as ascending numbers.

    ``natural``: plain ``sorted`` ordered the ids, so number order is
    ``<`` order and each ``adj[i]`` is also its ids' canonical order.
    On mixed ids the ``repr`` fallback need not be (``10`` sorts before
    ``9``).  Shared by every client of one graph version: never mutate.
    """

    natural: bool
    version: int

    @classmethod
    def of(cls, graph: "Graph") -> "Numbering":
        nodes, natural = _ordered(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        rank = index.__getitem__
        numbering = cls(
            tuple(nodes),
            index,
            tuple(tuple(sorted(map(rank, graph.adjacency(node)))) for node in nodes),
        )
        numbering.natural = natural
        numbering.version = graph.version
        return numbering


def numbered_by_id(nodes: Tuple[Node, ...]) -> bool:
    """Whether ``nodes`` (a natural numbering's order) is exactly the
    ints ``0..n-1``, so that every node's number is its id.  Bools and
    other int subclasses do not count: their ids differ in type."""
    return all(type(node) is int for node in nodes) and (
        not nodes or (nodes[0] == 0 and nodes[-1] == len(nodes) - 1)
    )


class Graph:
    """An undirected simple graph over hashable node identifiers."""

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: Dict[Node, Set[Node]] = {}
        self._version: int = 0
        self._numbering: Optional[Numbering] = None
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present."""
        self._adj.setdefault(node, set())
        self._version += 1

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, adding endpoints as needed.

        Self-loops are rejected: unit-disk graphs are simple and the
        protocols assume a node is not its own neighbor.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        self._version += 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        neighbors = self._adj.pop(node)
        for other in neighbors:
            self._adj[other].discard(node)
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        if v not in self._adj.get(u, ()):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def version(self) -> int:
        """Monotone mutation counter.

        Bumped on every topology change; cheap to poll, so caches keyed
        on adjacency (e.g. the batched simulator's audience tables) can
        detect staleness without hashing the edge set.
        """
        return self._version

    def numbering(self) -> Numbering:
        """The :class:`Numbering` of the current :attr:`version`, built
        once and shared by every whole-graph client until a mutation."""
        cached = self._numbering
        if cached is None or cached.version != self._version:
            cached = self._numbering = Numbering.of(self)
        return cached

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once.

        Endpoints that are mutually orderable come out sorted; otherwise
        an arbitrary consistent orientation is used.
        """
        seen: Set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The neighbor set of ``node`` (read-only view)."""
        return frozenset(self._adj[node])

    def adjacency(self, node: Node) -> Set[Node]:
        """Internal neighbor set of ``node`` — do not mutate.

        Hot loops use this to skip the frozenset copy in
        :meth:`neighbors`.
        """
        return self._adj[node]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return v in self._adj.get(u, ())

    def degree(self, node: Node) -> int:
        """Number of neighbors of ``node``."""
        return len(self._adj[node])

    def max_degree(self) -> int:
        """The maximum nodal degree Δ (0 on an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def closed_neighborhood(self, node: Node) -> Set[Node]:
        """``N[node]`` — the node together with its neighbors."""
        closed = set(self._adj[node])
        closed.add(node)
        return closed

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A deep copy (nodes and adjacency are duplicated)."""
        clone = Graph()
        clone._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes``."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise KeyError(f"nodes not in graph: {sorted(map(repr, missing))}")
        sub = Graph()
        for node in keep:
            sub.add_node(node)
            for nbr in self._adj[node] & keep:
                sub._adj[node].add(nbr)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The subgraph containing exactly ``edges`` and their endpoints.

        Used to materialize the *weakly induced* subgraph: the paper's
        G' keeps every edge with at least one endpoint in the WCDS.
        """
        sub = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
            sub.add_edge(u, v)
        return sub

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (for cross-validation)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self._adj)
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build from a ``networkx.Graph``."""
        graph = cls()
        for node in nx_graph.nodes():
            graph.add_node(node)
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(u, v)
        return graph

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
