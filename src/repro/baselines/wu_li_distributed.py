"""Distributed Wu-Li marking (reference [16]) on the simulator.

The marking process is naturally localized, which makes it the classic
message-complexity comparison point for Algorithm II:

1. every node broadcasts HELLO carrying its neighbor list (so each
   node learns its 2-hop topology);
2. once a node has heard HELLO from every neighbor it decides its mark
   (two neighbors not adjacent to each other) and broadcasts MARKED;
3. once a node knows the marks of all neighbors it applies the
   restricted pruning rules 1 and 2 against the *original* marked set
   with id priority — a purely local computation.

Each node transmits exactly two messages, but the HELLO payload is
O(Δ) ids — versus Algorithm II's O(1)-size payloads — which is the
honest way to compare the two protocols' communication volume.

The simultaneous pruning variant used here checks rules against the
original marks (not marks-after-earlier-prunes), matching what each
node can know locally; :func:`prune_simultaneous` is its centralized
twin, tested equal.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected
from repro.obs.tracing import get_tracer
from repro.sim.config import SimConfig
from repro.sim.batched import make_simulator
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats

HELLO = "HELLO"
MARKED = "MARKED"


def prune_simultaneous(graph: Graph, marked: Set[Hashable]) -> Set[Hashable]:
    """Rules 1 and 2 applied simultaneously against the original marks.

    Rule 1: drop v if a marked neighbor u with lower id has
    N[v] ⊆ N[u].  Rule 2: drop v if two adjacent marked neighbors
    u, w, both of lower id, have N(v) ⊆ N(u) ∪ N(w).  Decisions only
    read the original ``marked`` set, so every node can decide locally
    and concurrently.
    """
    result = set(marked)
    for v in marked:
        closed_v = graph.closed_neighborhood(v)
        open_v = set(graph.adjacency(v))
        marked_lower = [
            u for u in graph.adjacency(v) if u in marked and u < v
        ]
        if any(closed_v <= graph.closed_neighborhood(u) for u in marked_lower):
            result.discard(v)
            continue
        for u, w in itertools.combinations(marked_lower, 2):
            if not graph.has_edge(u, w):
                continue
            if open_v <= set(graph.adjacency(u)) | set(graph.adjacency(w)):
                result.discard(v)
                break
    return result


class WuLiNode(ProtocolNode):
    """One node of the distributed marking + pruning protocol."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self.neighbor_sets: Dict[Hashable, FrozenSet[Hashable]] = {}
        self.neighbor_marks: Dict[Hashable, bool] = {}
        self.marked: Optional[bool] = None
        self.in_cds: Optional[bool] = None

    def on_start(self) -> None:
        self.ctx.broadcast(HELLO, neighbors=tuple(self.ctx.neighbors))
        self._maybe_decide_mark()

    def on_message(self, msg: Message) -> None:
        if msg.kind == HELLO:
            self.neighbor_sets[msg.sender] = frozenset(msg["neighbors"])
            self._maybe_decide_mark()
        elif msg.kind == MARKED:
            self.neighbor_marks[msg.sender] = msg["marked"]
            self._maybe_prune()

    def _maybe_decide_mark(self) -> None:
        if self.marked is not None:
            return
        neighbors = self.ctx.neighbors
        if set(self.neighbor_sets) < set(neighbors):
            return
        self.marked = any(
            v not in self.neighbor_sets[u]
            for u, v in itertools.combinations(sorted(neighbors, key=repr), 2)
        )
        self.ctx.broadcast(MARKED, marked=self.marked)
        self._maybe_prune()

    def _maybe_prune(self) -> None:
        if self.in_cds is not None or self.marked is None:
            return
        neighbors = self.ctx.neighbors
        if set(self.neighbor_marks) < set(neighbors):
            return
        if not self.marked:
            self.in_cds = False
            return
        self.in_cds = self._survives_pruning()

    def _survives_pruning(self) -> bool:
        neighbors = self.ctx.neighbors
        closed_self = set(neighbors) | {self.node_id}
        marked_lower = [
            u for u in neighbors if self.neighbor_marks.get(u) and u < self.node_id
        ]
        for u in marked_lower:
            closed_u = set(self.neighbor_sets[u]) | {u}
            if closed_self <= closed_u:
                return False
        for u, w in itertools.combinations(marked_lower, 2):
            if w not in self.neighbor_sets[u]:
                continue
            coverage = set(self.neighbor_sets[u]) | set(self.neighbor_sets[w])
            if set(neighbors) <= coverage:
                return False
        return True

    def result(self) -> Dict[str, object]:
        return {"marked": self.marked, "in_cds": self.in_cds}


def wu_li_distributed(
    graph: Graph,
    *,
    tracer=None,
    registry=None,
    sim: Optional[SimConfig] = None,
) -> Tuple[Set[Hashable], SimStats]:
    """Run the protocol; returns ``(CDS, stats)``.

    Falls back to the unpruned marking (and finally to a single node on
    mark-free graphs like cliques) exactly as the centralized version
    does, so the result is always a CDS of a connected graph.  The run
    emits one ``"wu_li"`` span on ``tracer`` (default: the process
    tracer) with its message and round totals.
    """
    config = sim or SimConfig()
    if graph.num_nodes == 0:
        raise ValueError("CDS of an empty graph is undefined")
    if not is_connected(graph):
        raise ValueError("Wu-Li marking requires a connected graph")
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("wu_li", n=graph.num_nodes) as span:
        simulator = make_simulator(graph, WuLiNode, config, registry=registry)
        stats = simulator.run()
        span.set_attr("messages", stats.messages_sent)
        span.set_attr("rounds", stats.finish_time)
    results = simulator.collect_results()
    undecided = [n for n, res in results.items() if res["in_cds"] is None]
    if undecided:
        raise RuntimeError(f"marking did not terminate: {undecided!r}")
    pruned = {n for n, res in results.items() if res["in_cds"]}
    if pruned and _is_cds(graph, pruned):
        return pruned, stats
    marked = {n for n, res in results.items() if res["marked"]}
    if marked and _is_cds(graph, marked):
        return marked, stats
    return {min(graph.nodes())}, stats


def _is_cds(graph: Graph, candidate: Set[Hashable]) -> bool:
    dominated = set(candidate)
    for node in candidate:
        dominated.update(graph.adjacency(node))
    if len(dominated) != graph.num_nodes:
        return False
    return is_connected(graph.subgraph(candidate))
