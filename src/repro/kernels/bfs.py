"""Multi-source hop distances via packed-bitset frontier BFS.

One BFS per source costs O(n·m) Python dict operations for all-pairs.
The kernel instead tracks, per node, a *bitset over sources* that have
reached it, and expands every frontier simultaneously:

    B[u] <- B[u] | OR_{v in N(u)} B[v]        (one level, all sources)

executed as a single ``np.bitwise_or.reduceat`` over the CSR adjacency
per level.  Distances fall out by accumulation: before each expansion,
``dist[u, s] += 1`` for every still-unreached pair — so a pair first
reached after d expansions was counted in exactly the d pre-reach
states, i.e. ``dist = d``.  Unreached pairs are patched to -1 at the
end from the final reachability bits.

The level count is the graph's eccentricity span, so the kernel is
O(diameter · n · k / 8) byte-ops: a large win on the paper's dense,
low-diameter deployments (the only place all-pairs hops are measured),
a loss on path-like graphs — which is why single-source traversal
keeps the pure BFS and only the multi-source sweeps come here.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph

Node = Hashable


def graph_to_csr(graph: Graph) -> Tuple[Sequence[Node], Any, Any]:
    """``(node_list, heads, tails)`` — the graph's directed edge arrays.

    ``node_list`` is the graph's shared :meth:`~repro.graphs.graph.Graph.numbering`
    (canonical order) and defines the index space; ``heads``/``tails``
    hold both directions of every edge, sorted by ``(head, tail)``,
    ready for :func:`packed_hop_distances`.  Each head's tail run is
    that node's ascending ``adj`` row.
    """
    nodes, _, adj = graph.numbering()
    degrees = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
    heads = np.repeat(np.arange(len(adj), dtype=np.int64), degrees)
    tails = np.fromiter(
        itertools.chain.from_iterable(adj), dtype=np.int64, count=int(degrees.sum())
    )
    return nodes, heads, tails


def packed_hop_distances(
    heads: Any, tails: Any, num_nodes: int, sources: Optional[Any] = None
) -> Any:
    """Hop distances from ``sources`` (default: all nodes) to every node.

    ``heads``/``tails`` are the sorted directed edge arrays from
    :func:`graph_to_csr`.  Returns an int32 array of shape
    ``(len(sources), num_nodes)`` with -1 for unreachable pairs —
    exactly :func:`repro.graphs.traversal.bfs_distances` per row.
    """
    n = num_nodes
    src = np.arange(n) if sources is None else np.asarray(sources, dtype=np.int64)
    k = int(src.size)
    if n == 0 or k == 0:
        return np.empty((k, n), dtype=np.int32)
    # Packed reachability bitsets: B8[u, b] bit (128 >> (s % 8)) set
    # iff source src[s] has reached node u.  Width padded to whole
    # uint64 words so the OR passes run 8 bytes at a time.
    words8 = ((k + 63) // 64) * 8
    bits8 = np.zeros((n, words8), dtype=np.uint8)
    cols = np.arange(k)
    bits8[src, cols // 8] |= (np.uint8(128) >> (cols % 8)).astype(np.uint8)
    bits = bits8.view(np.uint64)
    # acc[u, s] counts the levels at which (src[s], u) was unreached.
    acc = np.zeros((n, k), dtype=np.uint32)
    if heads.size:
        run_start = np.searchsorted(heads, np.arange(n, dtype=np.int64))
        degrees = np.diff(np.append(run_start, heads.size))
        nonzero = degrees > 0
        or_starts = run_start[nonzero]
        while True:
            acc += np.unpackbits(~bits8, axis=1, count=k)
            gathered = np.bitwise_or.reduceat(bits[tails], or_starts, axis=0)
            old = bits[nonzero]
            if not (gathered & ~old).any():
                break
            bits[nonzero] = old | gathered
    else:
        acc += np.unpackbits(~bits8, axis=1, count=k)
    reached = np.unpackbits(bits8, axis=1, count=k).astype(bool)
    dist = acc.astype(np.int32)
    dist[~reached] = -1
    return np.ascontiguousarray(dist.T)


def vector_hop_distances(
    graph: Graph, sources: Sequence[Node]
) -> Dict[Node, Dict[Node, int]]:
    """Hop distances from each of ``sources`` to every reachable node.

    The packed twin of one :func:`repro.graphs.traversal.bfs_distances`
    per source: the same per-source dicts (reachable nodes only).
    """
    node_list, heads, tails = graph_to_csr(graph)
    index = graph.numbering().index
    result: Dict[Node, Dict[Node, int]] = {}
    # Chunk sources so the (sources, nodes) distance matrix stays small
    # even for all-pairs sweeps over large graphs.
    chunk = max(1, 20_000_000 // max(1, len(node_list)))
    for lo in range(0, len(sources), chunk):
        block = list(sources[lo : lo + chunk])
        dist = packed_hop_distances(
            heads, tails, len(node_list), [index[s] for s in block]
        )
        for row, source in zip(dist, block):
            result[source] = {
                node_list[j]: d for j, d in enumerate(row.tolist()) if d >= 0
            }
    return result
