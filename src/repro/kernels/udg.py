"""Vectorized unit-disk-graph edge construction.

Same algorithm as ``UnitDiskGraph._build_edges_grid`` — hash every
point into a ``radius``-sized cell, compare only pairs in the same or
adjacent cells — but executed as array passes:

1. linearize cell coordinates into a single sortable key,
2. sort the points by key and find the cell runs,
3. for the within-cell pairs and each of the four "forward" neighbor
   offsets, materialize the candidate pairs of whole cell *blocks* with
   a ragged cartesian product (pure index arithmetic, no Python loop
   over points),
4. keep candidates with ``distance_squared <= radius**2`` — computed
   with the same float64 subtract/multiply/add sequence as
   :func:`repro.geometry.point.distance_squared`, so the kept edge set
   is bit-for-bit identical to the pure builders'.

The adjacency sets are then bulk-built from the edge arrays with one
sort (:func:`edge_runs`) instead of ``2m`` Python ``set.add`` calls;
the serve pool's worker replicas slice their ascending neighbour
tuples from the same sort.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, Set, Tuple

from repro.kernels._compat import require_numpy

Node = Hashable


def _ragged_pairs(
    np: Any, a_starts: Any, a_counts: Any, b_starts: Any, b_counts: Any
) -> Tuple[Any, Any]:
    """All index pairs of matched variable-size blocks.

    For each i, emits the cartesian product ``range(a_starts[i],
    a_starts[i]+a_counts[i]) x range(b_starts[i], ...)`` — flattened
    into two parallel index arrays without a Python loop.
    """
    sizes = a_counts * b_counts
    total = int(sizes.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    group = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    within = np.arange(total) - offsets[group]
    bc = b_counts[group]
    ai = a_starts[group] + within // bc
    bi = b_starts[group] + within % bc
    return ai, bi


def vector_udg_edges(coords: Any, radius: float) -> Any:
    """Unit-disk edges over ``coords`` (an ``(n, 2)`` float array).

    Returns an ``(m, 2)`` int64 array of index pairs ``i < j`` is *not*
    guaranteed; pairs are unordered and unique.  Exactly equal to the
    brute-force ``distance_squared(p_i, p_j) <= radius**2`` edge set.
    """
    np = require_numpy()
    pts = np.ascontiguousarray(coords, dtype=np.float64)
    n = int(pts.shape[0])
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    cell = np.floor(pts / radius).astype(np.int64)
    cell -= cell.min(axis=0)
    # One linear key per cell; the +1 / +3 padding keeps every (dx, dy)
    # offset in {-1..1} x {-1..1} collision-free after linearization.
    stride = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * stride + (cell[:, 1] + 1)
    order = np.argsort(key)
    skey = key[order]
    # Cell runs in the sorted order (replaces np.unique: skey is sorted,
    # so run boundaries are where consecutive keys differ).
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(skey[1:], skey[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    run_keys = skey[starts]

    limit = radius * radius
    xs = pts[order, 0]
    ys = pts[order, 1]
    out_a: List[Any] = []
    out_b: List[Any] = []

    def _keep(ai: Any, bi: Any) -> None:
        dx = xs[ai] - xs[bi]
        dy = ys[ai] - ys[bi]
        mask = dx * dx + dy * dy <= limit
        out_a.append(ai[mask])
        out_b.append(bi[mask])

    # Within-cell pairs: cartesian product of each cell with itself,
    # upper triangle only.
    ai, bi = _ragged_pairs(np, starts, counts, starts, counts)
    upper = ai < bi
    _keep(ai[upper], bi[upper])

    # Cross-cell pairs: the four forward offsets (1,-1), (1,0), (1,1),
    # (0,1) — mirroring the pure builder — so each unordered cell pair
    # is examined once.
    for delta in (stride - 1, stride, stride + 1, 1):
        target = run_keys + delta
        idx = np.searchsorted(run_keys, target)
        idx_c = np.minimum(idx, len(run_keys) - 1)
        match = run_keys[idx_c] == target
        if not match.any():
            continue
        ai, bi = _ragged_pairs(
            np,
            starts[match],
            counts[match],
            starts[idx_c[match]],
            counts[idx_c[match]],
        )
        _keep(ai, bi)

    a = np.concatenate(out_a)
    b = np.concatenate(out_b)
    return np.stack([order[a], order[b]], axis=1)


def vector_adjacency(
    positions: Sequence[Tuple[Node, Any]], radius: float
) -> Dict[Node, Set[Node]]:
    """Adjacency sets of the unit-disk graph over ``positions``.

    ``positions`` is a sequence of ``(node, point)`` pairs (any object
    exposing ``.x`` / ``.y`` or indexable as ``(x, y)``).  Returns a
    complete ``{node: set(neighbors)}`` map — isolated nodes included —
    identical to what the pure builders produce.
    """
    np = require_numpy()
    nodes: List[Node] = [node for node, _ in positions]
    n = len(nodes)
    adjacency: Dict[Node, Set[Node]] = {}
    if n == 0:
        return adjacency
    try:
        coords = np.fromiter(
            (c for _, pos in positions for c in (pos.x, pos.y)),
            dtype=np.float64,
            count=2 * n,
        ).reshape(-1, 2)
    except AttributeError:
        coords = np.empty((n, 2), dtype=np.float64)
        for i, (_, pos) in enumerate(positions):
            x, y = pos
            coords[i, 0] = x
            coords[i, 1] = y
    edges = vector_udg_edges(coords, radius)
    if len(edges) == 0:
        return {node: set() for node in nodes}
    tails, cut_list = edge_runs(edges, n)
    contiguous_ints = nodes == list(range(n))
    if contiguous_ints:
        # Common case (build_udg numbering): node ids are the indices.
        for i in range(n):
            adjacency[i] = set(tails[cut_list[i] : cut_list[i + 1]])
    else:
        for i, node in enumerate(nodes):
            adjacency[node] = {
                nodes[j] for j in tails[cut_list[i] : cut_list[i + 1]]
            }
    return adjacency


def edge_runs(edges: Any, n: int) -> Tuple[List[int], List[int]]:
    """Both directions of ``edges`` sorted by ``(head, tail)``.

    ``edges`` is an ``(m, 2)`` index array over ``n`` points (as from
    :func:`vector_udg_edges`).  Returns ``(tails, cuts)``: point ``i``'s
    neighbours, ascending, are ``tails[cuts[i]:cuts[i + 1]]``.
    """
    np = require_numpy()
    # One np.sort of a single combined (head * n + tail) key, no
    # permutation gather; each head's run is then sliced by its cut.
    combined = np.concatenate(
        [edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]]
    )
    combined = np.sort(combined)
    tails: List[int] = (combined % n).tolist()
    cuts = np.searchsorted(combined, np.arange(n + 1, dtype=np.int64) * n)
    return tails, cuts.tolist()
