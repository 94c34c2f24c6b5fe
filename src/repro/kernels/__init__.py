"""Vectorized geometry/graph kernels for the measured hot paths.

The pure-Python implementations in :mod:`repro.graphs` and
:mod:`repro.geometry` are the *oracles*: simple, exact, and
dependency-free.  This package holds numpy-vectorized twins of the
four paths the benchmarks actually measure:

* **UDG edge construction** (:func:`vector_udg_edges`,
  :func:`vector_adjacency`) — sorted cell binning plus blockwise
  pairwise ``distance_squared`` over the 9-cell neighborhoods; twin of
  :func:`repro.graphs.udg.grid_adjacency`.
* **Multi-source hop distances** (:func:`packed_hop_distances`,
  :func:`vector_hop_distances`) — frontier BFS over packed
  source-bitsets (one ``bitwise_or.reduceat`` per level), used by
  ``multi_source_hop_distances`` and the Theorem 11 dilation
  measurements.  Best on the paper's dense, low-diameter deployments;
  on path-like (high-diameter) graphs the per-level matrix work loses
  to the pure BFS oracle.
* **Batch disk queries** (:func:`batch_points_in_disk`,
  :func:`count_points_in_disks`, :func:`vector_nodes_within`) — used by
  ``UnitDiskGraph.nodes_within_many`` and the measured packing extrema
  in :mod:`repro.geometry.packing`.
* **Spatial tiling** (:func:`tile_index_array`, :func:`bin_by_tile`,
  :func:`rect_distance_squared`) — cell binning and rectangle
  distances behind the :class:`repro.shard.tiler.Tiler` build.

Every kernel computes squared distances with the same float64
operations in the same order as the oracles, so results are *exactly*
equal, not approximately — the equivalence tests assert set equality,
never closeness.

No caller picks an engine: each entry point asks :func:`use_vector`
with its input size.  The pure twins stay importable as references.
"""

from repro.kernels.udg import vector_adjacency, vector_udg_edges
from repro.kernels.bfs import graph_to_csr, packed_hop_distances, vector_hop_distances
from repro.kernels.disk import (
    batch_points_in_disk,
    count_points_in_disks,
    vector_nodes_within,
)
from repro.kernels.shard import bin_by_tile, rect_distance_squared, tile_index_array

#: Below this many elements every twin runs its pure path: the numpy
#: call overhead dominates.
AUTO_THRESHOLD = 64


def use_vector(size: int) -> bool:
    """Whether a workload of ``size`` elements runs the numpy kernel."""
    return size >= AUTO_THRESHOLD


__all__ = [
    "AUTO_THRESHOLD",
    "use_vector",
    "vector_udg_edges",
    "vector_adjacency",
    "graph_to_csr",
    "packed_hop_distances",
    "vector_hop_distances",
    "batch_points_in_disk",
    "count_points_in_disks",
    "vector_nodes_within",
    "tile_index_array",
    "bin_by_tile",
    "rect_distance_squared",
]
