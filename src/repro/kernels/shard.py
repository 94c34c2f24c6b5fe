"""Vectorized spatial tiling: cell binning and rectangle distances.

The build behind :class:`repro.shard.tiler.Tiler`.  Sharding a
deployment means answering two geometric questions for every node:

* which tile (axis-aligned cell of side ``tile_side``) owns it, and
* how far it is from a given tile's rectangle (to decide halo and
  frontier-band membership).

Both are answered here as single numpy passes over an ``(n, 2)``
position array.  As everywhere in :mod:`repro.kernels`, the float64
arithmetic is performed with the same operations in the same order as
the per-node ``tile_of`` / ``rect_distance_squared`` the tiler's churn
updates use, so a built tiler and a churned one agree *exactly* — the
tests assert set equality, never closeness.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.kernels.disk import _as_coord_array

TileId = Tuple[int, int]


def tile_index_array(coords: Any, tile_side: float) -> Any:
    """``(n, 2)`` int64 array of tile indices: ``floor(coord / side)``.

    Matches ``int(math.floor(x / side))`` of ``Tiler.tile_of`` bit for bit
    (same float64 division, then floor), including negative
    coordinates.
    """
    pts = _as_coord_array(coords)
    return np.floor(pts / tile_side).astype(np.int64)


def bin_by_tile(coords: Any, tile_side: float) -> Dict[TileId, Any]:
    """Group point indices by owning tile in one sorted pass.

    Returns ``{tile_id: int64 index array (ascending)}``; the union of
    the index arrays is ``0..n-1``.
    """
    pts = _as_coord_array(coords)
    bins: Dict[TileId, Any] = {}
    if pts.shape[0] == 0:
        return bins
    cells = tile_index_array(pts, tile_side)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    boundaries = np.nonzero(np.any(np.diff(sorted_cells, axis=0), axis=1))[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [sorted_cells.shape[0]]))
    for start, end in zip(starts.tolist(), ends.tolist()):
        tx, ty = sorted_cells[start]
        members = np.sort(order[start:end])
        bins[(int(tx), int(ty))] = members
    return bins


def rect_distance_squared(
    coords: Any, rect: Tuple[float, float, float, float]
) -> Any:
    """Squared Euclidean distance from each point to a rectangle.

    ``rect`` is ``(x0, y0, x1, y1)``; points inside get 0.  Same
    ``max(low - v, 0, v - high)`` clamping and ``dx*dx + dy*dy`` as the
    pure oracle, so thresholding at an identical bound selects the
    identical point set.
    """
    pts = _as_coord_array(coords)
    x0, y0, x1, y1 = rect
    dx = np.maximum(np.maximum(x0 - pts[:, 0], 0.0), pts[:, 0] - x1)
    dy = np.maximum(np.maximum(y0 - pts[:, 1], 0.0), pts[:, 1] - y1)
    return dx * dx + dy * dy

