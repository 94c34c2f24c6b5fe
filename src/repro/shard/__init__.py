"""Spatially-tiled backbone sharding with frontier stitching.

The paper's locality results are what make sharding sound: Algorithm
II's decisions are ≤2-hop local, its connectors span ≤3 hops, and
Lemma 2 bounds the MIS-dominators a boundary can expose.  This
subpackage operationalizes that:

* :class:`~repro.shard.tiler.Tiler` — cut the plane into tiles with a
  3-radius halo and frontier band;
* :class:`~repro.shard.stitch.ShardedBackbone` /
  :func:`~repro.shard.stitch.build_sharded` — per-tile Algorithm II
  stitched by frontier-pin exchange, bit-identical to the global
  construction, with boundary-only invalidation under churn;
* :class:`~repro.shard.pool.ShardServePool` — serve the stitched
  backbone from per-tile replicas, in-process or across a
  ``spawn`` worker pool over shared-memory positions (the workers are
  a :class:`~repro.workers.WorkerGroup`; ``SharedPositions`` is
  re-exported from :mod:`repro.workers`).

The ``bench`` submodule only re-exports
:func:`repro.graphs.jittered_grid` for the benchmark suite; the scaling
measurements live in ``benchmarks/bench_shard_scaling.py``.
"""

from repro.shard.config import MIN_HALO_RADII, ShardConfig
from repro.shard.pool import ShardServePool
from repro.shard.stitch import (
    ALGORITHM_NAME,
    InvalidationReport,
    ShardedBackbone,
    build_sharded,
)
from repro.shard.tiler import TileId, Tiler
from repro.workers import SharedPositions

__all__ = [
    "ALGORITHM_NAME",
    "MIN_HALO_RADII",
    "InvalidationReport",
    "ShardConfig",
    "ShardServePool",
    "ShardedBackbone",
    "SharedPositions",
    "TileId",
    "Tiler",
    "build_sharded",
]
