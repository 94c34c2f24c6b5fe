"""Tunables of the sharded backbone.

One frozen dataclass describes the sharding geometry and the serving
topology: how big a tile is, and how many worker processes the serve
pool spreads the tiles over, with how many queries per message.

All lengths are expressed in units of the radio radius, mirroring the
paper: Algorithm II's decisions are ≤2-hop local and its connectors
span ≤3 hops, so a halo of :data:`MIN_HALO_RADII` radii is exactly what
makes a tile's local computation agree with the global construction
(see ``docs/SHARDING.md`` for the argument).  Every tile reads that
halo; it is not a knob.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Connector selection inspects 3-hop neighborhoods (a pair of
#: MIS-dominators at hop distance 3 plus the intermediate path), so a
#: tile reads this many radii beyond its own rectangle (its halo, and
#: the width of the frontier band it publishes) to reproduce the
#: global choice for the pairs it owns.
MIN_HALO_RADII = 3.0


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of the spatial sharding and its serve pool.

    Attributes:
        tile_size: tile side length in radio radii.  Smaller tiles mean
            more parallelism and cheaper invalidation but relatively
            larger halos; below ``2 * MIN_HALO_RADII`` every owned node
            is also a frontier node.
        workers: serve-pool worker processes.  ``0`` keeps every tile
            replica in-process (deterministic, no multiprocessing) —
            the mode tests and the stitching oracle use.
        batch_size: query batch size the pool dispatches to a worker in
            one message; batching amortizes the IPC cost.
    """

    tile_size: float = 8.0
    workers: int = 0
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.tile_size <= 0:
            raise ValueError("tile_size must be positive (radii)")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
