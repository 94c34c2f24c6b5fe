"""Re-export of :func:`repro.graphs.jittered_grid`.

The benchmark suite's workloads import the deployment from here.  The
shard-scaling measurements are ``benchmarks/bench_shard_scaling.py``,
which drives :class:`~repro.shard.pool.ShardServePool` directly.  Once
the suite imports ``jittered_grid`` from :mod:`repro.graphs`, this
module goes.
"""

from repro.graphs.generators import jittered_grid

__all__ = ["jittered_grid"]
