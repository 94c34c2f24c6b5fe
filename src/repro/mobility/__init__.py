"""Mobility models and the beacon MIS maintenance protocol; the WCDS
is maintained by :class:`repro.shard.ShardedBackbone` (exact Algorithm
II).  §4.2's 3-hop locality describes a local repair rule: exact
Algorithm II met it on M1–M3's random-id UDGs (2 hops under mobility,
3 under on/off churn), but on row-major ``jittered_grid(10000)``, 86–95
of 480 moves of up to 0.3 R flipped nodes more than 3 hops away (max
90–93 hops, seeds 0–2)."""

from repro.mobility.waypoint import LinkEvents, RandomWaypointModel
from repro.mobility.models import (
    GaussMarkovModel,
    MobilityModel,
    RandomDirectionModel,
    density_probe,
)
from repro.mobility.protocol import MaintenanceSimulation, MisMaintenanceNode

__all__ = [
    "LinkEvents",
    "RandomWaypointModel",
    "GaussMarkovModel",
    "MobilityModel",
    "RandomDirectionModel",
    "density_probe",
    "MaintenanceSimulation",
    "MisMaintenanceNode",
]
