"""Reliable delivery over the simulator's lossy radio.

Wraps protocol nodes with per-neighbor ack/retransmit, duplicate
suppression, and heartbeat-based neighbor liveness, so the paper's
algorithms terminate correctly under message loss, crashes, and
partitions (see :mod:`repro.faults`).
"""

from repro.transport.reliable import (
    ACK_KIND,
    CONTROL_KINDS,
    HEARTBEAT_KIND,
    ReliableTransport,
    TransportContext,
    TransportNode,
    aggregate_transport,
    with_transport,
)

__all__ = [
    "ACK_KIND",
    "CONTROL_KINDS",
    "HEARTBEAT_KIND",
    "ReliableTransport",
    "aggregate_transport",
    "TransportContext",
    "TransportNode",
    "with_transport",
]
