"""Discrete-event message-passing simulator for distributed protocols."""

from repro.sim.batched import BatchedSimulator, make_simulator
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator, run_protocol
from repro.sim.latency import FixedLatency, UniformLatency
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode
from repro.sim.stats import SimStats
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "BatchedSimulator",
    "SimConfig",
    "Simulator",
    "run_protocol",
    "make_simulator",
    "FixedLatency",
    "UniformLatency",
    "Message",
    "NodeContext",
    "ProtocolNode",
    "SimStats",
]
