"""Simulation configuration.

One frozen :class:`SimConfig` describes the whole radio environment of
a run — latency model, ambient loss, the optional declarative
:class:`~repro.faults.plan.FaultPlan` the simulator executes, whether
protocols run over the reliable transport, and the engine.  It is the
only way the simulator and every protocol entry point learn their
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.sim.latency import LatencyModel


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation needs to know about its environment.

    Attributes:
        latency: delivery-latency model (``None`` = fixed unit latency,
            the synchronous round model of the paper's theorems).
        loss_rate: ambient per-delivery loss probability in ``[0, 1)``.
        seed: seed for the loss RNG (and anything else the simulator
            randomizes); ``None`` = nondeterministic.
        max_events: livelock guard of ``Simulator.run``: more events
            than this raise ``RuntimeError``.
        fault_plan: declarative chaos schedule the simulator executes
            (loss bursts, crashes/revivals, partitions).
        transport: when true, every protocol node is wrapped in the
            reliable transport (ack/retransmit, duplicate suppression,
            liveness heartbeats; its timing constants live in
            :mod:`repro.transport.reliable`).
        engine: which simulator core executes the run — ``"batched"``
            (the bucket-queue engine, the default) or ``"event"`` (the
            reference heap-based oracle it is bit-identical to).
    """

    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    seed: Optional[int] = None
    max_events: int = 10_000_000
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    transport: bool = False
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.engine not in ("event", "batched"):
            raise ValueError(
                f"unknown engine {self.engine!r} (expected 'event' or 'batched')"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.fault_plan is None:
            object.__setattr__(self, "fault_plan", FaultPlan())

    @property
    def faulty(self) -> bool:
        """True when the config injects any fault (loss or plan)."""
        return bool(self.fault_plan) or self.loss_rate > 0.0

    def with_plan(self, plan: Optional[FaultPlan]) -> "SimConfig":
        """A copy with ``fault_plan`` replaced."""
        return replace(self, fault_plan=plan if plan is not None else FaultPlan())
