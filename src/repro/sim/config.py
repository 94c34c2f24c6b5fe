"""Simulation configuration.

One frozen :class:`SimConfig` describes the whole radio environment of
a run — latency model, ambient loss, the optional declarative
:class:`~repro.faults.plan.FaultPlan` the simulator executes, and the
optional reliable-transport configuration protocols run over.  It is
the only way the simulator and every protocol entry point learn their
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Optional

from repro.faults.plan import FaultPlan
from repro.sim.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.transport.config import TransportConfig


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation needs to know about its environment.

    Attributes:
        latency: delivery-latency model (``None`` = fixed unit latency,
            the synchronous round model of the paper's theorems).
        loss_rate: ambient per-delivery loss probability in ``[0, 1)``.
        seed: seed for the loss RNG (and anything else the simulator
            randomizes); ``None`` = nondeterministic.
        max_events: livelock guard passed to ``Simulator.run``.
        fault_plan: declarative chaos schedule the simulator executes
            (loss bursts, crashes/revivals, partitions).
        transport: when set, every protocol node is wrapped in the
            reliable transport (ack/retransmit, duplicate suppression,
            liveness heartbeats).  ``True`` selects the default
            :class:`~repro.transport.config.TransportConfig`.
        engine: which simulator core executes the run — ``"event"``
            (the reference heap-based oracle), ``"batched"`` (the
            bucket-queue engine, bit-identical but faster on
            broadcast-heavy workloads), or ``"auto"`` (batched iff the
            graph has ≥ 64 nodes, the crossover of the kernels' size
            rule :func:`repro.kernels.use_vector`).
    """

    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    seed: Optional[int] = None
    max_events: int = 10_000_000
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    transport: Any = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ("event", "batched", "auto"):
            raise ValueError(
                f"unknown engine {self.engine!r} "
                "(expected 'event', 'batched', or 'auto')"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.fault_plan is None:
            object.__setattr__(self, "fault_plan", FaultPlan())
        if self.transport is True:
            from repro.transport.config import TransportConfig

            object.__setattr__(self, "transport", TransportConfig())

    @property
    def transport_config(self) -> "Optional[TransportConfig]":
        """The transport configuration, or ``None`` when disabled."""
        config: "Optional[TransportConfig]" = self.transport or None
        return config

    @property
    def faulty(self) -> bool:
        """True when the config injects any fault (loss or plan)."""
        return bool(self.fault_plan) or self.loss_rate > 0.0

    def with_plan(self, plan: Optional[FaultPlan]) -> "SimConfig":
        """A copy with ``fault_plan`` replaced."""
        return replace(self, fault_plan=plan if plan is not None else FaultPlan())
