"""Declarative service-level objectives with burn-rate monitoring.

An :class:`SLO` states what "good" means for requests against a
:class:`repro.service.BackboneService` — either a latency bound
(``kind="latency"``: a request is good when it succeeds within
``threshold`` seconds) or plain availability (``kind="availability"``:
good when it succeeds and makes its deadline).  ``target`` is the
long-run good fraction the objective promises (e.g. ``0.99``).

:class:`SLOMonitor` scores every request against each objective over a
rolling window and reports the standard burn-rate framing:

* ``compliance`` — good fraction over the window;
* ``burn_rate`` — ``(1 - compliance) / (1 - target)``: how many times
  faster than budget the error budget is being spent (1.0 = exactly on
  budget, >1 = burning hot);
* ``budget_remaining`` — the fraction of the *lifetime* error budget
  still unspent (can go negative once blown).

An SLO's verdict is OK while its burn rate stays at or below
``max_burn_rate``.  When the monitor has a registry, every ``status()``
refresh also publishes ``slo_burn_rate{slo=...}``,
``slo_compliance{slo=...}``, and ``slo_budget_remaining{slo=...}``
gauges, and each scored request bumps
``slo_requests_total{slo=...,good=...}`` — so burn rates flow through
the same harvest pipeline as everything else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Counter, MetricsRegistry

LATENCY = "latency"
AVAILABILITY = "availability"


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    Args:
        name: unique handle (appears as the ``slo`` metric label).
        kind: ``"latency"`` or ``"availability"``.
        target: promised good fraction in (0, 1).
        op: restrict scoring to one service operation (e.g.
            ``"route"``); ``None`` scores every request.
        threshold: latency bound in seconds (required for latency SLOs).
        window: rolling window size in requests.
        max_burn_rate: verdict threshold — OK while burn rate <= this.
    """

    name: str
    kind: str = LATENCY
    target: float = 0.99
    op: Optional[str] = None
    threshold: Optional[float] = None
    window: int = 256
    max_burn_rate: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in (LATENCY, AVAILABILITY):
            raise ValueError(
                f"SLO kind must be {LATENCY!r} or {AVAILABILITY!r}, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError("SLO target must be in (0, 1)")
        if self.kind == LATENCY and (
            self.threshold is None or self.threshold <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold")
        if self.window < 1:
            raise ValueError("SLO window must be positive")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")

    def is_good(self, *, ok: bool, elapsed: float, deadline_missed: bool) -> bool:
        """Score one request against this objective."""
        if self.kind == LATENCY:
            return ok and self.threshold is not None and elapsed <= self.threshold
        return ok and not deadline_missed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "op": self.op,
            "threshold": self.threshold,
            "window": self.window,
            "max_burn_rate": self.max_burn_rate,
        }


class _Track:
    """Rolling + lifetime tallies for one SLO."""

    __slots__ = ("window", "good_total", "bad_total")

    def __init__(self, size: int) -> None:
        self.window: Deque[bool] = deque(maxlen=size)
        self.good_total = 0
        self.bad_total = 0

    def record(self, good: bool) -> None:
        self.window.append(good)
        if good:
            self.good_total += 1
        else:
            self.bad_total += 1

    @property
    def total(self) -> int:
        return self.good_total + self.bad_total

    def compliance(self) -> float:
        """Good fraction over the rolling window (1.0 when empty)."""
        if not self.window:
            return 1.0
        return sum(self.window) / len(self.window)


class SLOMonitor:
    """Scores requests against a set of :class:`SLO` s.

    Thread-compatible with the service's usage (one recording site);
    no locking of its own.
    """

    def __init__(
        self,
        slos: Sequence[SLO],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.slos: Tuple[SLO, ...] = tuple(slos)
        self.registry = registry
        self._tracks: Dict[str, _Track] = {
            slo.name: _Track(slo.window) for slo in self.slos
        }
        # ``slo_requests_total`` handles by (SLO name, good), bound on
        # first use so a scored request does not sort label tuples; a
        # detached over-cap child is never kept (asking again counts
        # each drop).
        self._handles: Dict[Tuple[str, bool], Counter] = {}

    def record(
        self,
        op: str,
        elapsed: float,
        *,
        ok: bool = True,
        deadline_missed: bool = False,
    ) -> None:
        """Score one finished request against every matching SLO."""
        for slo in self.slos:
            if slo.op is not None and slo.op != op:
                continue
            good = slo.is_good(
                ok=ok, elapsed=elapsed, deadline_missed=deadline_missed
            )
            self._tracks[slo.name].record(good)
            if self.registry is not None:
                counter = self._handles.get((slo.name, good))
                if counter is None:
                    counter = self.registry.counter(
                        "slo_requests_total",
                        "requests scored against an SLO",
                        slo=slo.name,
                        good=str(good).lower(),
                    )
                    if self.registry.holds(counter):
                        self._handles[slo.name, good] = counter
                counter.inc()

    def status(self) -> List[Dict[str, Any]]:
        """Per-SLO verdict rows (and gauge refresh when registered)."""
        rows: List[Dict[str, Any]] = []
        for slo in self.slos:
            track = self._tracks[slo.name]
            compliance = track.compliance()
            budget = 1.0 - slo.target
            burn_rate = (1.0 - compliance) / budget
            if track.total:
                lifetime_bad = track.bad_total / track.total
                budget_remaining = 1.0 - lifetime_bad / budget
            else:
                budget_remaining = 1.0
            ok = burn_rate <= slo.max_burn_rate
            rows.append(
                {
                    "slo": slo.name,
                    "kind": slo.kind,
                    "op": slo.op,
                    "target": slo.target,
                    "window_requests": len(track.window),
                    "total_requests": track.total,
                    "compliance": compliance,
                    "burn_rate": burn_rate,
                    "max_burn_rate": slo.max_burn_rate,
                    "budget_remaining": budget_remaining,
                    "ok": ok,
                }
            )
            if self.registry is not None:
                self.registry.gauge(
                    "slo_compliance", "rolling-window good fraction", slo=slo.name
                ).set(compliance)
                self.registry.gauge(
                    "slo_burn_rate", "error-budget burn multiple", slo=slo.name
                ).set(burn_rate)
                self.registry.gauge(
                    "slo_budget_remaining",
                    "lifetime error budget left",
                    slo=slo.name,
                ).set(budget_remaining)
        return rows

    def ok(self) -> bool:
        """True while every SLO's burn rate is within its limit."""
        return all(row["ok"] for row in self.status())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slos": [slo.to_dict() for slo in self.slos],
            "status": self.status(),
            "ok": self.ok(),
        }
