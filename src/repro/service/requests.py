"""Typed requests and responses of the backbone service.

Queries (``dominator`` / ``route`` / ``backbone`` / ``broadcast_plan``)
and topology updates (``join`` / ``leave`` / ``move`` / ``churn``) share
one envelope so a recorded workload is a flat JSONL stream: one request
per line, replayable by ``repro serve --requests trace.jsonl``.

Responses carry the answer plus serving metadata — most importantly
``stale``: ``True`` means the service answered from the last-good
backbone snapshot because a recomputation was still pending and the
request's deadline did not leave room to finish it synchronously.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, Optional, Tuple

#: Recognized request operations.
QUERY_OPS = ("dominator", "route", "backbone", "broadcast_plan")
UPDATE_OPS = ("join", "leave", "move", "churn")


@dataclass(frozen=True)
class Request:
    """One unit of service work.

    ``op`` is one of :data:`QUERY_OPS` or :data:`UPDATE_OPS`; the
    operand fields that apply depend on ``op``.  ``deadline`` is a
    per-request latency budget in seconds (None = unbounded).
    """

    op: str
    node: Optional[Hashable] = None   # dominator / join / leave / move
    src: Optional[Hashable] = None    # route
    dst: Optional[Hashable] = None    # route
    source: Optional[Hashable] = None  # broadcast_plan
    x: Optional[float] = None         # join / move
    y: Optional[float] = None         # join / move
    steps: int = 1                    # churn
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in QUERY_OPS + UPDATE_OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if self.op == "route" and (self.src is None or self.dst is None):
            raise ValueError("route requests need src and dst")
        if self.op in ("dominator", "join", "leave", "move") and self.node is None:
            raise ValueError(f"{self.op} requests need a node")
        if self.op in ("join", "move") and (self.x is None or self.y is None):
            raise ValueError(f"{self.op} requests need x and y")

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-ready dict (unset operands omitted)."""
        payload: Dict[str, Any] = {"op": self.op}
        for key in ("node", "src", "dst", "source", "x", "y", "deadline"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.op == "churn":
            payload["steps"] = self.steps
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Request":
        """Parse one JSONL trace entry."""
        known = {
            key: payload[key]
            for key in ("op", "node", "src", "dst", "source", "x", "y",
                        "steps", "deadline")
            if key in payload
        }
        return cls(**known)


@dataclass(frozen=True)
class Response:
    """Outcome of one request."""

    request: Request
    ok: bool
    value: Any = None
    #: Answered from the last-good snapshot instead of a fresh backbone.
    stale: bool = False
    error: Optional[str] = None
    #: Wall-clock the service spent on this request, in seconds.
    elapsed: float = 0.0
    #: Whether the request's deadline (if any) was exceeded.
    deadline_missed: bool = False


@dataclass
class RequestQueue:
    """A bounded FIFO of pending requests.

    ``offer`` rejects (returns ``False``) once ``capacity`` requests are
    waiting — back-pressure instead of unbounded memory growth; the
    service counts rejections in its metrics.
    """

    capacity: int
    _entries: Deque[Request] = field(default_factory=deque)
    rejected: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("queue capacity must be positive")

    def offer(self, request: Request) -> bool:
        """Enqueue ``request``; ``False`` (and counted) when full."""
        if len(self._entries) >= self.capacity:
            self.rejected += 1
            return False
        self._entries.append(request)
        return True

    def take(self) -> Optional[Request]:
        """Dequeue the oldest request (None when empty)."""
        return self._entries.popleft() if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries
