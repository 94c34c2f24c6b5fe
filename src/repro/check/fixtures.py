"""Seeded fixture protocols for exercising the race detector.

:class:`LastHeardWinsNode` carries a textbook order-dependence bug: each
node remembers the *last* ANNOUNCE it processed.  All announcements are
broadcast at time 0 and delivered at time 1, so which one is "last" is
purely a tie-break among simultaneously-deliverable messages — exactly
the ambiguity :func:`repro.check.races.detect_races` perturbs.  The
detector must flag it; ``tests/test_check_races.py`` pins that it does.

Note the bug is *protocol-level*: no set is iterated, no clock is read —
none of the D1–D5 lints can see it.  That is why the race detector
exists alongside the static rules.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.graphs.generators import connected_random_udg
from repro.graphs.graph import Graph
from repro.check.races import Fingerprint, RaceReport, Runner, detect_races
from repro.sim.engine import run_protocol
from repro.sim.messages import Message
from repro.sim.node import NodeContext, ProtocolNode

ANNOUNCE = "ANNOUNCE"


class LastHeardWinsNode(ProtocolNode):
    """Intentionally racy: the outcome is the last announcement heard."""

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self.last_heard: Optional[Hashable] = None

    def on_start(self) -> None:
        self.ctx.broadcast(ANNOUNCE)

    def on_message(self, msg: Message) -> None:
        if msg.kind == ANNOUNCE:
            self.last_heard = msg.sender

    def result(self) -> Dict[str, object]:
        return {"last_heard": self.last_heard}


def last_heard_fingerprint(graph: Graph) -> Runner:
    """Fingerprint that (wrongly) treats the order-dependent outcome as
    an invariant — the race detector exposes the lie."""

    def run() -> Fingerprint:
        results, _ = run_protocol(graph, LastHeardWinsNode)
        return {
            "winners": tuple(
                sorted(
                    ((repr(n), repr(res["last_heard"])) for n, res in results.items()),
                )
            )
        }

    return run


def race_demo_report(
    *, nodes: int = 30, side: float = 4.0, seed: int = 7, perturbations: int = 5
) -> RaceReport:
    """Run the detector against the intentionally racy fixture."""
    graph = connected_random_udg(nodes, side, seed=seed)
    return detect_races(
        last_heard_fingerprint(graph),
        protocol="race-demo (last-heard-wins)",
        perturbations=perturbations,
    )
