"""Protocol node base class and the context handed to each node.

A protocol is written the way the paper describes its algorithms: each
node holds local state, reacts to messages from its one-hop neighbors,
and may broadcast or unicast in response.  Nodes never touch the graph,
positions, or other nodes' state — the :class:`NodeContext` is the whole
world a node can see, which keeps implementations honest about the
"fully localized / position-less" claims.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Hashable, Tuple

from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class NodeContext:
    """A node's interface to the radio and the local clock.

    Exposes exactly the knowledge the paper grants a node: its own id
    and the ids of its one-hop neighbors ("each node is only required to
    know which nodes are in its vicinity").
    """

    def __init__(self, sim: "Simulator", node_id: Hashable) -> None:
        self._sim = sim
        self.node_id = node_id

    @property
    def neighbors(self) -> FrozenSet[Hashable]:
        """IDs of the current one-hop neighbors."""
        return self._sim.neighbor_ids(self.node_id)

    @property
    def audience(self) -> Tuple[Hashable, ...]:
        """All radio neighbors in canonical order, crashed ones included."""
        return self._sim.audience_of(self.node_id)

    @property
    def epoch(self) -> int:
        """Moves whenever ``neighbors`` may have changed."""
        return self._sim.epoch

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._sim.now

    def broadcast(self, kind: str, **data: Any) -> None:
        """Transmit one local broadcast heard by every neighbor.

        Counts as a single message, matching the paper's accounting of
        one radio transmission per send.
        """
        self._sim.transmit(Message(self.node_id, kind, data))

    def send(self, dest: Hashable, kind: str, **data: Any) -> None:
        """Unicast to a one-hop neighbor (still one radio transmission)."""
        self._sim.transmit(Message(self.node_id, kind, data, dest=dest))

    def set_timer(self, delay: float, tag: str = "timer") -> None:
        """Schedule :meth:`ProtocolNode.on_timer` after ``delay``."""
        self._sim.schedule_timer(self.node_id, delay, tag)


class ProtocolNode:
    """Base class for per-node protocol state machines.

    Subclasses override the three hooks.  ``self.ctx`` is available from
    construction time on; ``self.node_id`` is a shortcut for its id.
    """

    def __init__(self, ctx: NodeContext) -> None:
        self.ctx = ctx
        self.node_id = ctx.node_id

    def on_start(self) -> None:
        """Called once at time 0, before any message is delivered."""

    def on_message(self, msg: Message) -> None:
        """Called for each message this node receives."""

    def on_timer(self, tag: str) -> None:
        """Called when a timer set via ``ctx.set_timer`` fires."""

    def on_neighbor_down(self, peer: Hashable) -> None:
        """Called when the reliable transport declares ``peer`` dead.

        Only fires when the protocol runs over :mod:`repro.transport`;
        the default is a no-op.  Protocols override it to release
        waiting predicates that reference the lost neighbor (see the
        MIS/WCDS implementations).
        """

    def on_neighbor_up(self, peer: Hashable) -> None:
        """Called when a previously-suspected neighbor is heard again."""

    def result(self) -> Dict[str, Any]:
        """Protocol outcome for this node, collected after the run.

        Subclasses return their decision variables (color, lists, ...).
        """
        return {}
