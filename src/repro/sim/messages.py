"""Message envelope used by the simulator.

Protocols exchange small typed payloads.  The simulator treats the
payload as opaque; ``kind`` is the protocol-level message name (the
paper's BLACK / GRAY / MIS-DOMINATOR / ... messages) and is what the
per-kind message accounting groups by.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, Hashable, Optional

#: Default of ``data``: a fresh empty dict per message, while an
#: explicit ``None`` is kept as given (as a dataclass default factory does).
_NO_DATA: Any = object()


class Message:
    """A protocol message.

    ``dest`` is ``None`` for a local broadcast (one radio transmission
    heard by every neighbor — the paper's unit of message accounting) or
    a specific neighbor id for a unicast.

    Immutable and compared by value, like a frozen dataclass of its four
    fields, but slotted: every send builds one and every delivery reads
    it, so construction and attribute reads are on the simulator's hot
    path.
    """

    __slots__ = ("sender", "kind", "data", "dest")

    sender: Hashable
    kind: str
    data: Dict[str, Any]
    dest: Optional[Hashable]

    def __init__(
        self,
        sender: Hashable,
        kind: str,
        data: Dict[str, Any] = _NO_DATA,
        dest: Optional[Hashable] = None,
    ) -> None:
        _set_sender(self, sender)
        _set_kind(self, kind)
        _set_data(self, {} if data is _NO_DATA else data)
        _set_dest(self, dest)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.sender, self.kind, self.data, self.dest)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # A dict payload is unhashable, so this raises TypeError, as the
        # frozen dataclass's field-tuple hash does.
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(sender={self.sender!r}, kind={self.kind!r}, "
            f"data={self.data!r}, dest={self.dest!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())

    def get(self, key: str, default: Any = None) -> Any:
        """Payload field access with a default."""
        return self.data.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    @property
    def is_broadcast(self) -> bool:
        """Whether the message was a local broadcast."""
        return self.dest is None

    def payload_size(self) -> int:
        """Number of payload entries, for communication-volume stats.

        Counts 1 per scalar field and the length of each collection
        field (a neighbor list of k ids costs k), plus 1 for the kind
        header — a simple, protocol-agnostic size model.
        """
        size = 1  # the message kind itself
        for value in self.data.values():
            if isinstance(value, COLLECTIONS):
                size += max(len(value), 1)
            else:
                size += 1
        return size


# The slots' own descriptors fill a new message: calling them directly
# skips the refused ``__setattr__`` and costs a third less than
# ``object.__setattr__``.
_set_sender, _set_kind, _set_data, _set_dest = (
    vars(Message)[name].__set__ for name in Message.__slots__
)

#: The payload values :meth:`Message.payload_size` counts by length.
COLLECTIONS = (tuple, list, frozenset, set, dict)

#: Exact payload value types that count one entry: set membership of a
#: type costs about a third of an ``isinstance`` test against
#: :data:`COLLECTIONS`.  A subclass (an ``IntEnum``, a ``str`` subclass)
#: is not in the set and takes the ``isinstance`` rule.
SCALARS = frozenset({int, bool, float, str, type(None)})

