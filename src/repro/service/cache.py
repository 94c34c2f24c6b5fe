"""The backbone service's route cache.

:class:`RouteCache` is an LRU over ``(src, dst)`` pairs whose entries
are invalidated **by node**: the service evicts the routes through the
members of the tiles a topology event touches, so routes through
untouched parts of the network survive churn.  The backbone itself
needs no cache: every query answers from the service's current
snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

RouteKey = Tuple[Hashable, Hashable]


class RouteCache:
    """LRU route cache with by-node invalidation.

    Every cached path registers all its nodes in an inverted index, so
    ``invalidate_nodes`` evicts exactly the routes whose realization
    passes through a given node — O(evicted), not O(cache).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._paths: "OrderedDict[RouteKey, Tuple[Hashable, ...]]" = OrderedDict()
        self._by_node: Dict[Hashable, Set[RouteKey]] = {}

    def __len__(self) -> int:
        return len(self._paths)

    def get(self, src: Hashable, dst: Hashable) -> Optional[List[Hashable]]:
        """The cached path ``src -> dst`` (a fresh list), or None."""
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            # A route is symmetric under reversal: reuse dst -> src.
            reverse = self._paths.get((dst, src))
            if reverse is None:
                return None
            self._paths.move_to_end((dst, src))
            return list(reversed(reverse))
        self._paths.move_to_end(key)
        return list(path)

    def put(self, src: Hashable, dst: Hashable, path: Iterable[Hashable]) -> None:
        """Cache a path and index its nodes for invalidation."""
        key = (src, dst)
        stored = tuple(path)
        if key in self._paths:
            self._drop(key)
        self._paths[key] = stored
        by_node = self._by_node
        for node in stored:
            keys = by_node.get(node)
            if keys is None:
                by_node[node] = {key}
            else:
                keys.add(key)
        while len(self._paths) > self.capacity:
            self._drop(next(iter(self._paths)))

    def _drop(self, key: RouteKey) -> None:
        path = self._paths.pop(key, None)
        if path is None:
            return
        for node in path:
            keys = self._by_node.get(node)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_node[node]

    def invalidate_nodes(self, nodes: Iterable[Hashable]) -> int:
        """Evict every route whose path touches any of ``nodes``."""
        doomed: Set[RouteKey] = set()
        for node in nodes:
            doomed.update(self._by_node.get(node, ()))
        for key in doomed:
            self._drop(key)
        return len(doomed)
