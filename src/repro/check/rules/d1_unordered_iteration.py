"""D1 — unordered iteration driving protocol effects.

Iterating a ``set``/``frozenset``/dict view inside protocol or simulator
code is fine when the body is a pure aggregation, but the moment the
body sends a message, schedules an event, or breaks out early, the
iteration order becomes part of the observable execution — and Python
set order is a function of the hash seed and the container's insertion
history, not of the protocol.  Every such loop must impose an order
(``sorted(..., key=repr)``) or carry a justification noqa.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.check.rules import base, common
from repro.check.violations import Violation

#: Calls inside a loop body that make the iteration order observable:
#: radio sends, event-queue pushes, protocol-hook dispatch, graph
#: mutation, and order-recording container updates.
EFFECT_CALLS = frozenset(
    {
        "broadcast",
        "send",
        "transmit",
        "unicast",
        "set_timer",
        "schedule_timer",
        "crash_node",
        "revive_node",
        "on_start",
        "on_message",
        "on_timer",
        "push",
        "heappush",
        "_push",
        "_push_raw",
        "append",
        "appendleft",
        "insert",
        "setdefault",
        "add_edge",
        "remove_edge",
        "remove_node",
    }
)


class UnorderedIterationRule(base.Rule):
    code = "D1"
    name = "unordered-iteration"
    description = (
        "for-loop over a set/frozenset/dict view whose body sends messages, "
        "mutates protocol state, or breaks ties"
    )
    scope = (
        "src/repro/sim/",
        "src/repro/election/",
        "src/repro/mis/",
        "src/repro/wcds/",
        "src/repro/mobility/",
        "src/repro/routing/",
        "src/repro/transport/",
        "src/repro/faults/",
        "src/repro/backbone/",
        "src/repro/shard/",
        "src/repro/workers.py",
        "src/repro/opt/",
        "src/repro/obs/pipeline.py",
        "src/repro/obs/flightrec.py",
        "src/repro/obs/slo.py",
        "src/repro/service/",
    )

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        claimed: Set[int] = set()
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Outer functions claim their loops first (ast.walk is outermost
        # first), then a module-level pass picks up top-level loops.
        for scope_node in functions + [module.tree]:
            names = common.collect_unordered_names(scope_node)
            for node in ast.walk(scope_node):
                if not isinstance(node, ast.For) or id(node) in claimed:
                    continue
                claimed.add(id(node))
                reason = common.is_unordered_expr(node.iter, names)
                if reason is None:
                    continue
                effect = _first_effect(node)
                if effect is None:
                    continue
                yield self.violation(
                    module,
                    node,
                    f"iteration over {reason} {effect}; wrap the iterable in "
                    "sorted(..., key=repr) or justify with `# repro: noqa[D1]`",
                )


def _first_effect(loop: ast.For) -> Optional[str]:
    """Why the loop body is order-sensitive, or None if it looks pure.

    Nested function/class definitions are not descended into: their
    bodies execute later, outside this iteration order.
    """
    stack: List[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Break):
            return "breaks ties via `break`"
        if isinstance(node, ast.Return):
            return "breaks ties via `return`"
        if isinstance(node, ast.Call):
            name = common.call_name(node)
            if name in EFFECT_CALLS:
                return f"calls the order-sensitive `{name}()`"
        stack.extend(ast.iter_child_nodes(node))
    return None
