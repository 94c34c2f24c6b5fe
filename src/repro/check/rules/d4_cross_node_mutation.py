"""D4 — cross-node state mutation inside protocol node handlers.

A :class:`~repro.sim.node.ProtocolNode` may only change *its own* state;
everything else must travel as a delivered message.  Writing through a
reference that reaches another node — the simulator's ``nodes`` table, a
delivered :class:`Message` object (which broadcast fan-out *shares*
between all receivers), or any handler parameter — is action at a
distance the radio model does not permit, and it breaks the locality
claims the paper's theorems rely on.

The rule looks inside classes whose base name ends with ``Node`` and
flags, in their methods: attribute/subscript stores and mutating method
calls whose receiver is (a) an expression reaching ``.nodes``, (b) a
parameter other than ``self``, or (c) a local alias of either.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.check.rules import base, common
from repro.check.violations import Violation

#: Container methods that mutate their receiver.
MUTATING_METHODS = frozenset(
    {
        "add",
        "discard",
        "remove",
        "append",
        "appendleft",
        "extend",
        "insert",
        "update",
        "pop",
        "popitem",
        "clear",
        "setdefault",
    }
)


class CrossNodeMutationRule(base.Rule):
    code = "D4"
    name = "cross-node-mutation"
    description = (
        "node handler writes state through a reference reaching another "
        "node; state may only change via delivered messages"
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
        "src/repro/obs/pipeline.py",
        "src/repro/obs/flightrec.py",
        "src/repro/obs/slo.py",
        "src/repro/service/",
    )

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            if not _is_node_class(classdef):
                continue
            for method in classdef.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield from self._check_method(module, method)

    def _check_method(
        self, module: base.ModuleSource, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        params = {
            arg.arg
            for arg in list(method.args.args)
            + list(method.args.kwonlyargs)
            + [a for a in (method.args.vararg, method.args.kwarg) if a]
        }
        params.discard("self")
        foreign = set(params)
        # One forward pass collecting local aliases of foreign references
        # (`other = self.ctx._sim.nodes[x]`, `peer = msg`).
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _reaches_foreign(
                    node.value, foreign
                ):
                    foreign.add(target.id)
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and _reaches_foreign(target, foreign):
                        yield self.violation(
                            module,
                            node,
                            "handler writes through a reference that reaches "
                            "another node "
                            f"({_render(target)}); node state may only change "
                            "via delivered messages",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and _reaches_foreign(func.value, foreign)
                ):
                    yield self.violation(
                        module,
                        node,
                        f"handler mutates foreign state via .{func.attr}() on "
                        f"{_render(func.value)}; node state may only change "
                        "via delivered messages",
                    )


def _is_node_class(classdef: ast.ClassDef) -> bool:
    for expr in classdef.bases:
        name: Optional[str] = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is not None and name.endswith("Node"):
            return True
    return False


def _reaches_foreign(node: ast.AST, foreign: Set[str]) -> bool:
    """Whether the expression dereferences another node's state: its
    root name is foreign, or the chain passes through ``.nodes``."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute) and current.attr == "nodes":
            return True
        current = current.value
    return isinstance(current, ast.Name) and current.id in foreign


def _render(node: ast.AST) -> str:
    if hasattr(ast, "unparse"):
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - defensive
            pass
    return "<expression>"
