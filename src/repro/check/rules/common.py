"""Shared AST heuristics used by the determinism rules.

Everything here is a *static approximation*: without whole-program type
inference we classify expressions by shape (set literals, known
set-returning calls, annotations).  The rules err on the side of
flagging; ``# repro: noqa[RULE]`` is the documented escape hatch for a
justified exception.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

#: Methods whose return value iterates in hash/insertion order that is
#: not canonical: dict views plus this repo's set-returning graph and
#: simulator accessors.
UNORDERED_METHODS = frozenset(
    {
        "keys",
        "values",
        "items",
        "neighbors",
        "adjacency",
        "closed_neighborhood",
        "neighbor_ids",
        "difference",
        "union",
        "intersection",
        "symmetric_difference",
    }
)

#: Attributes (properties) that expose a set.
UNORDERED_ATTRIBUTES = frozenset({"neighbors", "crashed"})

#: Annotation heads that mark a name as a set or dict.
UNORDERED_ANNOTATIONS = frozenset(
    {"Set", "FrozenSet", "MutableSet", "AbstractSet", "set", "frozenset", "Dict",
     "dict", "Mapping", "MutableMapping", "DefaultDict", "Counter"}
)

#: Calls that impose an order (or aggregate away the order) and hence
#: sanctify an unordered operand.
ORDER_SAFE_CALLS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})


def call_name(node: ast.Call) -> Optional[str]:
    """The trailing name of a call target (``f`` or ``obj.meth``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript chain."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def annotation_head(annotation: Optional[ast.AST]) -> Optional[str]:
    """``Set`` from ``Set[int]``, ``typing.Set[int]``, or bare ``set``."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the head before '['.
        return node.value.split("[", 1)[0].split(".")[-1].strip() or None
    return None


def collect_unordered_names(func: ast.AST) -> Set[str]:
    """Names that are set/dict-typed inside one function body.

    Sources: parameter annotations, annotated assignments, and plain
    assignments whose right-hand side is itself an unordered expression.
    One forward pass — enough for the straight-line protocol code this
    lint targets.
    """
    names: Set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = list(func.args.args) + list(func.args.kwonlyargs)
        args += [a for a in (func.args.vararg, func.args.kwarg) if a is not None]
        for arg in args:
            if annotation_head(arg.annotation) in UNORDERED_ANNOTATIONS:
                names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if annotation_head(node.annotation) in UNORDERED_ANNOTATIONS:
                names.add(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and is_unordered_expr(node.value, names):
                names.add(target.id)
    return names


def is_unordered_expr(node: ast.AST, unordered_names: Set[str]) -> Optional[str]:
    """Why ``node`` iterates in unordered/schedule-dependent order.

    Returns a short reason string, or ``None`` when the expression is
    order-safe (sorted, a list/tuple, an unknown call...).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ORDER_SAFE_CALLS:
            return None
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return f"a {name}(...) call"
        if isinstance(node.func, ast.Attribute) and name in UNORDERED_METHODS:
            return f"a .{name}() view"
        return None
    if isinstance(node, ast.Attribute) and node.attr in UNORDERED_ATTRIBUTES:
        return f"the set-valued attribute .{node.attr}"
    if isinstance(node, ast.Name) and node.id in unordered_names:
        return f"the set/dict-typed name {node.id!r}"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_unordered_expr(node.left, unordered_names) or is_unordered_expr(
            node.right, unordered_names
        )
    return None


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """child -> parent links for the whole module."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
