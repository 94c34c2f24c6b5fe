"""S-rules — spawn/shared-memory safety at the worker boundary.

The spawn-worker substrate (:mod:`repro.workers`) runs the workers of
the shard serve pool (:mod:`repro.shard.pool`) and the fleet runner
(:mod:`repro.sim.fleet`) over a :class:`~repro.workers.SharedPositions`
shared-memory block.  That boundary has hazard classes the D-rules
cannot see:

* **S1** — unpicklable values handed across the ``Process`` boundary
  (lambdas, locks, open file handles, live ``Tracer``/registry
  objects).  Spawn pickles every argument; these fail at start-up on
  some platforms and — worse — *succeed with divergent copies* on
  others.
* **S2** — worker-side writes to a ``SharedPositions`` array.  The
  shared block is contractually read-only in workers: the parent owns
  churn, workers refresh replicas from it.  A worker write races every
  other worker with no synchronization.
* **S3** — module-level mutable state touched from worker entrypoints.
  Spawn re-imports the module in the child, so the parent's mutations
  are invisible there and the two copies silently diverge.

"Worker functions" are the module-level functions named as a
``Process(target=...)`` or as the ``handler=`` of a ``WorkerGroup(...)``
(the substrate's worker loop calls it with every client message), plus
everything they transitively call in the same module.  The values a
``WorkerGroup`` ships to its workers (``handler=`` and ``args=``) cross
the boundary like ``Process`` arguments do.  The analysis is
module-local and shape-based, in the spirit of
:mod:`repro.check.rules.common`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check.rules import base, common
from repro.check.violations import Violation

SHARD_SCOPE = ("src/repro/shard/", "src/repro/sim/fleet.py", "src/repro/workers.py")

#: Spawn calls and the keyword naming each one's worker entry point:
#: ``Process(target=...)`` and the substrate's ``WorkerGroup(handler=...)``,
#: which ships only its ``handler=`` and ``args=`` to the workers.
SPAWN_ENTRY = {"Process": "target", "WorkerGroup": "handler"}
GROUP_SHIPPED = ("handler", "args")

#: Constructors whose instances do not survive pickling (or pickle into
#: divergent copies): synchronization primitives, handles, and this
#: repo's live telemetry objects.
UNPICKLABLE_CALLS = frozenset(
    {
        "open",
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Condition",
        "Event",
        "Barrier",
        "Tracer",
        "MetricsRegistry",
        "get_tracer",
        "get_flight_recorder",
    }
)

#: Attribute/name suffixes that, crossing the boundary, smell like live
#: telemetry or synchronization state rather than plain data.
UNPICKLABLE_NAMES = frozenset(
    {"tracer", "registry", "lock", "_lock", "_tracer", "_registry"}
)

#: Container methods that mutate in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
    }
)

#: Calls producing mutable containers at module level.
MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


def _spawn_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Each spawn call with the keyword naming its worker entry point."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            entry = SPAWN_ENTRY.get(common.call_name(node) or "")
            if entry is not None:
                yield node, entry


def _module_functions(tree: ast.AST) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in ast.iter_child_nodes(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def worker_functions(tree: ast.AST) -> Dict[str, ast.FunctionDef]:
    """Module-level functions reachable from a ``Process(target=...)``
    or a ``WorkerGroup(handler=...)``."""
    functions = _module_functions(tree)
    roots: List[str] = []
    for call, entry in _spawn_calls(tree):
        for kw in call.keywords:
            if kw.arg == entry and isinstance(kw.value, ast.Name):
                roots.append(kw.value.id)
    reachable: Dict[str, ast.FunctionDef] = {}
    frontier = [name for name in roots if name in functions]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable[name] = functions[name]
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in functions and node.func.id not in reachable:
                    frontier.append(node.func.id)
    return reachable


class UnpicklableCaptureRule(base.Rule):
    code = "S1"
    name = "unpicklable-capture"
    description = (
        "lambda, lock, open handle, or live telemetry object handed "
        "across the spawn worker boundary"
    )
    scope = SHARD_SCOPE

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        for call, entry in _spawn_calls(module.tree):
            for kw in call.keywords:
                if kw.arg == "target" or (
                    entry == "handler" and kw.arg not in GROUP_SHIPPED
                ):
                    continue
                values: List[ast.AST] = (
                    list(kw.value.elts)
                    if isinstance(kw.value, (ast.Tuple, ast.List))
                    else [kw.value]
                )
                for value in values:
                    reason = _unpicklable_reason(value)
                    if reason is None:
                        continue
                    yield self.violation(
                        module,
                        value,
                        f"{reason} crosses the spawn worker boundary; spawn "
                        "pickles every Process argument and this one does "
                        "not survive the trip — pass plain data and "
                        "reconstruct in the worker, or justify with "
                        "`# repro: noqa[S1]`",
                    )


def _unpicklable_reason(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Call):
        name = common.call_name(node)
        if name in UNPICKLABLE_CALLS:
            return f"a live `{name}(...)` object"
    trailing = None
    if isinstance(node, ast.Attribute):
        trailing = node.attr
    elif isinstance(node, ast.Name):
        trailing = node.id
    if trailing is not None and trailing.lstrip("_").lower() in {
        n.lstrip("_") for n in UNPICKLABLE_NAMES
    }:
        return f"the live telemetry/lock object `{trailing}`"
    return None


class SharedArrayWriteRule(base.Rule):
    code = "S2"
    name = "worker-shared-write"
    description = (
        "worker-side write to a SharedPositions array (contractually "
        "read-only in workers)"
    )
    scope = SHARD_SCOPE

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        for func in worker_functions(module.tree).values():
            aliases = _array_aliases(func)
            for node in ast.walk(func):
                target = _store_target(node)
                if target is None:
                    continue
                if _is_array_expr(target, aliases, allow_bare_alias=False):
                    yield self.violation(
                        module,
                        node,
                        "worker-side write to a shared positions array; the "
                        "shared block is read-only in workers (the parent "
                        "owns churn, workers refresh replicas) — move the "
                        "write to the parent, or justify with "
                        "`# repro: noqa[S2]`",
                    )
            # in-place mutators on the array (fill, sort, ...)
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"fill", "sort", "put", "resize"}
                    and _is_array_expr(node.func.value, aliases)
                ):
                    yield self.violation(
                        module,
                        node,
                        f"worker-side `.{node.func.attr}()` on a shared "
                        "positions array; the shared block is read-only in "
                        "workers — move the mutation to the parent, or "
                        "justify with `# repro: noqa[S2]`",
                    )


def _array_aliases(func: ast.FunctionDef) -> Set[str]:
    """Local names bound to a ``<shared>.array`` view."""
    aliases: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "array"
        ):
            aliases.add(node.targets[0].id)
    return aliases


def _store_target(node: ast.AST) -> Optional[ast.AST]:
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return node.targets[0]
    if isinstance(node, ast.AugAssign):
        return node.target
    return None


def _is_array_expr(
    node: ast.AST, aliases: Set[str], allow_bare_alias: bool = True
) -> bool:
    """Whether ``node`` addresses (an element of) a shared array.

    A bare alias ``Name`` only counts when ``allow_bare_alias`` — for
    store targets it is a local rebind (``rows = shared.array``), not a
    write into the array.
    """
    current = node
    unwrapped = False
    while isinstance(current, ast.Subscript):
        current = current.value
        unwrapped = True
    if isinstance(current, ast.Attribute) and current.attr == "array":
        return True
    if not isinstance(current, ast.Name) or current.id not in aliases:
        return False
    return unwrapped or allow_bare_alias


class WorkerModuleStateRule(base.Rule):
    code = "S3"
    name = "worker-module-state"
    description = (
        "module-level mutable state touched from a spawn worker "
        "entrypoint (spawn re-import diverges from the parent)"
    )
    scope = SHARD_SCOPE

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        mutable = _module_mutables(module.tree)
        if not mutable:
            return
        for func in worker_functions(module.tree).values():
            local = _local_names(func)
            for node in ast.walk(func):
                hit = _global_mutation(node, mutable, local)
                if hit is None:
                    continue
                name, how = hit
                yield self.violation(
                    module,
                    node,
                    f"worker entrypoint {how} the module-level mutable "
                    f"`{name}`; spawn re-imports the module in the child, "
                    "so parent and worker copies silently diverge — pass "
                    "the state explicitly, or justify with "
                    "`# repro: noqa[S3]`",
                )


def _module_mutables(tree: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            out.add(target.id)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_FACTORIES
        ):
            out.add(target.id)
    return out


def _local_names(func: ast.FunctionDef) -> Set[str]:
    """Names assigned or bound as params inside the function (they
    shadow module globals)."""
    names = {a.arg for a in func.args.args}
    names.update(a.arg for a in func.args.kwonlyargs)
    for extra in (func.args.vararg, func.args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For,)) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _global_mutation(
    node: ast.AST, mutable: Set[str], local: Set[str]
) -> Optional[Tuple[str, str]]:
    """(name, verb) when ``node`` mutates a module-level mutable."""

    def is_global(name: Optional[str]) -> bool:
        return name is not None and name in mutable and name not in local

    if isinstance(node, ast.Global):
        for name in node.names:
            if name in mutable:
                return name, "rebinds (via `global`)"
    target = _store_target(node)
    if (
        target is not None
        and isinstance(target, (ast.Subscript, ast.Attribute))
        and is_global(common.root_name(target))
    ):
        return common.root_name(target) or "?", "writes into"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATOR_METHODS
        and isinstance(node.func.value, ast.Name)
        and is_global(node.func.value.id)
    ):
        return node.func.value.id, f"mutates (`.{node.func.attr}()`)"
    return None
