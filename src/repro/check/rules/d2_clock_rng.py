"""D2 — clock and RNG hygiene in protocol and simulator code.

Simulated distributed executions must be functions of ``(topology,
seed)`` alone.  Wall-clock reads (``time.time`` and friends) and the
process-global RNG (module-level ``random.*`` calls, ``os.urandom``,
``uuid.uuid4``, ``secrets``) smuggle ambient state into the run.  Time
must come from the simulator clock (``ctx.now`` / ``Simulator.now``) and
randomness from an injected, seeded ``random.Random`` instance — which
is the one construction this rule permits.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.check.rules import base
from repro.check.violations import Violation

#: Banned attributes per ambient-state module.
BANNED_TIME = frozenset(
    {"time", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
     "process_time", "time_ns", "sleep"}
)
BANNED_UUID = frozenset({"uuid1", "uuid4"})
BANNED_DATETIME = frozenset({"now", "utcnow", "today"})
#: The only attribute of the ``random`` module protocol code may touch.
ALLOWED_RANDOM = frozenset({"Random"})


class ClockAndRngRule(base.Rule):
    code = "D2"
    name = "clock-and-rng-hygiene"
    description = (
        "wall-clock or process-global randomness in protocol/simulator code; "
        "use the simulator clock and an injected seeded random.Random"
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
        aliases = _module_aliases(module.tree)
        banned_names = _banned_from_imports(module.tree)
        for node, message in _banned_import_statements(module.tree):
            yield self.violation(module, node, message)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in banned_names:
                yield self.violation(
                    module, node, banned_names[func.id]
                )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = aliases.get(func.value.id)
                attr = func.attr
                if owner == "time" and attr in BANNED_TIME:
                    yield self.violation(
                        module,
                        node,
                        f"wall-clock call time.{attr}() in protocol code — "
                        "simulated time must come from the simulator clock "
                        "(ctx.now)",
                    )
                elif owner == "random" and attr not in ALLOWED_RANDOM:
                    yield self.violation(
                        module,
                        node,
                        f"module-level random.{attr}() shares process-global "
                        "RNG state — inject a seeded random.Random instead",
                    )
                elif owner == "os" and attr == "urandom":
                    yield self.violation(
                        module, node,
                        "os.urandom() is unseedable — inject a seeded "
                        "random.Random instead",
                    )
                elif owner == "uuid" and attr in BANNED_UUID:
                    yield self.violation(
                        module, node,
                        f"uuid.{attr}() derives from clock/entropy — derive "
                        "identifiers from node ids and the injected seed",
                    )
                elif owner == "secrets":
                    yield self.violation(
                        module, node,
                        f"secrets.{attr}() is unseedable entropy — inject a "
                        "seeded random.Random instead",
                    )
                elif owner in ("datetime_module", "datetime_class") and attr in BANNED_DATETIME:
                    yield self.violation(
                        module, node,
                        f"datetime.{attr}() reads the wall clock — use the "
                        "simulator clock (ctx.now)",
                    )
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Attribute
            ):
                # datetime.datetime.now(...) style chains.
                inner = func.value
                if (
                    isinstance(inner.value, ast.Name)
                    and aliases.get(inner.value.id) == "datetime_module"
                    and func.attr in BANNED_DATETIME
                ):
                    yield self.violation(
                        module, node,
                        f"datetime.datetime.{func.attr}() reads the wall "
                        "clock — use the simulator clock (ctx.now)",
                    )


def _module_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> canonical module for the modules this rule polices."""
    watched = {"time", "random", "os", "uuid", "secrets"}
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name in watched:
                    aliases[item.asname or item.name] = item.name
                elif item.name == "datetime":
                    aliases[item.asname or "datetime"] = "datetime_module"
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            for item in node.names:
                if item.name == "datetime":
                    aliases[item.asname or "datetime"] = "datetime_class"
    return aliases


def _banned_from_imports(tree: ast.AST) -> Dict[str, str]:
    """Names bound by ``from <module> import <banned>`` -> message."""
    banned: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level:
            continue
        for item in node.names:
            local = item.asname or item.name
            if node.module == "time" and item.name in BANNED_TIME:
                banned[local] = (
                    f"wall-clock call {item.name}() (from time) in protocol "
                    "code — use the simulator clock (ctx.now)"
                )
            elif node.module == "random" and item.name not in ALLOWED_RANDOM:
                banned[local] = (
                    f"{item.name}() (from random) shares process-global RNG "
                    "state — inject a seeded random.Random instead"
                )
            elif node.module == "os" and item.name == "urandom":
                banned[local] = (
                    "urandom() is unseedable — inject a seeded random.Random"
                )
            elif node.module == "uuid" and item.name in BANNED_UUID:
                banned[local] = (
                    f"{item.name}() derives from clock/entropy — derive "
                    "identifiers from node ids and the injected seed"
                )
            elif node.module == "secrets":
                banned[local] = (
                    f"{item.name}() (from secrets) is unseedable entropy — "
                    "inject a seeded random.Random instead"
                )
    return banned


def _banned_import_statements(tree: ast.AST):
    """Flag ``from random import *`` outright (it cannot be tracked)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "random", "secrets", "time"
        ):
            if any(item.name == "*" for item in node.names):
                yield node, (
                    f"star import from {node.module} hides ambient-state "
                    "usage — import the module and use injected instances"
                )
