"""H-rules — import hygiene.

* **H1** — function-local imports of standard-library modules.  Lazy
  imports are a deliberate idiom in this codebase for *internal*
  modules (they break ``repro.*`` import cycles and keep cold paths off
  the hot import graph) and for *gated third-party* dependencies
  (``scipy`` behind ``require_scipy``, ``networkx`` in the
  cross-validation bridge).
  Neither reason ever applies to the standard library: a stdlib module
  has no cycle with this package and is always present, so a
  function-local ``import heapq`` only hides the dependency from the
  module header and re-runs the import machinery on every call.

The stdlib set is **hardcoded** rather than derived from
``sys.stdlib_module_names`` so findings are stable across interpreter
versions (the golden lint report would otherwise drift).
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.check.rules import base
from repro.check.violations import Violation

#: Standard-library modules this repo actually reaches for.  Hardcoded
#: for cross-version stability; extend as offenders appear.
STDLIB_MODULES = frozenset(
    {
        "abc",
        "argparse",
        "array",
        "ast",
        "bisect",
        "collections",
        "contextlib",
        "copy",
        "csv",
        "dataclasses",
        "enum",
        "functools",
        "hashlib",
        "heapq",
        "io",
        "itertools",
        "json",
        "math",
        "multiprocessing",
        "operator",
        "os",
        "pathlib",
        "pickle",
        "queue",
        "random",
        "re",
        "shutil",
        "statistics",
        "string",
        "struct",
        "sys",
        "tempfile",
        "threading",
        "time",
        "types",
        "typing",
        "unittest",
        "warnings",
        "weakref",
    }
)


class LocalStdlibImportRule(base.Rule):
    code = "H1"
    name = "local-stdlib-import"
    description = (
        "standard-library import inside a function body (stdlib never "
        "needs the lazy-import cycle-breaking idiom; hoist it to the "
        "module header)"
    )
    scope = ("src/repro/",)
    # The CLI keeps *everything* lazy so `repro --help` stays fast; its
    # local stdlib imports ride along with the repro.* ones.
    exclude = ("src/repro/cli.py",)

    def check(self, module: base.ModuleSource) -> Iterator[Violation]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                root = _root_module(node)
                if root not in STDLIB_MODULES:
                    continue
                yield self.violation(
                    module,
                    node,
                    f"function-local import of the stdlib module "
                    f"`{root}`; stdlib imports have no cycle to break "
                    "and no optional-dependency gate — hoist to the "
                    "module header, or justify with `# repro: noqa[H1]`",
                )


def _root_module(node: Union[ast.Import, ast.ImportFrom]) -> str:
    """Top-level package of the imported module ('' for relative)."""
    if isinstance(node, ast.ImportFrom):
        if node.level:  # relative import — never stdlib
            return ""
        return (node.module or "").split(".", 1)[0]
    return node.names[0].name.split(".", 1)[0]
