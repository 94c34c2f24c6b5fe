"""Static message-flow graphs for the simulator protocols.

The paper defines Algorithms I/II entirely by which message kinds flow
between neighbors; a renamed kind constant or a dropped payload field
fails *silently* — the send still transmits, the handler branch simply
never fires.  This module recovers the protocol's message-flow graph
from the AST so the P-rules (:mod:`repro.check.rules.p_protocol`) and
the runtime sanitizer (:mod:`repro.check.sanitize`) can cross-check it:

* **send sites** — ``self.ctx.broadcast(KIND, field=...)`` and
  ``self.ctx.send(dest, KIND, field=...)`` calls, with the kind
  resolved through module-level constants and ``*_kind`` class
  attributes (the :class:`~repro.mis.distributed.MisNode` idiom where a
  subclass re-parameterizes an inherited sender);
* **handler branches** — any method branching on a message parameter's
  ``.kind`` (``on_message`` dispatch, but also delegates like the
  transport's ``handle``): ``msg.kind == KIND`` / ``!=`` guards /
  ``in (A, B)`` membership, plus the payload fields each branch reads
  via ``msg["f"]`` / ``msg.get("f")`` / ``msg.data["f"]``;
* **timer sites** — ``set_timer(delay, TAG)`` against the constant and
  ``startswith``-prefix tags ``on_timer`` dispatches on.

Everything is a *static approximation* in the spirit of
:mod:`repro.check.rules.common`: kinds that cannot be resolved to a
string constant mark the class as *dynamic* on that axis, and the rules
stand down rather than guess.  The graph also exports as JSON and
Graphviz DOT via ``repro check --protocol-graph {json,dot}``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.rules.base import ModuleSource

#: Repository regions holding simulator protocols — the default
#: extraction surface of :func:`build_protocol_graph` and the scope of
#: the P-rules.
PROTOCOL_PATHS: Tuple[str, ...] = (
    "src/repro/sim/",
    "src/repro/election/",
    "src/repro/mis/",
    "src/repro/wcds/",
    "src/repro/mobility/",
    "src/repro/routing/",
    "src/repro/transport/",
    "src/repro/baselines/",
    "src/repro/check/fixtures.py",
)

#: Class attributes naming a message kind (``black_kind = BLACK``)
#: count as *sent* by the class: they parameterize an inherited sender.
KIND_ATTR_SUFFIX = "_kind"

#: Timer tag implicitly used by ``set_timer(delay)`` with no tag.
DEFAULT_TIMER_TAG = "timer"


@dataclass
class SendSite:
    """One ``broadcast``/``send`` call site."""

    kind: Optional[str]  # None = not statically resolvable
    fields: Tuple[str, ...]
    dynamic_fields: bool  # a **kwargs payload crossed the call
    node: ast.Call = field(repr=False)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class HandlerBranch:
    """One dispatch branch of a handler method."""

    kinds: Tuple[str, ...]
    fields_read: Tuple[str, ...]
    wildcard_reads: bool  # msg escaped into code we cannot follow
    node: ast.AST = field(repr=False)
    #: Statements making up the branch body (the method remainder for
    #: ``!= KIND: return`` guards) — used for escape accounting.
    body_stmts: Tuple[ast.stmt, ...] = field(default=(), repr=False)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class TimerSite:
    """One ``set_timer`` call site."""

    tag: Optional[str]  # resolved constant tag
    prefix: Optional[str]  # f"{PREFIX}{...}" dynamic tag family
    node: ast.Call = field(repr=False)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class TimerBranch:
    """One ``on_timer`` dispatch branch."""

    tag: Optional[str]  # == comparison target
    prefix: Optional[str]  # .startswith(...) prefix
    node: ast.AST = field(repr=False)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ProtocolClass:
    """Everything extracted from one class definition."""

    name: str
    sends: List[SendSite] = field(default_factory=list)
    branches: List[HandlerBranch] = field(default_factory=list)
    timer_sets: List[TimerSite] = field(default_factory=list)
    timer_branches: List[TimerBranch] = field(default_factory=list)
    #: ``*_kind`` class attributes resolved to kind strings.
    kind_attrs: Dict[str, str] = field(default_factory=dict)
    #: a send whose kind expression did not resolve
    dynamic_send: bool = False
    #: dispatch we could not follow (delegation, unresolvable compare)
    dynamic_dispatch: bool = False
    #: a set_timer tag that resolved to neither constant nor prefix
    dynamic_timer_set: bool = False
    #: on_timer forwards the tag into code we cannot follow
    dynamic_timer_dispatch: bool = False

    @property
    def interesting(self) -> bool:
        return bool(
            self.sends
            or self.branches
            or self.timer_sets
            or self.timer_branches
            or self.kind_attrs
            or self.dynamic_dispatch
            or self.dynamic_send
        )

    def sent_kinds(self) -> Set[str]:
        kinds = {s.kind for s in self.sends if s.kind is not None}
        kinds.update(self.kind_attrs.values())
        return kinds

    def handled_kinds(self) -> Set[str]:
        return {k for b in self.branches for k in b.kinds}


@dataclass
class ModuleProtocolGraph:
    """The message-flow graph of one module."""

    path: str
    classes: List[ProtocolClass] = field(default_factory=list)

    # -- module-level alphabets (protocols are module-cohesive: a kind
    # -- sent by one class is handled by a class in the same module) --
    def sent_kinds(self) -> Set[str]:
        return {k for cls in self.classes for k in cls.sent_kinds()}

    def handled_kinds(self) -> Set[str]:
        return {k for cls in self.classes for k in cls.handled_kinds()}

    def has_dynamic_send(self) -> bool:
        return any(cls.dynamic_send for cls in self.classes)

    def has_dynamic_dispatch(self) -> bool:
        return any(cls.dynamic_dispatch for cls in self.classes)

    def fields_sent(self, kind: str) -> Tuple[Set[str], bool]:
        """Union of payload fields sent for ``kind`` and whether any
        site shipped a dynamic ``**payload``."""
        fields: Set[str] = set()
        dynamic = False
        for cls in self.classes:
            for site in cls.sends:
                if site.kind != kind:
                    continue
                fields.update(site.fields)
                dynamic = dynamic or site.dynamic_fields
        return fields, dynamic

    def fields_read(self, kind: str) -> Tuple[Set[str], bool]:
        """Union of payload fields any handler branch for ``kind``
        reads, and whether some branch escaped static analysis."""
        fields: Set[str] = set()
        wildcard = False
        for cls in self.classes:
            for branch in cls.branches:
                if kind not in branch.kinds:
                    continue
                fields.update(branch.fields_read)
                wildcard = wildcard or branch.wildcard_reads
        return fields, wildcard


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _constant_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _module_constants(tree: ast.AST) -> Dict[str, str]:
    """Module-level ``NAME = "string"`` assignments."""
    table: Dict[str, str] = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = _constant_str(node.value)
            if isinstance(target, ast.Name) and value is not None:
                table[target.id] = value
    return table


def _trailing_attr(node: ast.AST) -> Optional[str]:
    """``ctx`` from ``self.ctx`` / ``ctx`` / ``self._ctx``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_ctx_call(call: ast.Call) -> bool:
    """Whether the call target looks like ``<...>.ctx.<method>``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    owner = _trailing_attr(func.value)
    return owner is not None and "ctx" in owner


class _ClassExtractor:
    """Extracts one :class:`ProtocolClass` from a ``ClassDef``."""

    def __init__(self, node: ast.ClassDef, constants: Dict[str, str]) -> None:
        self.node = node
        self.constants = constants
        self.out = ProtocolClass(name=node.name)
        self.methods: Dict[str, ast.FunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._collect_kind_attrs()

    # -- kind resolution ------------------------------------------------
    def _collect_kind_attrs(self) -> None:
        for item in self.node.body:
            if not (isinstance(item, ast.Assign) and len(item.targets) == 1):
                continue
            target = item.targets[0]
            if not (
                isinstance(target, ast.Name)
                and target.id.endswith(KIND_ATTR_SUFFIX)
            ):
                continue
            value = _constant_str(item.value)
            if value is None and isinstance(item.value, ast.Name):
                value = self.constants.get(item.value.id)
            if value is not None:
                self.out.kind_attrs[target.id] = value

    def resolve_kind(self, node: ast.AST) -> Optional[str]:
        value = _constant_str(node)
        if value is not None:
            return value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self":
            return self.out.kind_attrs.get(node.attr)
        return None

    # -- send and timer sites ------------------------------------------
    def extract_sites(self) -> None:
        for method in self.methods.values():
            for node in ast.walk(method):
                if not isinstance(node, ast.Call) or not _is_ctx_call(node):
                    continue
                attr = node.func.attr  # type: ignore[union-attr]
                if attr == "broadcast" and node.args:
                    self._record_send(node, node.args[0])
                elif attr == "send" and len(node.args) >= 2:
                    self._record_send(node, node.args[1])
                elif attr == "set_timer":
                    self._record_timer_set(node)

    def _record_send(self, call: ast.Call, kind_expr: ast.AST) -> None:
        kind = self.resolve_kind(kind_expr)
        if kind is None:
            self.out.dynamic_send = True
        fields = tuple(kw.arg for kw in call.keywords if kw.arg is not None)
        dynamic = any(kw.arg is None for kw in call.keywords)
        self.out.sends.append(
            SendSite(kind=kind, fields=fields, dynamic_fields=dynamic, node=call)
        )

    def _record_timer_set(self, call: ast.Call) -> None:
        tag_expr: Optional[ast.AST] = None
        if len(call.args) >= 2:
            tag_expr = call.args[1]
        else:
            for kw in call.keywords:
                if kw.arg == "tag":
                    tag_expr = kw.value
        if tag_expr is None:
            self.out.timer_sets.append(
                TimerSite(tag=DEFAULT_TIMER_TAG, prefix=None, node=call)
            )
            return
        tag = self.resolve_kind(tag_expr)
        prefix = None
        if tag is None and isinstance(tag_expr, ast.JoinedStr):
            head = tag_expr.values[0] if tag_expr.values else None
            if isinstance(head, ast.FormattedValue):
                prefix = self.resolve_kind(head.value)
            elif head is not None:
                prefix = _constant_str(head)
        if tag is None and prefix is None:
            self.out.dynamic_timer_set = True
        self.out.timer_sets.append(TimerSite(tag=tag, prefix=prefix, node=call))

    # -- handler branches ----------------------------------------------
    def extract_handlers(self) -> None:
        handlers: Dict[str, Tuple[ast.FunctionDef, List[str]]] = {}
        for method in self.methods.values():
            params = [a.arg for a in method.args.args if a.arg != "self"]
            if not params:
                continue
            if method.name == "on_timer":
                self._extract_timer_handler(method, params[0])
                continue
            msg_params = self._message_params(method, params)
            if msg_params:
                handlers[method.name] = (method, sorted(msg_params))
        # First pass: dispatch branches per handler method.
        claimed: Dict[str, Set[int]] = {}
        branched: Set[str] = set()
        for name, (method, params) in handlers.items():
            branches, claimed_calls = self._extract_kind_handler(method, params)
            self.out.branches.extend(branches)
            claimed[name] = claimed_calls
            if branches:
                branched.add(name)
        # Second pass: a message param escaping outside every recognized
        # branch means dispatch continues in code we cannot see — unless
        # it escapes into a same-class method that itself dispatches.
        for name, (method, params) in handlers.items():
            if self._msg_escapes(method, params, claimed[name], branched):
                self.out.dynamic_dispatch = True

    def _message_params(
        self, method: ast.FunctionDef, params: List[str]
    ) -> Set[str]:
        """Parameters the method treats as messages: ``on_message``'s
        first argument, plus any param whose ``.kind`` is accessed."""
        found: Set[str] = set()
        for node in ast.walk(method):
            if self._is_kind_access(node, params):
                found.add(node.value.id)  # type: ignore[attr-defined]
        if method.name == "on_message":
            found.add(params[0])
        return found

    # .. message-kind dispatch .........................................
    def _kind_aliases(self, method: ast.FunctionDef, params: List[str]) -> Set[str]:
        """Local names holding ``<param>.kind``."""
        aliases: Set[str] = set()
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_kind_access(node.value, params)
            ):
                aliases.add(node.targets[0].id)
        return aliases

    @staticmethod
    def _is_kind_access(node: ast.AST, params: Iterable[str]) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "kind"
            and isinstance(node.value, ast.Name)
            and node.value.id in params
        )

    def _extract_kind_handler(
        self, method: ast.FunctionDef, params: List[str]
    ) -> Tuple[List[HandlerBranch], Set[int]]:
        aliases = self._kind_aliases(method, params)

        def is_kind_expr(node: ast.AST) -> bool:
            if self._is_kind_access(node, params):
                return True
            return isinstance(node, ast.Name) and node.id in aliases

        branches: List[HandlerBranch] = []
        claimed_calls: Set[int] = set()
        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.If):
                continue
            branch = self._branch_from_test(stmt, is_kind_expr, method, params)
            if branch is None:
                continue
            branches.append(branch)
            for body_stmt in branch.body_stmts:
                for sub in ast.walk(body_stmt):
                    if isinstance(sub, ast.Call):
                        claimed_calls.add(id(sub))
        return branches, claimed_calls

    def _branch_from_test(
        self,
        stmt: ast.If,
        is_kind_expr,
        method: ast.FunctionDef,
        params: List[str],
    ) -> Optional[HandlerBranch]:
        compare = self._find_kind_compare(stmt.test, is_kind_expr)
        if compare is None:
            return None
        op = compare.ops[0]
        kinds: List[str] = []
        if isinstance(op, (ast.Eq, ast.NotEq)):
            kind = self.resolve_kind(compare.comparators[0])
            if kind is None:
                self.out.dynamic_dispatch = True
                return None
            kinds = [kind]
        elif isinstance(op, ast.In) and isinstance(
            compare.comparators[0], (ast.Tuple, ast.Set, ast.List)
        ):
            for elt in compare.comparators[0].elts:
                kind = self.resolve_kind(elt)
                if kind is None:
                    self.out.dynamic_dispatch = True
                    return None
                kinds.append(kind)
        else:
            self.out.dynamic_dispatch = True
            return None
        if isinstance(op, ast.NotEq):
            # Guard idiom: ``if msg.kind != KIND: return`` — the rest
            # of the method body is the KIND handler.
            if not _is_bare_return(stmt.body):
                self.out.dynamic_dispatch = True
                return None
            body: Sequence[ast.stmt] = method.body
        else:
            body = stmt.body
        fields, wildcard = self._reads_in(body, params)
        return HandlerBranch(
            kinds=tuple(kinds),
            fields_read=tuple(sorted(fields)),
            wildcard_reads=wildcard,
            node=stmt,
            body_stmts=tuple(body),
        )

    @staticmethod
    def _find_kind_compare(test: ast.AST, is_kind_expr) -> Optional[ast.Compare]:
        """The kind comparison inside ``test`` (possibly under a BoolOp)."""
        candidates = [test]
        if isinstance(test, ast.BoolOp):
            candidates = list(test.values)
        for node in candidates:
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and is_kind_expr(node.left)
            ):
                return node
        return None

    def _reads_in(
        self,
        body: Sequence[ast.stmt],
        params: List[str],
        _visited: Optional[Set[str]] = None,
    ) -> Tuple[Set[str], bool]:
        """Payload fields read from the message params in ``body``,
        following direct ``self._helper(msg)`` calls."""
        visited = _visited if _visited is not None else set()
        fields: Set[str] = set()
        wildcard = False
        for stmt in body:
            for node in ast.walk(stmt):
                field_name = self._field_read(node, params)
                if field_name is not None:
                    fields.add(field_name)
                    continue
                if not isinstance(node, ast.Call):
                    continue
                arg_positions = [
                    i
                    for i, arg in enumerate(node.args)
                    if isinstance(arg, ast.Name) and arg.id in params
                ]
                if not arg_positions:
                    continue
                helper = self._self_method(node)
                if helper is None or helper not in self.methods:
                    wildcard = True  # msg escaped (super(), delegation)
                    continue
                if helper in visited:
                    continue
                visited.add(helper)
                target = self.methods[helper]
                target_params = [
                    a.arg for a in target.args.args if a.arg != "self"
                ]
                mapped = [
                    target_params[i]
                    for i in arg_positions
                    if i < len(target_params)
                ]
                sub_fields, sub_wild = self._reads_in(
                    target.body, mapped, visited
                )
                fields.update(sub_fields)
                wildcard = wildcard or sub_wild
        return fields, wildcard

    @staticmethod
    def _self_method(call: ast.Call) -> Optional[str]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
        return None

    @staticmethod
    def _field_read(node: ast.AST, params: Iterable[str]) -> Optional[str]:
        """``msg["f"]`` / ``msg.get("f")`` / ``msg.data["f"]`` /
        ``msg.data.get("f")`` — the field name, if this is one."""

        def is_msg_or_data(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name) and expr.id in params:
                return True
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr == "data"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in params
            )

        if isinstance(node, ast.Subscript) and is_msg_or_data(node.value):
            return _constant_str(node.slice)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and is_msg_or_data(node.func.value)
            and node.args
        ):
            return _constant_str(node.args[0])
        return None

    def _msg_escapes(
        self,
        method: ast.FunctionDef,
        params: List[str],
        claimed_calls: Set[int],
        branched_methods: Set[str],
    ) -> bool:
        """Whether a message param is passed somewhere we cannot see,
        outside the calls already attributed to a dispatch branch.
        Handing the message to a same-class method that itself
        dispatches on kinds does not count."""
        for node in ast.walk(method):
            if not isinstance(node, ast.Call) or id(node) in claimed_calls:
                continue
            if not any(
                isinstance(arg, ast.Name) and arg.id in params
                for arg in node.args
            ):
                continue
            helper = self._self_method(node)
            if helper is not None and helper in branched_methods:
                continue
            return True
        return False

    # .. timer dispatch ................................................
    def _extract_timer_handler(self, method: ast.FunctionDef, tag: str) -> None:
        def is_tag(node: ast.AST) -> bool:
            return isinstance(node, ast.Name) and node.id == tag

        for node in ast.walk(method):
            if isinstance(node, ast.Compare) and len(node.ops) == 1 and is_tag(
                node.left
            ):
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                    self.out.dynamic_timer_dispatch = True
                    continue
                value = self.resolve_kind(node.comparators[0])
                if value is None:
                    self.out.dynamic_timer_dispatch = True
                    continue
                self.out.timer_branches.append(
                    TimerBranch(tag=value, prefix=None, node=node)
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
                and is_tag(node.func.value)
                and node.args
            ):
                prefix = self.resolve_kind(node.args[0])
                if prefix is None:
                    self.out.dynamic_timer_dispatch = True
                    continue
                self.out.timer_branches.append(
                    TimerBranch(tag=None, prefix=prefix, node=node)
                )
            elif isinstance(node, ast.Call) and any(
                is_tag(arg) for arg in node.args
            ):
                # The tag is forwarded (``self.inner.on_timer(tag)``).
                self.out.dynamic_timer_dispatch = True


def _is_bare_return(body: Sequence[ast.stmt]) -> bool:
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and body[0].value is None
    )


def extract_module_graph(module: ModuleSource) -> ModuleProtocolGraph:
    """Extract the message-flow graph of one parsed module."""
    constants = _module_constants(module.tree)
    graph = ModuleProtocolGraph(path=module.path)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        extractor = _ClassExtractor(node, constants)
        extractor.extract_sites()
        extractor.extract_handlers()
        if extractor.out.interesting:
            graph.classes.append(extractor.out)
    return graph


# ----------------------------------------------------------------------
# Repository-level graph + exports
# ----------------------------------------------------------------------
@dataclass
class ProtocolGraph:
    """Message-flow graphs of every protocol module."""

    modules: List[ModuleProtocolGraph] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable representation (sorted keys, sorted alphabets)."""
        out: Dict[str, object] = {}
        for mod in sorted(self.modules, key=lambda m: m.path):
            classes: Dict[str, object] = {}
            for cls in sorted(mod.classes, key=lambda c: c.name):
                sends: Dict[str, List[str]] = {}
                for site in cls.sends:
                    if site.kind is None:
                        continue
                    merged = set(sends.get(site.kind, ()))
                    merged.update(site.fields)
                    sends[site.kind] = sorted(merged)
                for attr_kind in cls.kind_attrs.values():
                    sends.setdefault(attr_kind, [])
                handles: Dict[str, List[str]] = {}
                for branch in cls.branches:
                    for kind in branch.kinds:
                        merged = set(handles.get(kind, ()))
                        merged.update(branch.fields_read)
                        handles[kind] = sorted(merged)
                classes[cls.name] = {
                    "sends": {k: sends[k] for k in sorted(sends)},
                    "handles": {k: handles[k] for k in sorted(handles)},
                    "timers_set": sorted(
                        {t.tag for t in cls.timer_sets if t.tag is not None}
                        | {
                            t.prefix + "*"
                            for t in cls.timer_sets
                            if t.prefix is not None
                        }
                    ),
                    "timers_handled": sorted(
                        {t.tag for t in cls.timer_branches if t.tag is not None}
                        | {
                            t.prefix + "*"
                            for t in cls.timer_branches
                            if t.prefix is not None
                        }
                    ),
                    "dynamic": sorted(
                        name
                        for name, flagged in (
                            ("send", cls.dynamic_send),
                            ("dispatch", cls.dynamic_dispatch),
                            ("timer_set", cls.dynamic_timer_set),
                            ("timer_dispatch", cls.dynamic_timer_dispatch),
                        )
                        if flagged
                    ),
                }
            if classes:
                out[mod.path] = classes
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        """Graphviz digraph: class --kind--> class edges, with
        half-edges for kinds only one side knows."""
        lines = ["digraph protocol_flow {", "  rankdir=LR;"]
        for mod in sorted(self.modules, key=lambda m: m.path):
            handlers: Dict[str, List[str]] = {}
            for cls in mod.classes:
                for kind in cls.handled_kinds():
                    handlers.setdefault(kind, []).append(cls.name)
            seen_classes = sorted(cls.name for cls in mod.classes)
            if not seen_classes:
                continue
            lines.append(f'  subgraph "cluster_{mod.path}" {{')
            lines.append(f'    label="{mod.path}";')
            for name in seen_classes:
                lines.append(f'    "{name}" [shape=box];')
            edges: Set[Tuple[str, str, str]] = set()
            for cls in mod.classes:
                for kind in sorted(cls.sent_kinds()):
                    for target in sorted(handlers.get(kind, ["(unhandled)"])):
                        edges.add((cls.name, target, kind))
            for src, dst, kind in sorted(edges):
                lines.append(f'    "{src}" -> "{dst}" [label="{kind}"];')
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_protocol_graph(
    paths: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
) -> ProtocolGraph:
    """Extract the message-flow graph of every module under ``paths``."""
    from repro.check.linter import iter_python_files

    if paths is None:
        paths = PROTOCOL_PATHS
    graph = ProtocolGraph()
    for rel_path, abs_path in iter_python_files(paths, root=root):
        with open(abs_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            module = ModuleSource.parse(rel_path, text)
        except SyntaxError:
            continue  # the linter reports PARSE findings; not our job
        mod_graph = extract_module_graph(module)
        if mod_graph.classes:
            graph.modules.append(mod_graph)
    return graph


GRAPH_FORMATS = {
    "json": lambda graph: graph.to_json() + "\n",
    "dot": lambda graph: graph.to_dot(),
}
