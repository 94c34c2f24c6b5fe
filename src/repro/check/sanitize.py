"""Runtime sanitizer: the dynamic twin of the static protocol checks.

ASan-style, each side catches what the other proves:

* the **static** side (:mod:`repro.check.protocol_graph` + the P-rules)
  proves every send site has a handler — but only for kinds it can
  resolve, and only for code paths that exist in the AST;
* the **runtime** side records the kind alphabet actually exercised
  while tier-1 protocol tests (or ``repro check --sanitize``) run, and
  diffs it against the static graph.  A runtime kind the static graph
  never saw means the extraction (or the protocol) went dynamic in a
  way the lint silently tolerates; a static kind never exercised is a
  coverage gap.

The second half of the harness guards the spawn boundary: with the
sanitizer armed (the ``REPRO_SANITIZE`` environment variable, inherited
by spawn children), the one worker loop every spawn worker runs,
:func:`repro.workers._worker_main`, flips its view of the
:class:`~repro.workers.SharedPositions` array to ``writeable=False`` —
the S2 contract ("workers never write the shared block") becomes an
immediate ``ValueError`` at any violating store, in the shard pool's
workers and the fleet runner's alike.

Usage::

    with sanitized() as recorder:
        algorithm2_distributed(graph)
    report = diff_alphabet(recorder, build_protocol_graph(root="."))
    assert report.ok, report.format()

or end-to-end: :func:`verify_protocols` runs Algorithms I and II on
graphs chosen to exercise every clean-run message kind and requires an
exact match against the static graph.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Environment flag arming the sanitizer.  Spawn children inherit the
#: parent's environment, which is what carries the flag across the
#: worker boundary.
ENV_FLAG = "REPRO_SANITIZE"

#: Kinds that only fire on fault paths (``on_neighbor_down``); a clean
#: verification run is not expected to exercise them.
FAULT_ONLY_KINDS = frozenset({"PROBE"})


def sanitizer_enabled() -> bool:
    """Whether the sanitizer is armed in this process."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


# ----------------------------------------------------------------------
# Runtime kind recording
# ----------------------------------------------------------------------
@dataclass
class RuntimeAlphabet:
    """Kind alphabet observed at runtime, keyed by node class."""

    #: ``(module, class) -> kinds`` transmitted by instances.
    sent: Dict[Tuple[str, str], Set[str]] = field(default_factory=dict)
    #: ``(module, class) -> kinds`` delivered to instances.
    handled: Dict[Tuple[str, str], Set[str]] = field(default_factory=dict)

    def record_send(self, node: object, kind: str) -> None:
        key = (type(node).__module__, type(node).__name__)
        self.sent.setdefault(key, set()).add(kind)

    def record_handle(self, node: object, kind: str) -> None:
        key = (type(node).__module__, type(node).__name__)
        self.handled.setdefault(key, set()).add(kind)

    def kinds_by_module(self) -> Dict[str, Set[str]]:
        """Union of sent+delivered kinds per defining module."""
        out: Dict[str, Set[str]] = {}
        for table in (self.sent, self.handled):
            for (module, _cls), kinds in table.items():
                out.setdefault(module, set()).update(kinds)
        return out

    def sent_by_module(self) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for (module, _cls), kinds in self.sent.items():
            out.setdefault(module, set()).update(kinds)
        return out


@contextmanager
def sanitized(
    recorder: Optional[RuntimeAlphabet] = None,
) -> Iterator[RuntimeAlphabet]:
    """Arm the sanitizer for the duration of the block.

    * sets ``REPRO_SANITIZE=1`` so worker handlers (in spawn workers or
      an in-process lane) see read-only position rows;
    * patches :class:`repro.sim.engine.Simulator` so every transmit and
      delivery records its message kind against the node's class.

    Not reentrant; yields the recorder (pass one in to accumulate
    across several blocks, e.g. a whole pytest session).
    """
    from repro.sim.batched import BatchedSimulator
    from repro.sim.engine import Simulator

    alphabet = recorder if recorder is not None else RuntimeAlphabet()
    previous = os.environ.get(ENV_FLAG)
    os.environ[ENV_FLAG] = "1"
    original_init = Simulator.__init__
    # Both engines define their own ``transmit``; patching only the base
    # class would let batched runs bypass the send recorder.  ``__init__``
    # needs no batched patch: ``super().__init__`` resolves to the
    # patched base method dynamically, so nodes get wrapped either way.
    original_transmits = [
        (cls, cls.__dict__["transmit"]) for cls in (Simulator, BatchedSimulator)
    ]

    def patched_init(self, *args, **kwargs):  # type: ignore[no-untyped-def]
        original_init(self, *args, **kwargs)
        for node in self.nodes.values():
            _wrap_node(node, alphabet)

    def _make_patched_transmit(original):  # type: ignore[no-untyped-def]
        def patched_transmit(self, message):  # type: ignore[no-untyped-def]
            node = self.nodes.get(message.sender)
            if node is not None:
                alphabet.record_send(node, message.kind)
            return original(self, message)

        return patched_transmit

    Simulator.__init__ = patched_init  # type: ignore[method-assign]
    for cls, original in original_transmits:
        cls.transmit = _make_patched_transmit(original)  # type: ignore[method-assign]
    try:
        yield alphabet
    finally:
        Simulator.__init__ = original_init  # type: ignore[method-assign]
        for cls, original in original_transmits:
            cls.transmit = original  # type: ignore[method-assign]
        if previous is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = previous


def _wrap_node(node: object, alphabet: RuntimeAlphabet) -> None:
    original = node.on_message  # type: ignore[attr-defined]

    def wrapped(msg, _original=original, _node=node):  # type: ignore[no-untyped-def]
        alphabet.record_handle(_node, msg.kind)
        return _original(msg)

    node.on_message = wrapped  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# Diffing runtime against the static graph
# ----------------------------------------------------------------------
@dataclass
class SanitizeReport:
    """Outcome of a runtime-vs-static alphabet diff.

    ``unknown`` is the hard-failure side: kinds the runtime exercised
    that the static protocol graph has no record of in the defining
    module.  ``unexercised`` is the coverage side: statically declared
    kinds the run never produced (informational for arbitrary test
    runs; a failure for :func:`verify_protocols`, which picks its
    graphs to reach every clean-run kind).
    """

    unknown: List[Tuple[str, str]] = field(default_factory=list)
    unexercised: List[Tuple[str, str]] = field(default_factory=list)
    require_coverage: bool = False

    @property
    def ok(self) -> bool:
        if self.unknown:
            return False
        return not (self.require_coverage and self.unexercised)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "unknown_runtime_kinds": [list(x) for x in self.unknown],
            "unexercised_static_kinds": [list(x) for x in self.unexercised],
        }

    def format(self) -> str:
        lines: List[str] = []
        for module, kind in self.unknown:
            lines.append(
                f"FAIL {module}: runtime kind {kind!r} is absent from the "
                "static protocol graph"
            )
        severity = "FAIL" if self.require_coverage else "note"
        for module, kind in self.unexercised:
            lines.append(
                f"{severity} {module}: static kind {kind!r} never fired at "
                "runtime"
            )
        status = "sanitizer: OK" if self.ok else "sanitizer: FAILED"
        counts = (
            f"({len(self.unknown)} unknown runtime kind(s), "
            f"{len(self.unexercised)} unexercised static kind(s))"
        )
        return "\n".join(lines + [f"{status} {counts}"])


def _module_to_path(module: str) -> str:
    return "src/" + module.replace(".", "/") + ".py"


def diff_alphabet(
    recorder: RuntimeAlphabet,
    graph: Optional[object] = None,
    *,
    root: Optional[str] = None,
    require_coverage: bool = False,
    coverage_modules: Tuple[str, ...] = (),
) -> SanitizeReport:
    """Diff a runtime alphabet against the static protocol graph.

    Only modules under ``repro.`` participate — ad-hoc protocols
    defined in tests have no static graph and are not the sanitizer's
    business.  Modules whose static extraction went dynamic (a
    variable-kind send or untraceable dispatch) accept any runtime
    kind.  With ``require_coverage``, statically-sent kinds of
    ``coverage_modules`` that never fired (minus
    :data:`FAULT_ONLY_KINDS`) fail the report too.
    """
    from repro.check.protocol_graph import build_protocol_graph

    if graph is None:
        graph = build_protocol_graph(root=root)
    by_path = {mod.path: mod for mod in graph.modules}  # type: ignore[attr-defined]
    report = SanitizeReport(require_coverage=require_coverage)

    for module, kinds in sorted(recorder.kinds_by_module().items()):
        if not module.startswith("repro."):
            continue
        static = by_path.get(_module_to_path(module))
        if static is None:
            report.unknown.extend((module, kind) for kind in sorted(kinds))
            continue
        if static.has_dynamic_send() or static.has_dynamic_dispatch():
            continue
        alphabet = static.sent_kinds() | static.handled_kinds()
        report.unknown.extend(
            (module, kind) for kind in sorted(kinds - alphabet)
        )

    runtime_sent = recorder.sent_by_module()
    targets = coverage_modules or tuple(
        m for m in runtime_sent if m.startswith("repro.")
    )
    for module in sorted(targets):
        static = by_path.get(_module_to_path(module))
        if static is None:
            continue
        seen = runtime_sent.get(module, set())
        missing = static.sent_kinds() - seen - FAULT_ONLY_KINDS
        report.unexercised.extend((module, kind) for kind in sorted(missing))
    return report


# ----------------------------------------------------------------------
# End-to-end verification (CLI --sanitize, CI)
# ----------------------------------------------------------------------
def _selection_phase_graph():
    """A 4-node path whose id-greedy MIS has a pair exactly 3 hops
    apart — the smallest topology that fires Algorithm II's SELECTION /
    ADDITIONAL-DOMINATOR / ADDITIONAL-RELAY phase.

    Path ``v0(id 0) - v1(id 2) - v2(id 3) - v3(id 1)``: 0 and 1 are
    both black (no lower-ranked neighbor), three hops apart.
    """
    from repro.geometry.point import Point
    from repro.graphs.udg import UnitDiskGraph

    positions = {0: (0.0, 0.0), 2: (0.9, 0.0), 3: (1.8, 0.0), 1: (2.7, 0.0)}
    return UnitDiskGraph(
        {node: Point(x, y) for node, (x, y) in positions.items()}, radius=1.0
    )


def probe_worker_protection(*, n: int = 24, seed: int = 3) -> Optional[str]:
    """Prove the spawn-boundary guard is armed, not just present.

    Spins up a one-worker :class:`~repro.shard.pool.ShardServePool` and
    a one-worker :class:`~repro.sim.fleet.FleetRunner` under the
    sanitizer and asks each worker to attempt a write to its shared
    position array.  Returns the exception name the writes raised
    (``"ValueError"`` when protection is armed) or ``None`` if either
    write silently went through — which is the failure.
    """
    from repro.graphs.generators import connected_random_udg
    from repro.shard.config import ShardConfig
    from repro.shard.pool import ShardServePool
    from repro.sim.fleet import FleetRunner

    graph = connected_random_udg(n, side=2.5, radius=1.0, seed=seed)
    with sanitized():
        with ShardServePool(graph, ShardConfig(workers=1)) as pool:
            pool_error = pool.group.probe()
        with FleetRunner(graph, workers=1) as fleet:
            fleet_error = fleet.group.probe()
    return pool_error if pool_error == fleet_error else None


def verify_protocols(
    *, n: int = 40, seed: int = 7, root: Optional[str] = None
) -> SanitizeReport:
    """Run Algorithms I and II under the sanitizer and require the
    runtime kind alphabet to exactly match the static protocol graph.

    Exact means two-sided: no runtime kind the static graph lacks, and
    no statically-sent kind left unexercised (fault-only kinds
    excepted) in the modules the two algorithms are built from.
    """
    from repro.graphs.generators import connected_random_udg
    from repro.wcds.algorithm1 import algorithm1_distributed
    from repro.wcds.algorithm2 import algorithm2_distributed

    graph = connected_random_udg(n, side=5.0, radius=1.0, seed=seed)
    with sanitized() as recorder:
        algorithm1_distributed(graph)
        algorithm2_distributed(graph)
        algorithm2_distributed(_selection_phase_graph())
    return diff_alphabet(
        recorder,
        root=root,
        require_coverage=True,
        coverage_modules=(
            "repro.election.protocol",
            "repro.mis.distributed",
            "repro.wcds.algorithm1",
            "repro.wcds.algorithm2",
        ),
    )
