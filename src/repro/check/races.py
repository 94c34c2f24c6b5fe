"""Schedule-perturbation race detection.

A distributed protocol simulated under the radio model has *ties*:
events scheduled for the same instant whose processing order the model
leaves unspecified.  The paper's correctness arguments (Theorem 5's WCDS
property, the greedy-MIS induction of ``repro.mis.distributed``) promise
outcomes independent of those ties; this module machine-checks the
promise by re-running a protocol under ``k`` legal delivery-order
perturbations (same seed, same latencies — only same-time tie-breaks
permuted, via :func:`repro.sim.engine.perturbed_schedule`) and diffing
outcome *fingerprints*.

A fingerprint holds the values the theorems pin down.  For Algorithm I:
the leader, every node's level, and the marked set.  For Algorithm II:
the marking colors (hence the MIS) and the WCDS validity of the final
backbone — but **not** which intermediate becomes each
additional-dominator, which the paper itself leaves to message arrival
order ("the distributed run may pick a different (equally valid)
intermediate").  Likewise message *counts* are not fingerprinted: the
election's per-node improvement count legitimately depends on the order
simultaneous ELECT waves arrive.

Any fingerprint divergence is a race; the report carries the first
diverging trace event so the offending schedule step is inspectable.
A fingerprint may also carry its own verdict against an oracle
(:data:`ORACLE_FIELDS`); a ``False`` verdict on any run fails the sweep
too, because a mismatch that repeats on every schedule never diverges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.graphs.graph import Graph
from repro.sim.engine import perturbed_schedule
from repro.sim.trace import TraceRecorder

Fingerprint = Mapping[str, object]
Runner = Callable[[], Fingerprint]

#: Fingerprint keys that hold a run's verdict against an oracle; each
#: must be ``True`` on every run, perturbed or not.
ORACLE_FIELDS = (
    "matches_centralized",
    "moved_matches_centralized",
    "matches_oracle",
    "wcds_valid",
)


@dataclass(frozen=True)
class Divergence:
    """One fingerprint mismatch under one perturbation seed."""

    perturbation_seed: int
    key: str
    baseline: str
    perturbed: str
    first_diverging_event: Optional[str] = None

    def format(self) -> str:
        lines = [
            f"perturbation seed {self.perturbation_seed}: "
            f"fingerprint key {self.key!r} diverged",
            f"  baseline:  {self.baseline}",
            f"  perturbed: {self.perturbed}",
        ]
        if self.first_diverging_event is not None:
            lines.append(f"  first diverging event: {self.first_diverging_event}")
        return "\n".join(lines)


@dataclass
class RaceReport:
    """Outcome of one protocol's perturbation sweep."""

    protocol: str
    perturbations: int
    divergences: List[Divergence] = field(default_factory=list)
    #: ``(perturbation seed or None for the unperturbed run, key)`` of
    #: every oracle field that came out ``False``.
    oracle_failures: List[Tuple[Optional[int], str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No divergence across any perturbation, and every run agreed
        with its oracle."""
        return not self.divergences and not self.oracle_failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "perturbations": self.perturbations,
            "ok": self.ok,
            "oracle_failures": [
                {"perturbation_seed": seed, "key": key}
                for seed, key in self.oracle_failures
            ],
            "divergences": [
                {
                    "perturbation_seed": d.perturbation_seed,
                    "key": d.key,
                    "baseline": d.baseline,
                    "perturbed": d.perturbed,
                    "first_diverging_event": d.first_diverging_event,
                }
                for d in self.divergences
            ],
        }

    def format(self) -> str:
        if self.divergences:
            verdict = "SCHEDULE RACE DETECTED"
        elif self.oracle_failures:
            verdict = "ORACLE MISMATCH"
        else:
            verdict = "no schedule races"
        lines = [
            f"{self.protocol}: {verdict} "
            f"({self.perturbations} perturbation(s))"
        ]
        lines.extend(
            f"{'unperturbed run' if seed is None else f'perturbation seed {seed}'}: "
            f"fingerprint key {key!r} is False"
            for seed, key in self.oracle_failures
        )
        lines.extend(d.format() for d in self.divergences)
        return "\n".join(lines)


def detect_races(
    runner: Runner,
    *,
    protocol: str,
    perturbations: int = 5,
    base_seed: int = 0,
    capture_traces: bool = True,
    max_trace_events: int = 500_000,
) -> RaceReport:
    """Run ``runner`` once unperturbed and ``perturbations`` times under
    distinct tie-break seeds; report every fingerprint divergence.

    ``runner`` must build its simulation from scratch on every call and
    return a JSON-comparable fingerprint of the values that *must* be
    schedule-independent.
    """
    if perturbations < 1:
        raise ValueError("need at least one perturbation")
    baseline_trace = TraceRecorder(max_trace_events) if capture_traces else None
    with perturbed_schedule(None, baseline_trace):
        baseline = dict(runner())
    report = RaceReport(protocol=protocol, perturbations=perturbations)
    _note_oracle_failures(report, None, baseline)
    for index in range(perturbations):
        seed = base_seed * perturbations + index + 1
        trace = TraceRecorder(max_trace_events) if capture_traces else None
        with perturbed_schedule(seed, trace):
            perturbed = dict(runner())
        _note_oracle_failures(report, seed, perturbed)
        diverged_keys = sorted(
            set(baseline) | set(perturbed),
            key=repr,
        )
        first_event = None
        for key in diverged_keys:
            base_value = baseline.get(key, "<missing>")
            pert_value = perturbed.get(key, "<missing>")
            if base_value == pert_value:
                continue
            if first_event is None and baseline_trace is not None and trace is not None:
                first_event = _first_diverging_event(baseline_trace, trace)
            report.divergences.append(
                Divergence(
                    perturbation_seed=seed,
                    key=str(key),
                    baseline=repr(base_value),
                    perturbed=repr(pert_value),
                    first_diverging_event=first_event,
                )
            )
    return report


def _note_oracle_failures(
    report: RaceReport, seed: Optional[int], fingerprint: Fingerprint
) -> None:
    report.oracle_failures.extend(
        (seed, key)
        for key in ORACLE_FIELDS
        if key in fingerprint and not fingerprint[key]
    )


def _first_diverging_event(
    baseline: TraceRecorder, perturbed: TraceRecorder
) -> Optional[str]:
    """First position where the two event logs disagree."""
    for index, (base_event, pert_event) in enumerate(
        zip(baseline.events, perturbed.events)
    ):
        if base_event != pert_event:
            return (
                f"event #{index}: baseline {base_event.format().strip()!r} "
                f"vs perturbed {pert_event.format().strip()!r}"
            )
    if len(baseline.events) != len(perturbed.events):
        return (
            f"event #{min(len(baseline.events), len(perturbed.events))}: "
            f"trace lengths differ ({len(baseline.events)} baseline vs "
            f"{len(perturbed.events)} perturbed)"
        )
    return None


# ----------------------------------------------------------------------
# Built-in protocol fingerprints
# ----------------------------------------------------------------------
def algorithm1_fingerprint(graph: Graph) -> Runner:
    """Theorem-relevant invariants of an Algorithm I run."""
    from repro.wcds.algorithm1 import algorithm1_distributed

    def run() -> Fingerprint:
        result = algorithm1_distributed(graph)
        levels: Dict = result.meta["levels"]
        return {
            "leader": repr(result.meta["leader"]),
            "levels": tuple(sorted(levels.items(), key=repr)),
            "dominators": tuple(sorted(result.dominators, key=repr)),
        }

    return run


def algorithm2_fingerprint(graph: Graph) -> Runner:
    """Theorem-relevant invariants of an Algorithm II run.

    The MIS (marking colors) must be schedule-independent; the
    additional-dominator *identities* are legitimately arbitrary, so the
    fingerprint pins the backbone's WCDS validity instead.
    """
    from repro.wcds.algorithm2 import algorithm2_distributed
    from repro.wcds.base import is_weakly_connected_dominating_set

    def run() -> Fingerprint:
        result = algorithm2_distributed(graph)
        return {
            "mis": tuple(sorted(result.mis_dominators, key=repr)),
            "wcds_valid": bool(
                is_weakly_connected_dominating_set(graph, result.dominators)
            ),
        }

    return run


def distributed_mis_fingerprint(graph: Graph) -> Runner:
    """The id-ranked marking protocol's MIS (provably tie-independent)."""
    from repro.mis.distributed import run_mis

    def run() -> Fingerprint:
        result = run_mis(graph)
        return {"mis": tuple(sorted(result.dominators, key=repr))}

    return run


#: Tile side (radii) of the sharded sweep: small, so that a 50-node
#: deployment spans several tiles and the exchange order matters.
RACE_TILE_SIZE = 3.5

#: Seeded moves the sharded sweep applies after its build.
RACE_MOVES = 20

#: Largest move along each axis, in radii.
RACE_MOVE_REACH = 0.3


def sharded_wcds_fingerprint(graph: Graph) -> Runner:
    """The tiled Algorithm II build and its maintenance under moves,
    perturbed at their own seam.

    An active perturbation seed shuffles the stitcher's within-round
    frontier-exchange order (see ``ShardedBackbone._stitch``), so this
    sweep checks the claim the shard subsystem rests on: the fixpoint is
    order-independent and the result stays *bit-identical* to the
    centralized oracle — after the build, and after a seeded stream of
    moves, whose connector re-selection reads each tile's statuses from
    before the stitch.  A move that would disconnect the deployment is
    undone, so the oracle stays defined.  ``graph`` must be a
    :class:`~repro.graphs.udg.UnitDiskGraph` (tiling needs positions);
    it is not mutated.
    """
    from repro.geometry.point import Point
    from repro.graphs.traversal import is_connected
    from repro.graphs.udg import UnitDiskGraph
    from repro.shard.config import ShardConfig
    from repro.shard.stitch import ShardedBackbone
    from repro.wcds.algorithm2 import algorithm2_centralized
    from repro.wcds.base import WCDSResult

    if not isinstance(graph, UnitDiskGraph):
        raise TypeError("the wcds-sharded sweep needs a UnitDiskGraph")
    deployment = graph

    def matches(result: WCDSResult, udg: UnitDiskGraph) -> bool:
        oracle = algorithm2_centralized(udg)
        return bool(
            result.mis_dominators == oracle.mis_dominators
            and result.dominators == oracle.dominators
        )

    def run() -> Fingerprint:
        udg = deployment.copy()
        backbone = ShardedBackbone(udg, ShardConfig(tile_size=RACE_TILE_SIZE))
        sharded = backbone.result()
        fingerprint: Dict[str, object] = {
            "mis": tuple(sorted(sharded.mis_dominators, key=repr)),
            "dominators": tuple(sorted(sharded.dominators, key=repr)),
            "matches_centralized": matches(sharded, udg),
        }
        rng = random.Random(0)
        nodes = sorted(udg.positions, key=repr)
        reach = RACE_MOVE_REACH * udg.radius
        for _ in range(RACE_MOVES):
            node = nodes[rng.randrange(len(nodes))]
            pos = udg.positions[node]
            backbone.apply_move(node, Point(
                pos.x + rng.uniform(-reach, reach), pos.y + rng.uniform(-reach, reach)
            ))
            if not is_connected(udg):
                backbone.apply_move(node, pos)
        moved = backbone.result()
        fingerprint.update({
            "moved_mis": tuple(sorted(moved.mis_dominators, key=repr)),
            "moved_dominators": tuple(sorted(moved.dominators, key=repr)),
            "moved_matches_centralized": matches(moved, udg),
        })
        return fingerprint

    return run


def batched_engine_fingerprint(graph: Graph) -> Runner:
    """Algorithm II on the batched engine, diffed against the oracle.

    The batched simulator's contract is *bit-identical* outcomes: under
    any perturbation seed both engines draw the same tie-break stream,
    so every run-level quantity — including the message statistics the
    other fingerprints deliberately omit — must agree *between the
    engines on the same schedule*.  The fingerprint therefore carries
    the engine-vs-engine verdict (plus the schedule-independent MIS),
    not the raw counts, which legitimately move with the schedule.
    """
    from repro.sim.config import SimConfig
    from repro.wcds.algorithm2 import algorithm2_distributed

    def run() -> Fingerprint:
        batched = algorithm2_distributed(graph, sim=SimConfig(engine="batched"))
        oracle = algorithm2_distributed(graph, sim=SimConfig(engine="event"))
        batched_stats = batched.meta["stats"]
        oracle_stats = oracle.meta["stats"]
        return {
            "mis": tuple(sorted(batched.mis_dominators, key=repr)),
            "matches_oracle": bool(
                batched.mis_dominators == oracle.mis_dominators
                and batched.dominators == oracle.dominators
                and batched_stats.messages_sent == oracle_stats.messages_sent
                and batched_stats.deliveries == oracle_stats.deliveries
                and batched_stats.finish_time == oracle_stats.finish_time
            ),
        }

    return run


PROTOCOL_CHECKS: Dict[str, Callable[[Graph], Runner]] = {
    "algorithm1": algorithm1_fingerprint,
    "algorithm2": algorithm2_fingerprint,
    "mis": distributed_mis_fingerprint,
    "wcds-sharded": sharded_wcds_fingerprint,
    "engine-batched": batched_engine_fingerprint,
}


def check_protocols(
    graph: Graph,
    protocols: Tuple[str, ...] = (
        "algorithm1", "algorithm2", "wcds-sharded", "engine-batched",
    ),
    *,
    perturbations: int = 5,
    base_seed: int = 0,
) -> List[RaceReport]:
    """Run the named built-in protocol race checks over ``graph``."""
    reports = []
    for name in protocols:
        if name not in PROTOCOL_CHECKS:
            raise KeyError(
                f"unknown protocol {name!r} "
                f"(known: {', '.join(sorted(PROTOCOL_CHECKS))})"
            )
        runner = PROTOCOL_CHECKS[name](graph)
        reports.append(
            detect_races(
                runner,
                protocol=name,
                perturbations=perturbations,
                base_seed=base_seed,
            )
        )
    return reports
