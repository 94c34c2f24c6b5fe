"""Experiments M1–M4 — WCDS maintenance under mobility and churn.

M1–M3 maintain Algorithm II with :class:`ShardedBackbone`, the
service's engine, and a :class:`Tally` judges every step or event.
M1: §4.2's maintenance sketch, under random-waypoint mobility.
M2: §4.2 also promises maintenance when nodes "are turned off or on".
M3: the results must not be artifacts of the random-waypoint model —
re-run under random-direction and Gauss-Markov.
M4: the beacon protocol (``repro.mobility.protocol``) must re-converge
to a valid MIS within a few beacon periods after mobility stops.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import AbstractSet, Hashable

from repro.experiments.base import Rows, checker, register
from repro.geometry import Point
from repro.graphs import connected_components, connected_random_udg, set_distance
from repro.graphs.graph import canonical_order
from repro.mis import is_dominating_set
from repro.mobility import (
    GaussMarkovModel,
    MobilityModel,
    RandomDirectionModel,
    RandomWaypointModel,
)
from repro.mobility.protocol import MaintenanceSimulation
from repro.shard import ShardedBackbone
from repro.wcds import algorithm2_centralized, weakly_induced_subgraph


@dataclass
class Tally:
    """Steps or events that left the watched backbone a valid WCDS of
    every component, equal to ``algorithm2_centralized`` rebuilt on each
    connected component, or the graph disconnected; nodes whose MIS or
    backbone membership flipped, and their largest hop distance from
    their event's endpoints."""

    events: int = 0
    valid: int = 0
    exact: int = 0
    disconnected: int = 0
    flipped: int = 0
    max_locality_hops: int = 0

    def watch(self, backbone: ShardedBackbone) -> None:
        """Judge ``backbone`` from its current membership on."""
        self.backbone = backbone
        self.before = tuple(map(frozenset, backbone.membership()))

    def record(self, endpoints: AbstractSet[Hashable]) -> None:
        """Judge the backbone one step or event with these endpoints left."""
        graph = self.backbone.graph
        mis, dominators = now = tuple(map(frozenset, self.backbone.membership()))
        flipped = (self.before[0] ^ mis) | (self.before[1] ^ dominators)
        self.max_locality_hops = max(
            [self.max_locality_hops]
            + [set_distance(graph, endpoints, (v,)) for v in flipped if v in graph]
        )
        components = connected_components(graph)
        spanner = weakly_induced_subgraph(graph, dominators)
        self.valid += is_dominating_set(graph, dominators) and (
            len(connected_components(spanner)) == len(components)
        )
        rebuilt = [algorithm2_centralized(graph.subgraph(c)) for c in components]
        self.exact += now == (
            frozenset().union(*(r.mis_dominators for r in rebuilt)),
            frozenset().union(*(r.dominators for r in rebuilt)),
        )
        self.disconnected += len(components) > 1
        self.flipped += len(flipped)
        self.events += 1
        self.before = now


def follow(
    backbone: ShardedBackbone, model: MobilityModel, steps: int, tally: Tally
) -> None:
    """Step ``model``, noting each step's endpoints and moved nodes in
    canonical order (the service's rule), and record it on ``tally``."""
    tally.watch(backbone)
    for _ in range(steps):
        events = model.step()
        for node in canonical_order(events.endpoints.union(events.moved)):
            backbone.note_moved(node)
        tally.record(events.endpoints)


def check_tallies(rows: Rows) -> None:
    """Valid and exact after every step or event; flips within 4 hops."""
    for row in rows:
        assert row["valid"] == row["events"]
        assert row["exact"] == row["events"]
        assert row["max_locality_hops"] <= 4


@register(
    "M1",
    "WCDS maintenance under random waypoint "
    "(exact and valid every step; changes near the event)",
    "Section 4.2's maintenance sketch: re-stitching the touched tiles "
    "keeps Algorithm II's WCDS exact and valid.",
)
def run_maintenance() -> Rows:
    rows = []
    for seed in range(4):
        g = connected_random_udg(60, 5.0, seed=seed)
        model = RandomWaypointModel(g, 5.0, speed_range=(0.05, 0.2), seed=seed)
        tally = Tally()
        follow(ShardedBackbone(g), model, 40, tally)
        rows.append({"seed": seed, **asdict(tally)})
    return rows


checker("M1")(check_tallies)


@register(
    "M2",
    "WCDS maintenance under node on/off churn (40 events per trial)",
    "Section 4.2: the backbone survives radios turning off and on, "
    "exact and valid after every event.",
)
def run_churn() -> Rows:
    rows = []
    for seed in range(4):
        rng = random.Random(seed)
        g = connected_random_udg(40, 4.5, seed=seed)
        backbone = ShardedBackbone(g)
        tally = Tally()
        tally.watch(backbone)
        next_id = 1000
        dominator_departures = 0
        for _ in range(40):
            if rng.random() < 0.5 and g.num_nodes > 8:
                victim = rng.choice(sorted(g.nodes()))
                dominator_departures += victim in backbone.membership()[0]
                endpoints = set(g.adjacency(victim))
                backbone.apply_leave(victim)
            else:
                pos = Point(rng.uniform(0, 4.5), rng.uniform(0, 4.5))
                backbone.apply_join(next_id, pos)
                endpoints = g.adjacency(next_id) | {next_id}
                next_id += 1
            tally.record(endpoints)
        rows.append(
            {
                "seed": seed,
                **asdict(tally),
                "dominator_departures": dominator_departures,
                "final_n": g.num_nodes,
                "final_backbone": len(backbone.membership()[1]),
            }
        )
    return rows


@checker("M2")
def check_churn(rows: Rows) -> None:
    check_tallies(rows)
    for row in rows:
        # The storms actually stressed the interesting case.
        assert row["dominator_departures"] >= 1


@register(
    "M3",
    "Maintenance validity across mobility models (20 steps x 3 seeds)",
    "The maintenance results hold under random waypoint, random "
    "direction, and Gauss-Markov mobility alike.",
)
def run_models() -> Rows:
    rows = []
    side, speeds = 4.5, (0.05, 0.2)
    factories = {
        "random waypoint": lambda g, s: RandomWaypointModel(g, side, speeds, seed=s),
        "random direction": lambda g, s: RandomDirectionModel(g, side, speeds, seed=s),
        "gauss-markov": lambda g, s: GaussMarkovModel(g, side, 0.12, seed=s),
    }
    for label, factory in factories.items():
        tally = Tally()
        for seed in range(3):
            g = connected_random_udg(40, side, seed=seed)
            follow(ShardedBackbone(g), factory(g, seed), 20, tally)
        rows.append({"model": label, **asdict(tally)})
    return rows


checker("M3")(check_tallies)


@register(
    "M4",
    "Distributed MIS maintenance: beacon periods to re-converge after "
    "a mobility burst (3 seeds each)",
    "The beacon protocol restores a valid MIS within a bounded number "
    "of periods once the topology stabilizes.",
)
def run_convergence() -> Rows:
    rows = []
    for label, speed in (("slow (0.05-0.1)", (0.05, 0.1)),
                         ("medium (0.15-0.25)", (0.15, 0.25)),
                         ("fast (0.3-0.5)", (0.3, 0.5))):
        worst_periods = 0
        total_periods = 0
        trials = 3
        for seed in range(trials):
            g = connected_random_udg(30, 4.0, seed=seed)
            driver = MaintenanceSimulation(g, seed=seed)
            driver.run_for(6.0)
            model = RandomWaypointModel(g, 4.0, speed_range=speed, seed=seed)
            for _ in range(5):
                model.step()
                driver.run_for(2.0)
            periods = driver.settle(max_periods=30)
            worst_periods = max(worst_periods, periods)
            total_periods += periods
        rows.append(
            {
                "burst_speed": label,
                "trials": trials,
                "mean_periods_to_converge": total_periods / trials,
                "worst_periods": worst_periods,
            }
        )
    return rows


@checker("M4")
def check_convergence(rows: Rows) -> None:
    for row in rows:
        assert row["worst_periods"] <= 25
