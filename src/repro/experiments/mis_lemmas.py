"""Experiments F3/F4/F5/F6 — the MIS structure lemmas of Section 2.

F3 (Lemma 1): ≤ 5 MIS neighbors of any non-MIS node.
F4 (Lemma 2): ≤ 23 MIS nodes at exactly 2 hops, ≤ 47 within 3 hops.
F5 (Lemma 3): complementary MIS subsets within 2-3 hops.
F6 (Theorem 4): level-ranked MIS puts them exactly 2 hops apart.
"""

from __future__ import annotations

import math

from repro.experiments.base import Rows, checker, register
from repro.geometry import mis_three_hop_bound, mis_two_hop_bound
from repro.graphs import (
    bfs_distances,
    build_udg,
    connected_random_udg,
    grid_udg,
    uniform_random_udg,
)
from repro.mis import (
    complementary_subsets_within,
    greedy_mis,
    greedy_mis_dynamic_degree,
    lemma2_extrema,
    level_ranking,
    max_mis_neighbors,
    rank_by,
)


def pentagon_instance():
    """The Lemma 1 tightness adversary: 5 MIS nodes around a center,
    which is ranked last so all five are picked."""
    pts = {0: (0.0, 0.0)}
    for i in range(5):
        angle = 2 * math.pi * i / 5
        pts[i + 1] = (0.99 * math.cos(angle), 0.99 * math.sin(angle))
    g = build_udg(pts)
    return g, greedy_mis(g, rank_by(g.nodes(), lambda n: n == 0))


@register(
    "F3",
    "Max #MIS neighbors of a non-MIS node (paper bound: 5)",
    "Lemma 1: at most five MIS neighbors; five is achievable.",
)
def run_lemma1() -> Rows:
    rows = []
    for n, side in ((100, 4.0), (300, 6.0), (600, 7.0)):
        worst = 0
        for seed in range(5):
            g = uniform_random_udg(n, side, seed=seed)
            worst = max(worst, max_mis_neighbors(g, greedy_mis(g)))
        rows.append(
            {"workload": f"uniform n={n}", "max_mis_neighbors": worst, "bound": 5}
        )
    grid = grid_udg(15, 15, spacing=0.5)
    rows.append(
        {
            "workload": "grid 15x15 d=0.5",
            "max_mis_neighbors": max_mis_neighbors(grid, greedy_mis(grid)),
            "bound": 5,
        }
    )
    g, mis = pentagon_instance()
    rows.append(
        {
            "workload": "pentagon adversary",
            "max_mis_neighbors": max_mis_neighbors(g, mis),
            "bound": 5,
        }
    )
    return rows


@checker("F3")
def check_lemma1(rows: Rows) -> None:
    assert all(row["max_mis_neighbors"] <= 5 for row in rows)
    assert rows[-1]["max_mis_neighbors"] == 5  # tightness


@register(
    "F4",
    "MIS nodes at exactly 2 hops (<=23) and within 3 hops (<=47)",
    "Lemma 2's packing bounds hold; observed extrema sit well below.",
)
def run_lemma2() -> Rows:
    rows = []
    for label, factory in (
        ("uniform n=300 dense", lambda s: uniform_random_udg(300, 5.0, seed=s)),
        ("uniform n=600", lambda s: uniform_random_udg(600, 8.0, seed=s)),
        ("grid 20x20 d=0.35", lambda s: grid_udg(20, 20, spacing=0.35)),
    ):
        worst_two = worst_three = 0
        for seed in range(4):
            g = factory(seed)
            two, three = lemma2_extrema(g, greedy_mis(g))
            worst_two = max(worst_two, two)
            worst_three = max(worst_three, three)
        rows.append(
            {
                "workload": label,
                "max_2hop": worst_two,
                "bound_2hop": mis_two_hop_bound(),
                "max_3hop": worst_three,
                "bound_3hop": mis_three_hop_bound(),
            }
        )
    return rows


@checker("F4")
def check_lemma2(rows: Rows) -> None:
    for row in rows:
        assert row["max_2hop"] <= row["bound_2hop"]
        assert row["max_3hop"] <= row["bound_3hop"]
        assert row["max_3hop"] >= 2


@register(
    "F5",
    "Complementary MIS subsets within 2/3 hops (of 25 trials)",
    "Lemma 3: always within 3 hops; 2 hops is NOT guaranteed.",
)
def run_lemma3() -> Rows:
    rows = []
    for label, mis_of in (
        ("id-ranked MIS", greedy_mis),
        ("degree-ranked MIS", greedy_mis_dynamic_degree),
    ):
        within3 = within2 = 0
        trials = 25
        for seed in range(trials):
            g = connected_random_udg(60, 5.0, seed=seed)
            mis = mis_of(g)
            within3 += complementary_subsets_within(g, mis, 3)
            within2 += complementary_subsets_within(g, mis, 2)
        rows.append(
            {
                "ranking": label,
                "trials": trials,
                "subsets_within_3_hops": within3,
                "subsets_within_2_hops": within2,
            }
        )
    return rows


@checker("F5")
def check_lemma3(rows: Rows) -> None:
    for row in rows:
        assert row["subsets_within_3_hops"] == row["trials"]
    assert any(row["subsets_within_2_hops"] < row["trials"] for row in rows)


@register(
    "F6",
    "Complementary subsets exactly 2 hops apart "
    "(level rank: always; id rank: sometimes not)",
    "Theorem 4: the level-based ranking guarantees 2-hop separation.",
)
def run_theorem4() -> Rows:
    rows = []
    for n, side in ((40, 4.2), (60, 5.0), (80, 6.5)):
        trials = 20
        level_ok = id_ok = 0
        for seed in range(trials):
            g = connected_random_udg(n, side, seed=seed)
            levels = bfs_distances(g, min(g.nodes()))
            level_mis = greedy_mis(g, level_ranking(g, levels))
            id_mis = greedy_mis(g)
            level_ok += complementary_subsets_within(g, level_mis, 2)
            id_ok += complementary_subsets_within(g, id_mis, 2)
        rows.append(
            {
                "workload": f"n={n} side={side}",
                "trials": trials,
                "levelrank_2hop_ok": level_ok,
                "idrank_2hop_ok": id_ok,
            }
        )
    return rows


@checker("F6")
def check_theorem4(rows: Rows) -> None:
    for row in rows:
        assert row["levelrank_2hop_ok"] == row["trials"]
    assert any(row["idrank_2hop_ok"] < row["trials"] for row in rows)
