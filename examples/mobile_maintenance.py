#!/usr/bin/env python3
"""Maintaining the WCDS backbone while nodes move (§4.2 maintenance).

Runs random-waypoint mobility over a deployed network and keeps the
exact Algorithm II backbone with ``ShardedBackbone`` — the engine the
serving layer runs — by noting every step's link-event endpoints and
moved nodes.  It prints a running log of topology churn, role changes
and their hop radius from the step's link events.  The paper claims
changes stay within three hops; that describes a local repair rule,
and exact Algorithm II can reach farther (see ``repro.mobility``).

Run:
    python examples/mobile_maintenance.py [--nodes 60] [--steps 60]
"""

import argparse
from copy import copy

from repro import RandomWaypointModel, connected_random_udg
from repro.analysis import print_table
from repro.experiments.churn import Tally
from repro.graphs.graph import canonical_order
from repro.shard import ShardedBackbone


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=60)
    parser.add_argument("--side", type=float, default=5.0)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--speed", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    network = connected_random_udg(args.nodes, args.side, seed=args.seed)
    backbone = ShardedBackbone(network)
    model = RandomWaypointModel(
        network,
        args.side,
        speed_range=(args.speed / 2, args.speed),
        seed=args.seed,
    )
    mis, dominators = backbone.membership()
    print(f"\nInitial backbone: {len(dominators)} nodes "
          f"({len(mis)} clusterheads)")

    log = []
    tally = Tally()
    tally.watch(backbone)
    for step in range(1, args.steps + 1):
        events = model.step()
        for node in canonical_order(events.endpoints.union(events.moved)):
            backbone.note_moved(node)
        last = copy(tally)
        tally.record(events.endpoints)
        if tally.flipped > last.flipped or step % 15 == 0:
            log.append(
                {
                    "step": step,
                    "links±": f"+{len(events.gained)}/-{len(events.lost)}",
                    "flipped": tally.flipped - last.flipped,
                    "max_radius": tally.max_locality_hops,
                    "backbone": len(dominators),
                    "valid": tally.valid > last.valid,
                    "exact": tally.exact > last.exact,
                }
            )
    print_table(log[:25], title="Maintenance log (first 25 eventful steps)")

    print(f"Valid steps: {tally.valid} of {tally.events}; "
          f"equal to a per-component rebuild: {tally.exact} of {tally.events} "
          f"({tally.disconnected} disconnected)")
    print(f"Largest flip radius: {tally.max_locality_hops} hops")
    print(f"Final backbone: {len(dominators)} nodes\n")


if __name__ == "__main__":
    main()
