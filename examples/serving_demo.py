#!/usr/bin/env python3
"""Serving demo: a long-lived BackboneService under query load + churn.

Starts a service over a random deployment, replays a zipfian query mix
interleaved with random-waypoint churn, and prints the request metrics
(cache hit rates, p95 latencies, repair vs rebuild counts).

Run:
    python examples/serving_demo.py [--nodes 200] [--side 9.0] [--seed 7]
"""

import argparse

from repro import connected_random_udg
from repro.analysis import print_table
from repro.mobility import RandomWaypointModel
from repro.service import (
    BackboneService,
    ServiceConfig,
    WorkloadConfig,
    WorkloadGenerator,
    replay,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--side", type=float, default=9.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--churn-every", type=int, default=100)
    args = parser.parse_args()

    # 1. One service owns the deployment and its Algorithm II backbone.
    network = connected_random_udg(args.nodes, args.side, seed=args.seed)
    service = BackboneService(network, ServiceConfig())
    print(f"\nServing {network.num_nodes} nodes; initial backbone "
          f"{service.backbone().value.size} dominators")

    # 2. Queries answered one by one, from caches wherever possible.
    print("route(0, 42): ", service.route(0, 42).value)
    print("dominator(5): ", service.dominator(5).value)
    plan = service.broadcast_plan(0).value
    print(f"broadcast_plan(0): {plan['transmissions']} transmissions "
          f"cover {plan['covered']}/{plan['total']} nodes")

    # 3. A recorded-style workload: zipfian node popularity, mixed ops,
    #    churn markers every --churn-every queries.  A mobility step
    #    moves every radio, so the service measures one re-construction
    #    cheaper than re-stitching around each node, and takes it.
    mobility = RandomWaypointModel(
        network, args.side, speed_range=(0.005, 0.02), seed=args.seed
    )
    generator = WorkloadGenerator(
        sorted(network.nodes()),
        WorkloadConfig(
            queries=args.queries,
            churn_every=args.churn_every,
            seed=args.seed,
        ),
    )
    summary = replay(service, generator.requests(), mobility=mobility)

    print_table(
        [
            {
                "responses": summary.responses,
                "ok": summary.ok,
                "stale": summary.stale,
                "churn_steps": summary.churn_steps,
                "repairs": summary.metrics["counters"].get("repairs", 0),
                "rebuilds": summary.metrics["counters"].get("rebuilds_full", 0),
                "route_hit_rate": summary.metrics["hit_rates"]["route_cache"],
            }
        ],
        title="Replay summary",
    )
    print_table(service.metrics.rows(), title="Latency (microseconds)")
    print("\nfull metrics JSON:\n" + service.metrics.to_json())


if __name__ == "__main__":
    main()
