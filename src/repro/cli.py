"""Command-line interface for the library.

Usage (installed as ``repro``, or ``python -m repro.cli``):

    repro topology   --nodes 150 --side 8         # deployment stats
    repro wcds       --algorithm 2 --nodes 150    # build a backbone
    repro route      --src 3 --dst 77             # clusterhead routing
    repro broadcast  --nodes 300                  # flooding vs backbone
    repro compare    --nodes 150                  # all algorithms side by side
    repro experiment --list                       # the paper's experiments
    repro experiment F3 T11                       # run + verify specific claims
    repro experiment --all --markdown results.md  # full measured report
    repro figures    --outdir figures             # regenerate the figures
    repro serve      --requests trace.jsonl       # replay through the service
    repro serve --slo-latency route:0.05:0.99     # ... with a burn-rate verdict
    repro obs-report --algorithm 1                # message costs vs Theorem 12
    repro chaos --quick                           # fault-injection smoke
    repro chaos --loss 0.3 --crashes 2            # full chaos matrix
    repro check                                   # determinism lint (D1-D5)
    repro check --races --nodes 200               # schedule-race sweeps
    repro check --rule D2 --format github         # one rule, CI annotations

Each subcommand is a thin call into the library.  The library's
self-checks (the race detector's racy fixture, the cross-process
telemetry harvest) live in the test suite.

Commands that construct backbones or serve requests accept
``--telemetry json|prom|jsonl`` (plus ``--telemetry-out FILE``) to
export the run's metrics registry in that format.

Every subcommand builds the same reproducible topology from
``--nodes/--side/--seed`` so results can be cross-referenced between
invocations.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.analysis import print_table
from repro.graphs import connected_random_udg, graph_stats
from repro.routing import ClusterheadRouter, backbone_broadcast, blind_flood


def _positive_int(text: str) -> int:
    """``--nodes``, ``--trials``, ``--perturbations``: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """``--workers`` (0 runs inline), ``--crashes``: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _loss_probability(text: str) -> float:
    """``chaos --loss``: a burst loss probability in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def _positive_float(text: str) -> float:
    """``--side``, ``--slack``: a positive, finite float."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=_positive_int, default=150,
                        help="number of radios")
    parser.add_argument("--side", type=_positive_float, default=8.0,
                        help="square side length")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument(
        "--load", metavar="FILE", help="load the topology from a JSON file "
        "(overrides --nodes/--side/--seed)"
    )


def _deployment(nodes: int, side: float, seed: int) -> "UnitDiskGraph":
    """A connected random deployment; one too sparse to connect is a
    usage error."""
    try:
        return connected_random_udg(nodes, side, seed=seed)
    except RuntimeError as exc:
        print(f"error: {exc}; raise --nodes or lower --side", file=sys.stderr)
        raise SystemExit(2)


def _build(args) -> "UnitDiskGraph":
    """The deployment; an unreadable ``--load`` file or a too-sparse
    deployment is a usage error."""
    if not getattr(args, "load", None):
        return _deployment(args.nodes, args.side, args.seed)
    from repro.graphs import load_topology

    try:
        return load_topology(args.load)
    except OSError as exc:
        reason = exc.strerror
    except (ValueError, KeyError, TypeError) as exc:
        reason = str(exc)
    print(f"error: cannot read topology {args.load}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loss", type=float, default=0.0,
        help="ambient message-loss probability (requires --transport to "
        "still converge reliably)",
    )
    parser.add_argument(
        "--transport", action="store_true",
        help="run over the reliable ack/retransmit transport",
    )
    parser.add_argument(
        "--fault-plan", metavar="FILE",
        help="JSON fault plan (see repro.faults.FaultPlan.to_json)",
    )


def _sim_config(args):
    """A SimConfig from --loss/--transport/--fault-plan, or None when
    none of them was given (keeps the fault-free fast path)."""
    from repro.faults import FaultPlan
    from repro.sim.config import SimConfig

    if not (args.loss or args.transport or args.fault_plan):
        return None
    plan = FaultPlan()
    if args.fault_plan:
        plan = _read_fault_plan(args.fault_plan, "--fault-plan")
    return SimConfig(
        loss_rate=args.loss,
        seed=args.seed,
        fault_plan=plan,
        transport=args.transport,
    )


def _read_fault_plan(path: str, flag: str):
    """The fault plan in ``path``; a file that cannot be read raises
    ``ValueError``, which the commands report as a usage error."""
    from repro.faults import FaultPlan

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())
    except OSError as exc:
        raise ValueError(f"cannot read {flag} {path}: {exc.strerror}") from exc


def _algorithm_name(which: str) -> str:
    return {"1": "algorithm1", "2": "algorithm2"}.get(which, which)


def _algorithm_label(which: str) -> str:
    return {"1": "Algorithm 1", "2": "Algorithm 2"}.get(
        which, _algorithm_name(which)
    )


def _algorithm_arg(value: str) -> str:
    """argparse type: 1, 2, or any registered backbone name."""
    from repro.backbone import names

    if _algorithm_name(value) not in names():
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {value!r} (expected 1, 2, or one of: "
            f"{', '.join(names())})"
        )
    return value


def _algorithm_list_arg(value: str) -> tuple:
    """argparse type: a comma list of :func:`_algorithm_arg` names,
    resolved to registry names."""
    return tuple(
        _algorithm_name(_algorithm_arg(name)) for name in value.split(",")
    )


#: Registered backbones that are dominating but not necessarily weakly
#: connected: ``repro wcds`` checks only domination for these.
_DOMINATING_ONLY = frozenset({"mis", "mds-exact"})


# ----------------------------------------------------------------------
# Telemetry export
# ----------------------------------------------------------------------
def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", choices=["json", "prom", "jsonl"],
        help="export the run's metrics registry in this format",
    )
    parser.add_argument(
        "--telemetry-out", metavar="FILE",
        help="write/append the telemetry here instead of stdout",
    )


def _emit_telemetry(args, registry, tracer=None, **extra) -> None:
    """Export ``registry`` (and optionally the span tree) as requested
    by ``--telemetry`` / ``--telemetry-out``."""
    import json

    fmt = getattr(args, "telemetry", None)
    if not fmt:
        return
    out = getattr(args, "telemetry_out", None)
    if fmt == "jsonl":
        if tracer is not None and tracer.enabled:
            extra["spans"] = tracer.to_dict()["spans"]
        if out:
            registry.write_jsonl(out, **extra)
            print(f"appended telemetry to {out}")
            return
        record = dict(extra)
        record["metrics"] = registry.snapshot()
        print(json.dumps(record, sort_keys=True))
        return
    if fmt == "prom":
        payload = registry.prometheus_text()
    else:
        record = dict(extra)
        record["metrics"] = registry.snapshot()
        if tracer is not None and tracer.enabled:
            record["spans"] = tracer.to_dict()["spans"]
        payload = json.dumps(record, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload if payload.endswith("\n") else payload + "\n")
        print(f"wrote telemetry to {out}")
    else:
        print(payload)


# ----------------------------------------------------------------------
# Service-level objectives (serve)
# ----------------------------------------------------------------------
def _add_slo_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--slo-latency", action="append", default=[], metavar="OP:SECS[:TARGET]",
        help="latency objective: requests of OP (or 'any') must finish "
        "within SECS seconds TARGET of the time (default target 0.99); "
        "repeatable",
    )
    parser.add_argument(
        "--slo-availability", type=float, default=None, metavar="TARGET",
        help="availability objective: requests must succeed within any "
        "deadline TARGET of the time",
    )
    parser.add_argument(
        "--slo-window", type=int, default=256,
        help="rolling burn-rate window, in requests",
    )
    parser.add_argument(
        "--max-burn-rate", type=float, default=2.0,
        help="verdict threshold: an SLO fails once its burn rate "
        "exceeds this multiple of budget",
    )


def _parse_slos(args):
    """``--slo-latency``/``--slo-availability`` flags into SLO objects."""
    from repro.obs.slo import SLO

    slos = []
    for spec in args.slo_latency:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"--slo-latency expects OP:SECS[:TARGET], got {spec!r}"
            )
        op = None if parts[0] in ("any", "*") else parts[0]
        threshold = float(parts[1])
        target = float(parts[2]) if len(parts) == 3 else 0.99
        slos.append(
            SLO(
                name=f"latency-{parts[0]}",
                kind="latency",
                op=op,
                threshold=threshold,
                target=target,
                window=args.slo_window,
                max_burn_rate=args.max_burn_rate,
            )
        )
    if args.slo_availability is not None:
        slos.append(
            SLO(
                name="availability",
                kind="availability",
                target=args.slo_availability,
                window=args.slo_window,
                max_burn_rate=args.max_burn_rate,
            )
        )
    return tuple(slos)


def _slo_rows(monitor):
    return [
        {
            "slo": row["slo"],
            "target": row["target"],
            "requests": row["total_requests"],
            "compliance": round(row["compliance"], 4),
            "burn_rate": round(row["burn_rate"], 2),
            "budget_left": round(row["budget_remaining"], 3),
            "verdict": "ok" if row["ok"] else "BURNING",
        }
        for row in monitor.status()
    ]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_topology(args) -> int:
    graph = _build(args)
    stats = graph_stats(graph)
    print_table([stats.as_row()], title="Topology")
    if args.positions:
        for node in sorted(graph.nodes()):
            pos = graph.positions[node]
            print(f"{node}\t{pos.x:.4f}\t{pos.y:.4f}")
    if args.save:
        from repro.graphs import save_topology

        save_topology(graph, args.save)
        print(f"saved topology to {args.save}")
    return 0


def cmd_wcds(args) -> int:
    graph = _build(args)
    tracer = registry = None
    if args.telemetry:
        from repro.obs import MetricsRegistry, Tracer

        tracer, registry = Tracer(), MetricsRegistry()
    from repro.backbone import build

    try:
        result = build(_algorithm_name(args.algorithm), graph, tracer=tracer,
                       registry=registry, sim=_sim_config(args))
    except ValueError as exc:  # e.g. simulator flags on a centralized one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if _algorithm_name(args.algorithm) in _DOMINATING_ONLY:
        from repro.mis.properties import is_dominating_set

        if not is_dominating_set(graph, result.dominators):
            raise AssertionError("result is not a dominating set")
    else:
        result.validate(graph)
    if "total_messages" in result.meta:
        messages = result.meta["total_messages"]
    elif "stats" in result.meta:
        messages = result.meta["stats"].messages_sent
    else:
        messages = ""
    print_table(
        [
            {
                "algorithm": _algorithm_label(args.algorithm),
                "n": graph.num_nodes,
                "backbone": result.size,
                "clusterheads": len(result.mis_dominators),
                "connectors": len(result.additional_dominators),
                "messages": messages,
                "spanner_edges": result.spanner(graph).num_edges,
                "udg_edges": graph.num_edges,
            }
        ],
        title="WCDS construction",
    )
    if args.list:
        print("dominators:", " ".join(map(str, sorted(result.dominators))))
    if registry is not None:
        _emit_telemetry(args, registry, tracer,
                        command="wcds", algorithm=args.algorithm)
    return 0


def cmd_route(args) -> int:
    graph = _build(args)
    if args.src not in graph or args.dst not in graph:
        print(f"error: src/dst must be in 0..{graph.num_nodes - 1}", file=sys.stderr)
        return 2
    from repro.backbone import build

    result = build("algorithm2", graph)
    router = ClusterheadRouter(graph, result)
    path = router.route(args.src, args.dst)
    router.validate_path(path)
    from repro.graphs import hop_distance

    shortest = hop_distance(graph, args.src, args.dst)
    annotated = " -> ".join(
        f"{node}{'*' if node in result.dominators else ''}" for node in path
    )
    print(f"\nroute ({len(path) - 1} hops, shortest {shortest}; * = dominator):")
    print(f"  {annotated}\n")
    return 0


def cmd_broadcast(args) -> int:
    from repro.backbone import build

    graph = _build(args)
    if args.source not in graph:
        print(f"error: source {args.source} is not in the deployment "
              f"(n={graph.num_nodes})", file=sys.stderr)
        return 2
    result = build("algorithm2", graph)
    flood = blind_flood(graph, args.source)
    backbone = backbone_broadcast(graph, result, args.source)
    print_table(
        [
            {"scheme": "blind flooding", "transmissions": flood.transmissions,
             "coverage": flood.full_coverage},
            {"scheme": "WCDS backbone", "transmissions": backbone.transmissions,
             "coverage": backbone.full_coverage},
        ],
        title=f"Broadcast from node {args.source} (n={graph.num_nodes})",
    )
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import greedy_cds, greedy_wcds, mis_tree_cds, wu_li_cds

    from repro.backbone import build

    graph = _build(args)
    alg1 = build("algorithm1", graph)
    alg2 = build("algorithm2", graph)
    rows = [
        {"algorithm": "Algorithm I (WCDS)", "size": alg1.size, "localized": "no (election)"},
        {"algorithm": "Algorithm II (WCDS)", "size": alg2.size, "localized": "yes"},
        {"algorithm": "greedy WCDS [8]", "size": greedy_wcds(graph).size, "localized": "no (global)"},
        {"algorithm": "MIS-tree CDS", "size": len(mis_tree_cds(graph)), "localized": "no"},
        {"algorithm": "greedy CDS", "size": len(greedy_cds(graph)), "localized": "no (global)"},
        {"algorithm": "Wu-Li CDS [16]", "size": len(wu_li_cds(graph)), "localized": "yes"},
    ]
    print_table(rows, title=f"Backbone sizes (n={graph.num_nodes}, seed={args.seed})")
    return 0


def cmd_experiment(args) -> int:
    import repro.experiments as experiments

    if args.markdown and not args.all:
        print("error: --markdown needs --all", file=sys.stderr)
        return 2
    if args.list and args.all:
        print("error: --list and --all cannot be combined", file=sys.stderr)
        return 2
    if args.ids and (args.list or args.all):
        flag = "--list" if args.list else "--all"
        print(
            f"error: {flag} cannot be combined with experiment ids "
            f"({' '.join(args.ids)})",
            file=sys.stderr,
        )
        return 2
    if args.all:
        from repro.analysis.report import generate_report

        report = generate_report()
        if args.markdown:
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"wrote report to {args.markdown}")
        else:
            print(report)
        return 0
    if args.list or not args.ids:
        rows = [
            {
                "id": exp.experiment_id,
                "title": exp.title,
            }
            for exp in experiments.all_experiments()
        ]
        print_table(rows, title="Registered experiments (see DESIGN.md)")
        return 0
    for experiment_id in args.ids:
        try:
            exp = experiments.get(experiment_id)
        except KeyError:
            known = ", ".join(sorted(experiments.REGISTRY))
            print(
                f"error: unknown experiment {experiment_id!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        rows = exp.run()
        print_table(rows, title=f"{exp.experiment_id}: {exp.title}")
        exp.check(rows)
        print(f"claim verified: {exp.claim}\n")
    return 0


def cmd_figures(args) -> int:
    import os

    from repro import paper_figure2_udg
    from repro.viz import draw_udg, draw_wcds
    from repro.wcds import WCDSResult

    os.makedirs(args.outdir, exist_ok=True)
    graph = _build(args)
    from repro.backbone import build

    draw_udg(graph).save(os.path.join(args.outdir, "udg.svg"))
    result = build("algorithm2", graph)
    draw_wcds(graph, result).save(os.path.join(args.outdir, "wcds_spanner.svg"))
    fig2 = paper_figure2_udg()
    fig2_result = WCDSResult(
        dominators=frozenset({1, 2}), mis_dominators=frozenset({1, 2})
    )
    draw_wcds(fig2, fig2_result, labels=True).save(
        os.path.join(args.outdir, "figure2.svg")
    )
    print(f"wrote 3 SVG files to {args.outdir}")
    return 0


def _deployment_side(graph, args) -> float:
    """The deployment square's side: from --side, or (for --load) the
    extent of the loaded positions."""
    if not getattr(args, "load", None):
        return args.side
    extent = 0.0
    for pos in graph.positions.values():
        extent = max(extent, pos.x, pos.y)
    return max(extent, 1.0)


def cmd_serve(args) -> int:
    import json

    from repro.mobility import RandomWaypointModel
    from repro.obs.flightrec import FlightRecorder, set_flight_recorder
    from repro.service import (
        BackboneService,
        ServiceConfig,
        WorkloadConfig,
        WorkloadGenerator,
        load_trace,
        replay,
    )

    graph = _build(args)
    try:
        config = ServiceConfig(
            default_deadline=args.deadline,
            tile_size=args.tile_size,
            slos=_parse_slos(args),
        )
        workload = None if args.requests else WorkloadConfig(
            queries=args.queries,
            zipf_exponent=args.zipf,
            churn_every=args.churn_every,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.requests:
        try:
            requests = load_trace(args.requests)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load trace {args.requests}: {exc}", file=sys.stderr)
            return 2
        source = args.requests
    else:
        generator = WorkloadGenerator(sorted(graph.nodes(), key=repr), workload)
        requests = list(generator.requests())
        source = f"synthetic workload ({args.queries} queries)"
    recorder = None
    if args.flight_dump:
        recorder = FlightRecorder(process="main", dump_path=args.flight_dump)
        set_flight_recorder(recorder)
    service = BackboneService(graph, config)
    mobility = RandomWaypointModel(
        graph,
        _deployment_side(graph, args),
        speed_range=(0.01, 0.05),
        seed=args.seed,
    )
    summary = replay(service, requests, mobility=mobility)
    print_table(
        [
            {
                "requests": len(requests),
                "responses": summary.responses,
                "ok": summary.ok,
                "errors": summary.errors,
                "stale": summary.stale,
                "rejected": summary.rejected,
                "churn_steps": summary.churn_steps,
            }
        ],
        title=f"Replay of {source}",
    )
    print_table(service.metrics.rows(), title="Latency (microseconds)")
    monitor = service.slo_monitor
    if monitor is not None:
        print_table(_slo_rows(monitor), title="SLO burn rates")
    if recorder is not None and recorder.dumps_written:
        print(
            f"flight recorder dumped {recorder.dumps_written} artifact(s) "
            f"to {recorder.dump_path}"
        )
    payload = json.dumps(summary.metrics, indent=2)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote metrics to {args.metrics}")
    else:
        print(payload)
    _emit_telemetry(args, service.metrics.registry, command="serve")
    return 0 if monitor is None or monitor.ok() else 1


def cmd_obs_report(args) -> int:
    from repro.obs import MetricsRegistry, Tracer, measure_message_costs

    if not args.telemetry:
        args.telemetry = "json"  # a report always emits
    try:
        sizes = sorted(int(item) for item in args.sizes.split(","))
    except ValueError:
        print(f"error: --sizes must be a comma list of ints, got {args.sizes!r}",
              file=sys.stderr)
        return 2
    if any(n <= 0 for n in sizes) or not sizes:
        print("error: --sizes entries must be positive", file=sys.stderr)
        return 2
    tracer, registry = Tracer(), MetricsRegistry()
    report = measure_message_costs(
        args.algorithm, sizes, seed=args.seed, slack=args.slack,
        tracer=tracer, registry=registry,
    )
    bound = "n*log2(n)" if args.algorithm == "1" else "n"
    print_table(
        report.rows(),
        title=(
            f"Algorithm {args.algorithm} message costs vs Theorem 12 "
            f"envelope ({bound}, slack {args.slack})"
        ),
    )
    phase_rows = []
    for root in tracer.find(f"algorithm{args.algorithm}"):
        for child in root.children:
            phase_rows.append(
                {
                    "n": root.attrs.get("n"),
                    "phase": child.name,
                    "messages": child.attrs.get("messages", 0),
                    "wall_ms": round(child.duration * 1e3, 2),
                }
            )
    if phase_rows:
        print_table(phase_rows, title="Per-phase spans")
    verdict = "within envelope" if report.ok else "ENVELOPE VIOLATED"
    print(f"message exponent {report.message_exponent:.3f} "
          f"(limit {report.to_dict()['exponent_limit']}): {verdict}")
    _emit_telemetry(args, registry, tracer,
                    command="obs-report", report=report.to_dict())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    import json

    from repro.faults import CHAOS_ALGORITHMS, default_fault_plan, run_chaos
    from repro.sim.config import SimConfig

    if args.quick:
        nodes, side = 40, 5.0
        seeds = (7, 8)
        loss, crashes, partition = 0.15, 1, True
    else:
        nodes, side = args.nodes, args.side
        if args.seeds:
            try:
                seeds = tuple(int(s) for s in args.seeds.split(","))
            except ValueError:
                print(f"error: --seeds must be a comma list of ints, "
                      f"got {args.seeds!r}", file=sys.stderr)
                return 2
        else:
            seeds = (args.seed,)
        loss, crashes, partition = args.loss, args.crashes, not args.no_partition
    if args.algorithm == "both":
        algorithms = CHAOS_ALGORITHMS
    else:
        algorithms = (_algorithm_name(args.algorithm),)
    plan_template = None
    if args.plan:
        try:
            plan_template = _read_fault_plan(args.plan, "--plan")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rows = []
    reports = []
    failed = False
    for seed in seeds:
        graph = _deployment(nodes, side, seed)
        plan = plan_template or default_fault_plan(
            graph, loss=loss, crashes=crashes, partition=partition, seed=seed
        )
        for algorithm in algorithms:
            report = run_chaos(
                algorithm, graph, plan,
                sim=SimConfig(seed=seed, transport=True),
                max_epochs=args.max_epochs,
            )
            reports.append(report)
            failed = failed or not report.valid
            rows.append(
                {
                    "algorithm": report.algorithm,
                    "seed": seed,
                    "nodes": report.nodes,
                    "survivors": report.survivor_count,
                    "valid": report.valid,
                    "epochs": report.epochs,
                    "backbone": len(report.dominators),
                    "messages": report.messages_total,
                    "retransmits": report.retransmissions,
                }
            )
    if args.format == "json":
        print(json.dumps([report.summary() for report in reports], indent=2))
    else:
        print_table(rows, title="Chaos matrix (WCDS validity on survivors)")
        for report in reports:
            for note in report.notes:
                print(f"  note [{report.algorithm} seed={report.seed}]: {note}")
    return 1 if failed else 0


def cmd_montecarlo(args) -> int:
    import json

    from repro.analysis import aggregate_rows
    from repro.backbone import get
    from repro.sim.fleet import BackboneTrial, run_fleet

    algorithm = _algorithm_name(args.algorithm)
    if args.transport and not get(algorithm).distributed:
        # Checked here, not in the trial: a worker cannot report it.
        print(f"error: {algorithm} is centralized; --transport only applies "
              "to distributed simulations", file=sys.stderr)
        return 2
    graph = _build(args)
    trial = BackboneTrial(
        algorithm=algorithm,
        jitter=args.jitter,
        transport=args.transport,
    )
    seeds = range(args.first_seed, args.first_seed + args.trials)
    aggregates = aggregate_rows(
        run_fleet(graph, trial, seeds, workers=args.workers)
    )
    if args.format == "json":
        print(json.dumps(
            {key: vars(agg) for key, agg in aggregates.items()}, indent=2
        ))
        return 0
    print_table(
        [
            {
                "metric": key,
                "mean": round(agg.mean, 3),
                "std": round(agg.std, 3),
                "min": agg.minimum,
                "max": agg.maximum,
                "trials": agg.count,
            }
            for key, agg in sorted(aggregates.items())
        ],
        title=f"Monte-Carlo sweep ({_algorithm_label(args.algorithm)}, "
        f"n={graph.num_nodes})",
    )
    return 0


def cmd_opt_ratio(args) -> int:
    """Measure empirical approximation ratios against certified optima."""
    import json

    from repro.opt import certified_optimum, measure_ratios, ratio_report

    graph = _build(args)
    try:
        certificate = certified_optimum(
            graph, args.problem, exact_nodes=args.exact_nodes, lp=args.lp
        )
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seeds = range(args.first_seed, args.first_seed + args.trials)
    results = measure_ratios(
        graph,
        seeds,
        algorithms=args.algorithms,
        problem=args.problem,
        certificate=certificate,
        workers=args.workers,
    )
    report = ratio_report(graph, results)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote ratio table to {args.json_out}")
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        cert = certificate.to_dict()
        verdict = (
            f"optimum {cert['optimum']}" if cert["certified"]
            else f"sandwich [{cert['lower']}, {cert['upper']}]"
        )
        print_table(
            report["algorithms"],
            title=f"Empirical ratios vs {args.problem} {verdict} "
            f"({cert['method']}, n={graph.num_nodes})",
        )
    violations = [
        row["algorithm"] for row in report["algorithms"]
        if not row["within_envelope"]
    ]
    for name in violations:
        print(
            f"ENVELOPE VIOLATED: {name} exceeded its proven ratio bound",
            file=sys.stderr,
        )
    return 1 if violations else 0


def cmd_check(args) -> int:
    import json

    from repro.check import (
        CheckConfig,
        DEFAULT_PATHS,
        FORMATTERS,
        has_errors,
        lint_paths,
        registry,
    )

    if args.list_rules:
        rows = [
            {
                "rule": rule.code,
                "severity": rule.severity,
                "name": rule.name,
                "scope": ", ".join(rule.scope) if rule.scope else "(all files)",
            }
            for _, rule in sorted(registry().items())
        ]
        print_table(
            rows, title="Determinism lint rules (suppress: # repro: noqa[RULE])"
        )
        return 0

    if args.protocol_graph:
        from repro.check import GRAPH_FORMATS, build_protocol_graph

        graph = build_protocol_graph(
            tuple(args.paths) or None  # None -> the protocol module set
        )
        sys.stdout.write(GRAPH_FORMATS[args.protocol_graph](graph))
        return 0

    known = set(registry())
    requested = tuple(code.upper() for code in (args.rule or ()))
    unknown = [code for code in requested if code not in known]
    if unknown:
        print(
            f"error: unknown rule(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2

    failed = False
    config = CheckConfig(
        rule_codes=requested, enforce_scopes=not args.no_scopes
    )
    violations = lint_paths(tuple(args.paths) or DEFAULT_PATHS, config=config)
    output = FORMATTERS[args.format](violations)
    if output:
        print(output)
    if has_errors(violations):
        failed = True

    reports = []
    if args.races:
        from repro.check import check_protocols

        graph = _deployment(args.nodes, args.side, args.seed)
        reports.extend(
            check_protocols(graph, perturbations=args.perturbations)
        )
        if any(not report.ok for report in reports):
            failed = True
    if reports:
        if args.format == "json":
            print(json.dumps(
                {"races": [report.to_dict() for report in reports]}, indent=2
            ))
        else:
            for report in reports:
                print(report.format())
    if args.sanitize:
        from repro.check import probe_worker_protection, verify_protocols

        sanitize_report = verify_protocols()
        probe = probe_worker_protection()
        if args.format == "json":
            payload = sanitize_report.to_dict()
            payload["worker_write_probe"] = probe
            print(json.dumps({"sanitize": payload}, indent=2))
        else:
            print(sanitize_report.format())
            print(f"worker write probe: {probe or 'WRITE WENT THROUGH'}")
        if not sanitize_report.ok or probe is None:
            failed = True
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WCDS and sparse spanners in wireless ad hoc networks "
        "(Alzoubi, Wan, Frieder - ICDCS 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="generate a deployment and print stats")
    _add_topology_args(p)
    p.add_argument("--positions", action="store_true", help="dump node positions")
    p.add_argument("--save", metavar="FILE", help="save the topology as JSON")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("wcds", help="construct a WCDS backbone")
    _add_topology_args(p)
    p.add_argument(
        "--algorithm", default="2", type=_algorithm_arg,
        help="1, 2, or any registered backbone algorithm name "
        "(see repro.backbone.names())",
    )
    p.add_argument("--list", action="store_true", help="print the dominator ids")
    _add_sim_args(p)
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_wcds)

    p = sub.add_parser("route", help="route a packet over the backbone")
    _add_topology_args(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("broadcast", help="flooding vs backbone broadcast")
    _add_topology_args(p)
    p.add_argument("--source", type=int, default=0)
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("compare", help="all algorithms side by side")
    _add_topology_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="run registered paper experiments")
    p.add_argument("ids", nargs="*", help="experiment ids (e.g. F3 T11)")
    p.add_argument("--list", action="store_true", help="list experiments")
    p.add_argument("--all", action="store_true", help="run every experiment")
    p.add_argument("--markdown", help="with --all: write a markdown report here")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("figures", help="render SVG figures")
    _add_topology_args(p)
    p.add_argument("--outdir", default="figures")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "serve", help="replay a request trace through the backbone service"
    )
    _add_topology_args(p)
    p.add_argument(
        "--requests", metavar="FILE",
        help="JSONL request trace (default: a generated zipfian workload)",
    )
    p.add_argument("--queries", type=int, default=500,
                   help="synthetic workload size when no trace is given")
    p.add_argument("--churn-every", type=int, default=100,
                   help="synthetic workload: churn marker every N queries")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="zipf exponent of the node popularity distribution")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the metrics JSON here instead of stdout")
    p.add_argument("--tile-size", type=float, default=8.0,
                   help="side of the tiles the backbone is maintained in, "
                   "in radio-radius units")
    p.add_argument("--flight-dump", metavar="FILE",
                   help="arm a flight recorder that dumps its ring here "
                   "on deadline miss or fault")
    _add_slo_args(p)
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "obs-report",
        help="measure per-phase message costs against the Theorem 12 "
        "envelopes (exit 1 on violation)",
    )
    p.add_argument("--algorithm", choices=["1", "2"], default="1")
    p.add_argument("--sizes", default="100,200,400",
                   help="comma list of network sizes to sweep")
    p.add_argument("--seed", type=int, default=7, help="random seed")
    p.add_argument("--slack", type=_positive_float, default=1.75,
                   help="headroom factor over the calibrated envelope")
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_obs_report)

    p = sub.add_parser(
        "chaos",
        help="run the paper's algorithms under loss/crash/partition "
        "faults and verify WCDS validity on the survivors (exit 1 on "
        "an invalid backbone)",
    )
    p.add_argument("--algorithm", choices=["1", "2", "both"], default="both")
    p.add_argument("--nodes", type=_positive_int, default=60, help="number of radios")
    p.add_argument("--side", type=_positive_float, default=6.0, help="square side length")
    p.add_argument("--seed", type=int, default=7, help="topology + schedule seed")
    p.add_argument("--seeds", metavar="LIST",
                   help="comma list of seeds (overrides --seed)")
    p.add_argument("--loss", type=_loss_probability, default=0.1,
                   help="loss-burst probability in [0, 1) during the early phases")
    p.add_argument("--crashes", type=_nonnegative_int, default=2,
                   help="mid-phase crash count (victims keep survivors connected)")
    p.add_argument("--no-partition", action="store_true",
                   help="skip the healed-partition fault")
    p.add_argument("--plan", metavar="FILE",
                   help="JSON fault plan overriding the generated one")
    p.add_argument("--max-epochs", type=_positive_int, default=3,
                   help="restart budget before declaring failure")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: 40 nodes, two seeds, loss 0.15, one crash")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "montecarlo",
        help="sweep a backbone algorithm over many protocol seeds on "
        "one topology via the fleet runner and print the aggregates",
    )
    _add_topology_args(p)
    p.add_argument(
        "--algorithm", default="2", type=_algorithm_arg,
        help="1, 2, or any registered backbone algorithm name",
    )
    p.add_argument("--trials", type=_positive_int, default=32,
                   help="number of protocol seeds to sweep")
    p.add_argument("--first-seed", type=int, default=0,
                   help="first protocol seed (trials run seeds "
                   "first-seed .. first-seed+trials-1)")
    p.add_argument("--jitter", action="store_true",
                   help="draw per-seed jittered latencies instead of the "
                   "fixed unit delay (perturbs schedules, not results)")
    p.add_argument("--transport", action="store_true",
                   help="run over the reliable ack/retransmit transport")
    p.add_argument("--workers", type=_nonnegative_int, default=None,
                   help="fleet worker processes (0 = inline, default: "
                   "cpu count - 1 capped at 8)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser(
        "opt-ratio",
        help="measure empirical approximation ratios against certified "
        "optima from the LP-strengthened oracle (exit 1 when a measured "
        "ratio exceeds its Theorem 5/10 envelope)",
    )
    _add_topology_args(p)
    p.add_argument(
        "--problem", choices=["mds", "wcds", "cds"], default="wcds",
        help="which optimum to certify and rate against",
    )
    p.add_argument(
        "--algorithms", default="algorithm1,algorithm2", metavar="LIST",
        type=_algorithm_list_arg,
        help="comma list of registry algorithms to sweep",
    )
    p.add_argument(
        "--exact-nodes", type=int, default=60,
        help="run the exact branch & bound up to this many nodes; "
        "bigger deployments get a heuristic bound sandwich",
    )
    p.add_argument(
        "--lp", choices=["auto", "on", "off"], default="auto",
        help="LP-strengthened pruning: on (requires scipy), off "
        "(combinatorial bounds only, bit-identical optima), or auto",
    )
    p.add_argument("--trials", type=_positive_int, default=8,
                   help="number of protocol seeds to sweep per algorithm")
    p.add_argument("--first-seed", type=int, default=0,
                   help="first protocol seed")
    p.add_argument("--workers", type=_nonnegative_int, default=None,
                   help="fleet worker processes (0 = inline)")
    p.add_argument("--json-out", metavar="FILE",
                   help="also write the JSON ratio table here (CI artifact)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_opt_ratio)

    p = sub.add_parser(
        "check",
        help="determinism lint (rules D1-D5) and schedule-race detection "
        "(exit 1 on findings)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro benchmarks)",
    )
    p.add_argument(
        "--rule", action="append", metavar="CODE",
        help="run only this rule (repeatable, e.g. --rule D1 --rule D5)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "github"], default="text",
        help="finding output format (github = workflow annotations)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list the rule catalogue"
    )
    p.add_argument(
        "--no-scopes", action="store_true",
        help="ignore the rules' path scoping (lint arbitrary files, e.g. "
        "the fixture corpus)",
    )
    p.add_argument(
        "--protocol-graph", choices=["dot", "json"], metavar="FMT",
        help="print the static message-flow graph (dot or json) of the "
        "given paths (default: the protocol module set) and exit",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="run Algorithms I/II under the runtime sanitizer (kind "
        "alphabet must match the static graph) and probe that spawn "
        "workers cannot write the shared position block",
    )
    p.add_argument(
        "--races", action="store_true",
        help="also re-run Algorithm I/II and the MIS protocol under "
        "perturbed delivery schedules and diff the invariants",
    )
    p.add_argument("--nodes", type=_positive_int, default=50,
                   help="race sweep: number of radios")
    p.add_argument("--side", type=_positive_float, default=5.0,
                   help="race sweep: square side length")
    p.add_argument("--seed", type=int, default=7,
                   help="race sweep: topology seed")
    p.add_argument("--perturbations", type=_positive_int, default=5,
                   help="schedule perturbations per protocol")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
