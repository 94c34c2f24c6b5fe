"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["topology"])
        assert args.nodes == 150 and args.side == 8.0 and args.seed == 7

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wcds", "--algorithm", "3"])


class TestCommands:
    def _run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_topology(self, capsys):
        code, out = self._run(["topology", "--nodes", "30", "--side", "4"], capsys)
        assert code == 0
        assert "Topology" in out and "30" in out

    def test_topology_positions(self, capsys):
        code, out = self._run(
            ["topology", "--nodes", "10", "--side", "3", "--positions"], capsys
        )
        assert code == 0
        # 10 position lines, tab separated.
        assert sum(1 for line in out.splitlines() if "\t" in line) == 10

    @pytest.mark.parametrize("algorithm", ["1", "2"])
    def test_wcds(self, capsys, algorithm):
        code, out = self._run(
            ["wcds", "--nodes", "40", "--side", "4.5", "--algorithm", algorithm],
            capsys,
        )
        assert code == 0
        assert f"Algorithm {algorithm}" in out

    @pytest.mark.parametrize("algorithm", ["mis", "mds-exact"])
    def test_wcds_dominating_only_algorithms(self, capsys, algorithm):
        # Registered as dominating but not necessarily weakly connected:
        # validated as dominating sets, not as WCDSs.
        code, out = self._run(
            ["wcds", "--nodes", "40", "--side", "5", "--algorithm", algorithm],
            capsys,
        )
        assert code == 0
        assert algorithm in out

    def test_wcds_sim_flags_on_a_centralized_algorithm(self, capsys):
        # Transport and faults only apply to distributed simulations:
        # a usage error, not a traceback.
        code = main(["wcds", "--nodes", "30", "--side", "4",
                     "--algorithm", "greedy-wcds", "--transport"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "centralized" in err

    def test_montecarlo_transport_on_a_centralized_algorithm(self, capsys):
        code = main(["montecarlo", "--algorithm", "greedy-wcds", "--transport",
                     "--nodes", "30", "--side", "4", "--trials", "2",
                     "--workers", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "centralized" in err

    @pytest.mark.parametrize(
        "argv",
        [["wcds", "--nodes", "30", "--side", "4", "--fault-plan"],
         ["chaos", "--quick", "--plan"]],
        ids=["wcds", "chaos"],
    )
    def test_missing_fault_plan_file(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.json")
        code = main([*argv, missing])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    def test_wcds_list(self, capsys):
        code, out = self._run(
            ["wcds", "--nodes", "30", "--side", "4", "--list"], capsys
        )
        assert code == 0
        assert "dominators:" in out

    def test_wcds_telemetry_json(self, capsys):
        import json

        code, out = self._run(
            ["wcds", "--nodes", "30", "--side", "4", "--algorithm", "1",
             "--telemetry", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["command"] == "wcds"
        assert "sim_messages_total{kind=ELECT}" in payload["metrics"]["counters"]
        assert payload["spans"][0]["name"] == "algorithm1"
        phases = [c["name"] for c in payload["spans"][0]["children"]]
        assert phases == ["election", "levels", "marking"]

    def test_wcds_telemetry_prom_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "metrics.prom"
        code, out = self._run(
            ["wcds", "--nodes", "30", "--side", "4",
             "--telemetry", "prom", "--telemetry-out", str(out_file)],
            capsys,
        )
        assert code == 0
        text = out_file.read_text()
        assert "# TYPE sim_messages_total counter" in text
        assert 'protocol_phase_messages_total{algorithm="2",phase="marking"}' in text

    def test_obs_report_json(self, capsys):
        import json

        code, out = self._run(
            ["obs-report", "--algorithm", "1", "--sizes", "40,80", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "Per-phase spans" in out
        payload = json.loads(out[out.index("{"):])
        report = payload["report"]
        assert report["ok"] is True
        assert [s["n"] for s in report["samples"]] == [40, 80]
        assert "election" in report["samples"][0]["per_phase"]

    def test_obs_report_prometheus(self, capsys):
        code, out = self._run(
            ["obs-report", "--algorithm", "2", "--sizes", "40,80",
             "--telemetry", "prom"],
            capsys,
        )
        assert code == 0
        assert 'cost_within_envelope{algorithm="2"} 1' in out
        assert "# TYPE cost_messages gauge" in out

    def test_obs_report_jsonl_appends(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "obs.jsonl"
        for _ in range(2):
            code, _ = self._run(
                ["obs-report", "--sizes", "40,80", "--telemetry", "jsonl",
                 "--telemetry-out", str(out_file)],
                capsys,
            )
            assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["report"]["ok"] is True
            assert "metrics" in record

    def test_obs_report_bad_sizes(self, capsys):
        assert main(["obs-report", "--sizes", "abc"]) == 2

    def test_route(self, capsys):
        code, out = self._run(
            ["route", "--nodes", "40", "--side", "4.5", "--src", "0", "--dst", "39"],
            capsys,
        )
        assert code == 0
        assert "route (" in out

    def test_route_bad_node(self, capsys):
        code = main(
            ["route", "--nodes", "10", "--side", "3", "--src", "0", "--dst", "999"]
        )
        assert code == 2

    def test_broadcast_rejects_a_source_outside_the_deployment(self, capsys):
        code = main(["broadcast", "--nodes", "10", "--side", "3",
                     "--source", "9999"])
        assert code == 2
        assert "error: source 9999 is not in the deployment" in (
            capsys.readouterr().err
        )

    def test_broadcast(self, capsys):
        code, out = self._run(["broadcast", "--nodes", "50", "--side", "5"], capsys)
        assert code == 0
        assert "blind flooding" in out and "WCDS backbone" in out

    def test_compare(self, capsys):
        code, out = self._run(["compare", "--nodes", "30", "--side", "4"], capsys)
        assert code == 0
        for name in ("Algorithm I", "Algorithm II", "Wu-Li"):
            assert name in out

    def test_experiment_list(self, capsys):
        code, out = self._run(["experiment", "--list"], capsys)
        assert code == 0
        for experiment_id in ("F3", "T11", "M1"):
            assert experiment_id in out

    def test_experiment_run(self, capsys):
        code, out = self._run(["experiment", "F2a"], capsys)
        assert code == 0
        assert "claim verified" in out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "ZZZ"]) == 2

    @pytest.mark.parametrize("ids", [["F3"], []])
    def test_experiment_markdown_needs_all(self, capsys, tmp_path, ids):
        path = tmp_path / "report.md"
        code = main(["experiment", "--markdown", str(path), *ids])
        assert code == 2
        assert "--all" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("flag", ["--list", "--all"])
    def test_experiment_ids_conflict_with_list_and_all(self, capsys, flag):
        assert main(["experiment", flag, "F3"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "F3" in captured.err
        assert captured.out == ""

    def test_experiment_list_and_all_conflict(self, capsys):
        assert main(["experiment", "--list", "--all"]) == 2
        captured = capsys.readouterr()
        assert "--list" in captured.err and "--all" in captured.err
        assert captured.out == ""

    def test_load_round_trip(self, capsys, tmp_path):
        # Save a deployment, then answer from the file: the loaded
        # topology must be bit-identical (same nodes, edges, backbone).
        path = str(tmp_path / "topo.json")
        code, out = self._run(
            ["topology", "--nodes", "30", "--side", "4", "--save", path], capsys
        )
        assert code == 0 and "saved topology" in out

        code, out = self._run(["topology", "--load", path], capsys)
        assert code == 0 and "30" in out

        code, out = self._run(["wcds", "--load", path, "--list"], capsys)
        assert code == 0 and "dominators:" in out

        from repro.graphs import connected_random_udg, load_topology
        from repro.wcds import algorithm2_distributed

        original = connected_random_udg(30, 4.0, seed=7)  # the CLI defaults
        loaded = load_topology(path)
        assert sorted(original.nodes()) == sorted(loaded.nodes())
        assert {frozenset(e) for e in original.edges()} == {
            frozenset(e) for e in loaded.edges()
        }
        expected = algorithm2_distributed(loaded).dominators
        printed = {
            int(token) for token in out.split("dominators:")[1].split()
        }
        assert printed == set(expected)

    def test_serve_synthetic_workload(self, capsys, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        code, out = self._run(
            [
                "serve", "--nodes", "40", "--side", "4.5",
                "--queries", "60", "--churn-every", "20",
                "--metrics", metrics_path,
            ],
            capsys,
        )
        assert code == 0
        assert "Replay of synthetic workload" in out
        import json

        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        assert set(metrics) == {"counters", "hit_rates", "latency_seconds"}
        assert metrics["counters"]["requests_total"] >= 60

    def test_serve_replays_trace_file(self, capsys, tmp_path):
        from repro.graphs import connected_random_udg
        from repro.service import WorkloadConfig, WorkloadGenerator, save_trace

        graph = connected_random_udg(30, 4.0, seed=7)  # the CLI defaults
        generator = WorkloadGenerator(
            sorted(graph.nodes()),
            WorkloadConfig(queries=40, churn_every=10, seed=3),
        )
        trace = str(tmp_path / "trace.jsonl")
        written = save_trace(generator.requests(), trace)
        code, out = self._run(
            ["serve", "--nodes", "30", "--side", "4", "--requests", trace],
            capsys,
        )
        assert code == 0
        assert f"Replay of {trace}" in out
        assert '"counters"' in out  # metrics JSON on stdout
        assert written > 40  # queries plus churn markers

    def test_serve_churn_after_a_join(self, capsys, tmp_path):
        # The mobility model meets a node that joined after it was
        # built: it gives the node its state instead of raising.
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"op": "join", "node": 999, "x": 1.0, "y": 1.0}\n'
            '{"op": "churn", "steps": 1}\n'
        )
        code, out = self._run(
            ["serve", "--nodes", "40", "--side", "4", "--requests", str(trace)],
            capsys,
        )
        assert code == 0
        assert '"counters"' in out

    @pytest.mark.parametrize(
        "flag", [["--loss", "0.1"], ["--transport"], ["--fault-plan", "plan.json"],
                 ["--engine", "event"]],
    )
    def test_serve_rejects_simulator_flags(self, capsys, flag):
        # The service never runs a simulator, so it takes no sim flags.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--nodes", "40", "--side", "4.5", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--rebuild-threshold", "0.3"], ["serve", "--shards", "0"]],
    )
    def test_removed_engine_flags_are_rejected(self, capsys, argv):
        # One maintenance engine: no rebuild threshold, no engine
        # switch, and no global service to compare the pool against.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--nodes", "40"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wcds", "chaos", "montecarlo", "opt-ratio"])
    def test_engine_flag_is_rejected(self, capsys, command):
        # SimConfig.engine is the one engine switch; no subcommand
        # takes one.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--engine", "event"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["montecarlo", "opt-ratio"])
    def test_negative_worker_count_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--nodes", "30", "--side", "4", "--trials", "2",
                  "--workers", "-1"])
        assert exit_info.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_serve_rejects_a_non_positive_tile_size(self, capsys):
        code = main(["serve", "--nodes", "40", "--side", "4.5",
                     "--tile-size", "0"])
        assert code == 2
        assert "tile_size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [(["--queries", "-1"], "queries must be non-negative"),
         (["--zipf", "-2"], "zipf_exponent must be non-negative")],
    )
    def test_serve_rejects_a_bad_workload(self, capsys, flag, message):
        # A usage error, not serve's exit 1 for a burning SLO budget.
        code = main(["serve", "--nodes", "40", "--side", "4.5", *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["shard-bench", "service-bench"])
    def test_removed_bench_subcommands_are_rejected(self, capsys, command):
        # The library carries no benchmark harness: these measurements
        # live in benchmarks/bench_shard_scaling.py and
        # benchmarks/bench_service_throughput.py.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--nodes", "40"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["slo"],
            ["obs-report", "--fleet", "1"],
            ["check", "--race-demo"],
            ["topology", "--kernels", "vector"],
        ],
        ids=["slo", "obs-report-fleet", "check-race-demo", "topology-kernels"],
    )
    def test_removed_surfaces_are_rejected(self, capsys, argv):
        # SLO verdicts come from `serve --slo-*`; the fleet harvest and
        # the racy fixture are gated by tests/test_shard_pool.py and
        # tests/test_check_races.py; both edge engines build one graph.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    @pytest.mark.parametrize("value", ["bogus", "1,bogus"])
    def test_opt_ratio_rejects_an_unknown_algorithm(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["opt-ratio", "--nodes", "20", "--side", "3",
                  "--trials", "1", "--workers", "0", "--algorithms", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown algorithm 'bogus'" in err and "greedy-wcds" in err

    def test_figures(self, capsys, tmp_path):
        outdir = str(tmp_path / "figs")
        code, out = self._run(
            ["figures", "--nodes", "20", "--side", "3.5", "--outdir", outdir], capsys
        )
        assert code == 0
        import os

        assert sorted(os.listdir(outdir)) == [
            "figure2.svg",
            "udg.svg",
            "wcds_spanner.svg",
        ]


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        '{"format": "mesh", "version": 1}',
        '{"format": "udg", "version": 1, "radius": 1.0,'
        ' "nodes": [{"id": 0, "x": 0.0, "y": 0.0}, {"id": 1, "x": NaN, "y": 0.0}]}',
    ],
    ids=["missing", "malformed", "format", "nan"],
)
def test_unreadable_topology_file(capsys, tmp_path, content):
    # A topology file that cannot be read is a usage error, not a
    # traceback: one line on stderr naming the file, exit 2.
    path = tmp_path / "topology.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["topology", "--load", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read topology {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["topology", "--nodes", "40"], ["chaos", "--nodes", "40"]],
    ids=["topology", "chaos"],
)
def test_too_sparse_deployment_is_a_usage_error(capsys, argv):
    # 40 nodes on the default 8 x 8 square never connect.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no connected UDG with n=40")
    assert "too sparse" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chaos", "--loss", "2"], "must be in [0, 1)"),
        (["chaos", "--loss", "1"], "must be in [0, 1)"),
        (["chaos", "--loss", "-0.5"], "must be in [0, 1)"),
        (["chaos", "--loss", "nan"], "must be in [0, 1)"),
        (["chaos", "--crashes", "-2"], "must be at least 0"),
        (["chaos", "--max-epochs", "0"], "must be at least 1"),
        (["chaos", "--max-epochs", "-1"], "must be at least 1"),
    ],
)
def test_chaos_fault_inputs_are_validated_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["montecarlo", "--trials", "0"], "must be at least 1"),
        (["opt-ratio", "--trials", "0"], "must be at least 1"),
        (["check", "--races", "--perturbations", "0"], "must be at least 1"),
        (["check", "--races", "--perturbations", "-1"], "must be at least 1"),
        (["obs-report", "--slack", "-1"], "must be positive and finite"),
        (["obs-report", "--slack", "0"], "must be positive and finite"),
        (["obs-report", "--slack", "nan"], "must be positive and finite"),
    ],
)
def test_counts_and_factors_are_validated_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("deadline", ["-1", "0", "nan", "inf"])
def test_serve_rejects_a_deadline_that_is_not_positive(capsys, deadline):
    code = main(["serve", "--nodes", "40", "--side", "4.5",
                 "--deadline", deadline])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: default_deadline must be positive and finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["topology", "--nodes", "0"],
        ["topology", "--nodes", "-3"],
        ["topology", "--side", "-2"],
        ["topology", "--side", "0"],
        ["wcds", "--side", "nan"],
        ["wcds", "--side", "inf"],
        ["chaos", "--nodes", "-1"],
        ["check", "--side", "nan"],
    ],
)
def test_deployment_size_is_validated_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err or "must be positive and finite" in err
