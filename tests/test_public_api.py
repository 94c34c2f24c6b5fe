"""Public API surface tests.

Broken re-exports are the classic refactoring casualty; this pins the
promised import surface of the top-level package and each subpackage.
"""

import importlib

import pytest

import repro


class TestTopLevelSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        assert repro.__version__

    def test_headline_entry_points(self):
        # The four names the README quickstart uses.
        for name in (
            "connected_random_udg",
            "algorithm2_distributed",
            "ClusterheadRouter",
            "is_weakly_connected_dominating_set",
        ):
            assert name in repro.__all__

    def test_removed_tuple_shim_stays_gone(self):
        # ``distributed_mis`` finished its deprecation cycle: ``run_mis``
        # is the one entry point.
        import repro.mis

        assert "distributed_mis" not in repro.__all__
        assert not hasattr(repro.mis, "distributed_mis")

    def test_one_ranking_format(self):
        # A ranking is a node -> int position dict built by
        # ``repro.mis.ranking``: the tuple alias and the unused static
        # degree ranking are gone.
        import repro.mis
        import repro.mis.ranking

        assert not hasattr(repro.mis, "degree_ranking")
        assert not hasattr(repro.mis.ranking, "degree_ranking")
        assert not hasattr(repro.mis.ranking, "Rank")

    def test_finished_aliases_stay_gone(self):
        # ``Histogram``, ``bfs_distances`` and ``sim=SimConfig(...)``
        # are the one name for each; their aliases and the loose-kwarg
        # folds were removed.
        import dataclasses

        import repro.graphs
        import repro.obs
        import repro.service
        import repro.sim.config

        assert not hasattr(repro.obs, "LatencyHistogram")
        assert not hasattr(repro.service, "LatencyHistogram")
        assert not hasattr(repro.graphs, "bfs_levels")
        assert not hasattr(repro.sim.config, "coerce_sim_config")
        assert not hasattr(repro.sim.config, "merge_entry_args")
        # The backbone answers from the service's snapshot; the
        # content-addressed cache and the unread ``sim`` knob are gone.
        assert not hasattr(repro.service, "BackboneCache")
        assert not hasattr(repro.service, "topology_fingerprint")
        fields = dataclasses.fields(repro.service.ServiceConfig)
        assert "sim" not in {field.name for field in fields}

    def test_engine_resolver_stays_gone(self):
        # One size rule (``use_vector``) picks every pure/vector twin;
        # the ``"pure"``/``"vector"``/``"auto"`` resolver is gone.
        import repro.kernels

        assert not hasattr(repro.kernels, "resolve_method")
        assert "resolve_method" not in repro.kernels.__all__
        assert "use_vector" in repro.kernels.__all__

    def test_duplicate_sweeps_and_engine_knobs_stay_gone(self):
        # run_fleet is the one seed sweep and SimConfig.engine the one
        # engine switch.
        import dataclasses
        import inspect

        import repro.analysis
        import repro.analysis.sweep
        import repro.cli
        import repro.faults.chaos
        import repro.opt
        import repro.opt.ratio
        from repro.sim.fleet import BackboneTrial, ChaosTrial

        with pytest.raises(ImportError):
            importlib.import_module("repro.analysis.montecarlo")
        for module, name in (
            (repro.analysis, "monte_carlo"),
            (repro.analysis, "run_trials"),
            (repro.analysis, "summarize"),
            (repro.analysis.sweep, "run_trials"),
            (repro.analysis.sweep, "summarize"),
            (repro.faults.chaos, "run_chaos_matrix"),
            (repro.opt, "RatioTrial"),
            (repro.opt.ratio, "RatioTrial"),
            (repro.cli, "_add_engine_arg"),
        ):
            assert not hasattr(module, name), name
            assert name not in getattr(module, "__all__", ()), name
        assert "aggregate_rows" in repro.analysis.__all__
        for trial in (BackboneTrial, ChaosTrial):
            assert "engine" not in {f.name for f in dataclasses.fields(trial)}
        for fn in (repro.opt.measure_ratios, repro.opt.ratio._sweep_sizes):
            assert "engine" not in inspect.signature(fn).parameters

    def test_sim_settings_have_one_setter(self):
        # SimConfig is the one place a simulation setting is set: the
        # transport's tunables, build()'s seed/transport shortcuts,
        # run(max_events=) and the "auto" engine are gone.
        import inspect

        import repro.sim
        import repro.sim.batched
        import repro.transport
        from repro.backbone import build
        from repro.sim import SimConfig, Simulator

        assert not hasattr(repro.transport, "TransportConfig")
        assert "TransportConfig" not in repro.transport.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.transport.config")
        for module in (repro.sim, repro.sim.batched):
            for name in ("resolve_engine", "ENGINES", "AUTO_THRESHOLD"):
                assert not hasattr(module, name), name
                assert name not in module.__all__, name
        assert not hasattr(SimConfig, "transport_config")
        params = inspect.signature(build).parameters
        assert "seed" not in params and "transport" not in params
        assert "max_events" not in inspect.signature(Simulator.run).parameters
        with pytest.raises(ValueError):
            SimConfig(engine="auto")

    def test_shard_bench_only_reexports_the_deployment(self):
        # The module keeps only the one name the benchmark suite
        # imports from it.
        import repro.graphs
        import repro.shard.bench

        assert repro.shard.bench.jittered_grid is repro.graphs.jittered_grid
        assert repro.shard.bench.__all__ == ["jittered_grid"]

    def test_one_pin_table(self):
        # The sharded backbone keeps one pin table; the per-tile pins and
        # the tiler's publisher lists that delivered them are gone.
        from repro.shard import Tiler
        from repro.shard.stitch import _Tile

        assert not hasattr(Tiler, "publishers")
        assert not hasattr(Tiler, "take_replaced_publishers")
        assert "pins" not in _Tile.__slots__
        assert not hasattr(_Tile(), "pins")

    def test_one_maintenance_engine(self):
        # ShardedBackbone is the one maintenance engine: the local
        # repair rule (MaintainedWCDS, its report and module), the
        # service's path to it, its rebuild threshold, the engine
        # switch, hop-radius invalidation and the global-service
        # baseline of the shard benchmark are gone.
        import dataclasses
        import inspect

        import repro.mobility
        import repro.service.service
        import repro.shard.bench

        assert not hasattr(repro, "MaintainedWCDS")
        assert not hasattr(repro.mobility, "MaintainedWCDS")
        assert not hasattr(repro.mobility, "MaintenanceReport")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.mobility.maintenance")

        source = inspect.getsource(repro.service.service)
        assert "repro.mobility.maintenance" not in source
        assert not hasattr(repro.service.service, "INVALIDATION_RADIUS")
        names = {f.name for f in dataclasses.fields(repro.service.ServiceConfig)}
        assert names == {"queue_capacity", "default_deadline", "tile_size", "slos"}
        assert not hasattr(repro.service.RouteCache, "invalidate_region")
        assert not hasattr(repro.shard.bench, "bench_global_baseline")


SUBPACKAGES = [
    "repro.geometry",
    "repro.graphs",
    "repro.kernels",
    "repro.sim",
    "repro.sim.batched",
    "repro.sim.fleet",
    "repro.election",
    "repro.mis",
    "repro.wcds",
    "repro.spanner",
    "repro.routing",
    "repro.baselines",
    "repro.mobility",
    "repro.analysis",
    "repro.experiments",
    "repro.viz",
    "repro.service",
    "repro.obs",
    "repro.check",
    "repro.workers",
    "repro.transport",
    "repro.faults",
    "repro.backbone",
    "repro.shard",
    "repro.opt",
]


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_imports_cleanly(self, package):
        module = importlib.import_module(package)
        assert module is not None

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_all_entries_exist(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()


class TestCliEntryPoint:
    def test_module_main_importable(self):
        from repro.cli import main

        assert callable(main)
