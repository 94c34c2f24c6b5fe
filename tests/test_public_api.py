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
