"""Tests for the runtime sanitizer (repro.check.sanitize).

Covers the recorder patching, the runtime-vs-static alphabet diff in
both directions, the end-to-end protocol verification, and the
spawn-boundary write protection (a worker-side store into the shared
position array must raise while the sanitizer is armed).
"""

import os

import pytest

from repro.check import (
    RuntimeAlphabet,
    SanitizeReport,
    diff_alphabet,
    probe_worker_protection,
    sanitized,
    sanitizer_enabled,
    verify_protocols,
)
from repro.check.sanitize import ENV_FLAG
from repro.graphs import connected_random_udg

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rows_handler(env, message):
    """A handler that writes its rows on ``write`` and returns them."""
    if message[0] == "write":
        env.array[0, 0] = -1.0
    return ("rows", env.array.tolist())


class TestRecorder:
    def test_env_flag_scoped_to_the_block(self):
        assert not sanitizer_enabled()
        with sanitized():
            assert sanitizer_enabled()
        assert not sanitizer_enabled()

    def test_simulator_patch_is_reverted(self):
        from repro.sim.engine import Simulator

        init, transmit = Simulator.__init__, Simulator.transmit
        with sanitized():
            assert Simulator.__init__ is not init
        assert Simulator.__init__ is init
        assert Simulator.transmit is transmit

    def test_records_mis_kind_alphabet(self):
        from repro.mis.distributed import run_mis

        graph = connected_random_udg(20, 3.0, seed=5)
        with sanitized() as recorder:
            run_mis(graph)
        kinds = recorder.kinds_by_module()["repro.mis.distributed"]
        assert {"BLACK", "GRAY"} <= kinds

    def test_recorder_accumulates_across_blocks(self):
        from repro.mis.distributed import run_mis

        graph = connected_random_udg(20, 3.0, seed=5)
        recorder = RuntimeAlphabet()
        with sanitized(recorder):
            run_mis(graph)
        with sanitized(recorder) as again:
            run_mis(graph)
        assert again is recorder
        assert recorder.sent_by_module()["repro.mis.distributed"]


class TestDiff:
    def test_clean_run_diffs_clean(self):
        from repro.mis.distributed import run_mis

        graph = connected_random_udg(20, 3.0, seed=5)
        with sanitized() as recorder:
            run_mis(graph)
        report = diff_alphabet(recorder, root=REPO_ROOT)
        assert report.ok, report.format()

    def test_unknown_runtime_kind_fails(self):
        recorder = RuntimeAlphabet()
        recorder.sent.setdefault(
            ("repro.mis.distributed", "MisNode"), set()
        ).add("BOGUS-KIND")
        report = diff_alphabet(recorder, root=REPO_ROOT)
        assert not report.ok
        assert ("repro.mis.distributed", "BOGUS-KIND") in report.unknown
        assert "BOGUS-KIND" in report.format()

    def test_non_repro_modules_are_ignored(self):
        recorder = RuntimeAlphabet()
        recorder.sent.setdefault(("tests.ad_hoc", "FakeNode"), set()).add("X")
        assert diff_alphabet(recorder, root=REPO_ROOT).ok

    def test_coverage_mode_flags_unexercised_kinds(self):
        recorder = RuntimeAlphabet()
        report = diff_alphabet(
            recorder,
            root=REPO_ROOT,
            require_coverage=True,
            coverage_modules=("repro.mis.distributed",),
        )
        assert not report.ok
        assert ("repro.mis.distributed", "BLACK") in report.unexercised

    def test_report_dict_shape(self):
        report = SanitizeReport(unknown=[("m", "K")])
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["unknown_runtime_kinds"] == [["m", "K"]]


class TestVerifyProtocols:
    def test_algorithms_match_the_static_graph(self):
        report = verify_protocols(root=REPO_ROOT)
        assert report.ok, report.format()
        assert report.unexercised == []


class TestSpawnProtection:
    def test_worker_write_raises_under_sanitizer(self):
        assert probe_worker_protection() == "ValueError"

    def test_worker_write_goes_through_unarmed(self, monkeypatch):
        # Without the flag the probe write succeeds — proving the
        # protection is the sanitizer's doing, not a pool default.
        monkeypatch.delenv(ENV_FLAG, raising=False)
        from repro.graphs.generators import connected_random_udg as make
        from repro.shard.config import ShardConfig
        from repro.shard.pool import ShardServePool

        graph = make(24, 2.5, seed=3)
        with ShardServePool(graph, ShardConfig(workers=1)) as pool:
            assert pool.group.probe() is None

    def test_lane_handler_rows_are_read_only(self):
        # A count=0 group runs the handler in-process; under the
        # sanitizer its rows are as read-only as a worker's, while the
        # client's own array stays writable and the lane sees its moves.
        from repro.workers import WorkerGroup

        with sanitized():
            group = WorkerGroup(
                handler=_rows_handler, count=0, prefix="t",
                rows=[(0.0, 0.0), (1.0, 1.0)], died="{}", deaths_metric="d",
            )
        try:
            with pytest.raises(ValueError):
                group.request(0, ("write",), "rows")
            group.array[1] = (5.0, 6.0)
            assert group.request(0, ("read",), "rows")[1] == [
                [0.0, 0.0], [5.0, 6.0]
            ]
            assert group.probe() == "ValueError"
        finally:
            group.close()

    def test_worker_env_view_of_shared_rows_is_read_only(self):
        # The protection a spawn worker's handler gets: its env views
        # the shared block read-only while the owner's array stays
        # writable and the view sees the owner's stores.
        from repro.shard.pool import SharedPositions
        from repro.workers import WorkerEnv

        shared = SharedPositions.create([(0.0, 0.0), (1.0, 1.0)])
        with sanitized():
            env = WorkerEnv(shared.array, (), None)
        try:
            with pytest.raises(ValueError):
                env.array[0, 0] = 5.0
            shared.array[1, 0] = 7.0
            assert env.array.tolist() == [[0.0, 0.0], [7.0, 1.0]]
        finally:
            env.array = None  # the segment cannot unmap while viewed
            shared.close()
            shared.unlink()
