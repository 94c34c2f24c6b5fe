"""Tests for the static message-flow extraction (repro.check.protocol_graph).

Covers the AST extraction layer the P-rules and the runtime sanitizer
are built on: send-site and dispatch-branch recovery, payload fields,
timer tags, the dynamic-construct stand-downs, and the exported graph
formats against a golden for the paper's two algorithms.
"""

import json
import os

import pytest

from repro.check import (
    GRAPH_FORMATS,
    ModuleSource,
    build_protocol_graph,
    extract_module_graph,
)
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_GRAPH = os.path.join(
    REPO_ROOT, "tests", "golden", "protocol_graph_wcds.json"
)

WCDS_PATHS = [
    "src/repro/wcds/algorithm1.py",
    "src/repro/wcds/algorithm2.py",
]


def graph_of(source, path="src/repro/sim/example.py"):
    return extract_module_graph(ModuleSource.parse(path, source))


SOURCE = '''
PING = "PING"
PONG = "PONG"


class EchoNode:
    def on_start(self):
        self.ctx.broadcast(PING, hops=1)
        self.ctx.set_timer(5.0, "retry")

    def on_message(self, msg):
        if msg.kind == PING:
            self.ctx.send(msg.sender, PONG, hops=msg["hops"])
        elif msg.kind == PONG:
            self.total = msg["hops"]

    def on_timer(self, tag):
        if tag == "retry":
            self.ctx.broadcast(PING, hops=1)
'''


class TestExtraction:
    def test_sends_handles_and_fields(self):
        module = graph_of(SOURCE)
        assert module.sent_kinds() == {"PING", "PONG"}
        assert module.handled_kinds() == {"PING", "PONG"}
        fields, dynamic = module.fields_sent("PING")
        assert fields == {"hops"} and not dynamic
        fields, dynamic = module.fields_read("PONG")
        assert fields == {"hops"} and not dynamic

    def test_timer_tags(self):
        module = graph_of(SOURCE)
        (cls,) = module.classes
        assert [site.tag for site in cls.timer_sets] == ["retry"]
        assert [branch.tag for branch in cls.timer_branches] == ["retry"]

    def test_kind_class_attributes_count_as_sent(self):
        module = graph_of(
            "BLACK = 'BLACK'\n"
            "class MarkNode:\n"
            "    black_kind = BLACK\n"
            "    def on_message(self, msg):\n"
            "        if msg.kind == self.black_kind:\n"
            "            self.seen = True\n"
        )
        assert module.sent_kinds() == {"BLACK"}
        assert module.handled_kinds() == {"BLACK"}

    def test_dynamic_send_sets_the_stand_down_flag(self):
        module = graph_of(
            "class RelayNode:\n"
            "    def forward(self, kind):\n"
            "        self.ctx.broadcast(kind)\n"
        )
        assert module.has_dynamic_send()

    def test_unfollowable_dispatch_sets_the_stand_down_flag(self):
        module = graph_of(
            "class OpaqueNode:\n"
            "    def on_message(self, msg):\n"
            "        dispatch_table(msg)\n"
        )
        assert module.has_dynamic_dispatch()

    def test_boring_classes_are_dropped(self):
        module = graph_of("class Plain:\n    def helper(self):\n        pass\n")
        assert module.classes == []


#: The protocol modules on the benchmarked hot path: their handlers are
#: hand-inlined, so each must stay in the forms the extractor reads.
HOT_PATH_PATHS = [
    "src/repro/wcds/algorithm2.py",
    "src/repro/election/protocol.py",
    "src/repro/mis/distributed.py",
    "src/repro/wcds/algorithm1.py",
]


class TestRepositoryGraph:
    def test_wcds_modules_fully_resolve(self):
        graph = build_protocol_graph(WCDS_PATHS, root=REPO_ROOT)
        by_path = {mod.path: mod for mod in graph.modules}
        alg2 = by_path["src/repro/wcds/algorithm2.py"]
        assert not alg2.has_dynamic_send()
        assert not alg2.has_dynamic_dispatch()
        # Every kind the module sends, it handles (P1 holds by
        # construction here; this pins the extraction, not the rule).
        assert alg2.sent_kinds() <= alg2.handled_kinds()

    @pytest.mark.parametrize("path", HOT_PATH_PATHS)
    def test_hot_path_modules_fully_resolve(self, path):
        graph = build_protocol_graph([path], root=REPO_ROOT)
        (module,) = graph.modules
        assert module.path == path
        assert not module.has_dynamic_send()
        assert not module.has_dynamic_dispatch()
        assert module.sent_kinds()
        assert module.sent_kinds() <= module.handled_kinds()

    def test_default_paths_cover_the_protocol_modules(self):
        graph = build_protocol_graph(root=REPO_ROOT)
        paths = {mod.path for mod in graph.modules}
        assert "src/repro/wcds/algorithm1.py" in paths
        assert "src/repro/election/protocol.py" in paths
        assert "src/repro/mis/distributed.py" in paths


class TestFormats:
    def test_format_table(self):
        assert set(GRAPH_FORMATS) == {"json", "dot"}

    def test_json_round_trips_and_is_sorted(self):
        graph = build_protocol_graph(WCDS_PATHS, root=REPO_ROOT)
        payload = json.loads(GRAPH_FORMATS["json"](graph))
        assert list(payload) == sorted(payload)

    def test_dot_labels_edges_with_kinds(self):
        graph = build_protocol_graph(
            ["src/repro/election/protocol.py"], root=REPO_ROOT
        )
        dot = GRAPH_FORMATS["dot"](graph)
        assert dot.startswith("digraph")
        assert 'label="ELECT"' in dot

    def test_golden_wcds_graph(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check", "--protocol-graph", "json"] + WCDS_PATHS) == 0
        with open(GOLDEN_GRAPH, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert capsys.readouterr().out == golden
