"""Tests for the repro.check determinism linter.

Covers the rule catalogue against the fixture corpus (every rule flags
its ``*_flagged.py`` twin and passes its ``*_clean.py`` twin), the
suppression and scoping layers, the output formatters against the golden
JSON report, the CLI front end, and — the acceptance bar — that the
repository's own tree lints clean.
"""

import json
import os

import pytest

from repro.check import (
    CheckConfig,
    FORMATTERS,
    Violation,
    format_github,
    format_json,
    format_text,
    has_errors,
    lint_paths,
    lint_source,
    make_fixture_config,
    registry,
    suppressed_lines,
)
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join("tests", "fixtures", "lint")
GOLDEN_REPORT = os.path.join(REPO_ROOT, "tests", "golden", "check_report.json")

RULE_CODES = (
    "D1", "D2", "D3", "D4", "D5",
    "P1", "P2", "P3", "P4",
    "S1", "S2", "S3",
    "O1", "O2", "O3",
    "H1",
)


def lint_fixture(name, codes=()):
    return lint_paths(
        [os.path.join(FIXTURE_DIR, name)],
        config=make_fixture_config(codes),
        root=REPO_ROOT,
    )


class TestFixtureCorpus:
    @pytest.mark.parametrize("code", RULE_CODES)
    def test_flagged_fixture_is_flagged(self, code):
        findings = lint_fixture(f"{code.lower()}_flagged.py", [code])
        assert findings, f"{code} found nothing in its flagged fixture"
        assert {v.rule for v in findings} == {code}
        assert all(v.severity == "error" for v in findings)

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_clean_fixture_passes(self, code):
        findings = lint_fixture(f"{code.lower()}_clean.py", [code])
        assert findings == [], [v.format() for v in findings]

    def test_no_cross_rule_contamination(self):
        # Running every rule over the corpus only ever flags each
        # fixture with its own rule.
        findings = lint_paths(
            [FIXTURE_DIR], config=make_fixture_config(), root=REPO_ROOT
        )
        for violation in findings:
            stem = os.path.basename(violation.path)
            assert stem == f"{violation.rule.lower()}_flagged.py", (
                violation.format()
            )


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self):
        source = "import time\nDELAY = time.sleep(1)  # repro: noqa\n"
        assert lint_source(source, "x.py", make_fixture_config(["D2"])) == []

    def test_coded_noqa_suppresses_only_that_rule(self):
        source = "import time\nDELAY = time.sleep(1)  # repro: noqa[D1]\n"
        findings = lint_source(source, "x.py", make_fixture_config(["D2"]))
        assert [v.rule for v in findings] == ["D2"]

    def test_suppressed_lines_parses_codes(self):
        text = "a  # repro: noqa[D1, D2]\nb\nc  # repro: noqa\n"
        table = suppressed_lines(text)
        assert table[1] == frozenset({"D1", "D2"})
        assert table[3] is None
        assert 2 not in table


class TestScopingAndSeverity:
    SOURCE = "import random\nVALUE = random.random()\n"

    def test_out_of_scope_path_not_linted(self):
        findings = lint_source(self.SOURCE, "docs/example.py", CheckConfig())
        assert findings == []

    def test_in_scope_path_is_linted(self):
        findings = lint_source(
            self.SOURCE, "src/repro/sim/example.py", CheckConfig()
        )
        assert [v.rule for v in findings] == ["D2"]

    def test_scope_override(self):
        config = CheckConfig(
            rule_codes=("D2",), scopes={"D2": ("docs/",)}
        )
        findings = lint_source(self.SOURCE, "docs/example.py", config)
        assert [v.rule for v in findings] == ["D2"]

    def test_severity_override_downgrades_exit_relevance(self):
        config = CheckConfig(
            rule_codes=("D2",),
            severities={"D2": "warning"},
            enforce_scopes=False,
        )
        findings = lint_source(self.SOURCE, "x.py", config)
        assert findings and not has_errors(findings)

    def test_registry_instances_are_fresh(self):
        registry()["D2"].severity = "warning"
        assert registry()["D2"].severity == "error"


class TestSpawnSubstrateScope:
    """The S-rules cover the spawn-worker substrate and its clients."""

    WORKER_LOOP = (
        "import multiprocessing\n"
        "\n"
        "def _worker_main(conn, shared):\n"
        "    shared.array[0, 0] = 1.5\n"
        "    conn.send(('bye', None))\n"
        "\n"
        "def start(shared):\n"
        "    ctx = multiprocessing.get_context('spawn')\n"
        "    parent, child = ctx.Pipe()\n"
        "    ctx.Process(target=_worker_main, args=(child, shared)).start()\n"
        "    return parent\n"
    )
    CLIENT_HANDLER = (
        "from repro.workers import WorkerGroup\n"
        "\n"
        "def _rebuild(shared):\n"
        "    rows = shared.array\n"
        "    rows[0] = 0.0\n"
        "    return rows\n"
        "\n"
        "def _run(env, message):\n"
        "    return ('rows', _rebuild(env.shared), None)\n"
        "\n"
        "def start(rows, registry):\n"
        "    return WorkerGroup(handler=_run, count=2, prefix='f', rows=rows,\n"
        "                       registry=registry, died='{}', deaths_metric='d')\n"
    )

    def test_worker_loop_module_write_is_flagged(self):
        findings = lint_source(
            self.WORKER_LOOP, "src/repro/workers.py", CheckConfig(rule_codes=("S2",))
        )
        assert [v.rule for v in findings] == ["S2"]
        assert findings[0].line == 4

    def test_group_handler_is_a_worker_entry_point(self):
        findings = lint_source(
            self.CLIENT_HANDLER,
            "src/repro/sim/fleet.py",
            CheckConfig(rule_codes=("S2",)),
        )
        assert [(v.rule, v.line) for v in findings] == [("S2", 5)]

    def test_group_shipped_values_are_pickle_checked(self):
        source = self.CLIENT_HANDLER.replace("handler=_run", "handler=lambda e, m: m")
        findings = lint_source(
            source, "src/repro/sim/fleet.py", CheckConfig(rule_codes=("S1",))
        )
        assert [v.rule for v in findings] == ["S1"]
        # the registry stays in the parent: not a shipped value
        assert "lambda" in findings[0].message


class TestFormatters:
    VIOLATION = Violation(
        path="src/a.py", line=3, col=7, rule="D1",
        severity="error", message="msg",
    )

    def test_text(self):
        assert "src/a.py:3:7: D1 error: msg" in format_text([self.VIOLATION])

    def test_github(self):
        assert format_github([self.VIOLATION]).splitlines()[0] == (
            "::error file=src/a.py,line=3,col=7,title=D1::msg"
        )

    def test_json_round_trips(self):
        payload = json.loads(format_json([self.VIOLATION]))
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "D1"

    def test_formatter_table_is_complete(self):
        assert set(FORMATTERS) == {"text", "json", "github"}

    def test_golden_report(self):
        findings = lint_paths(
            [FIXTURE_DIR], config=make_fixture_config(), root=REPO_ROOT
        )
        with open(GOLDEN_REPORT, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert format_json(findings) + "\n" == golden


class TestRepositoryIsClean:
    def test_repo_lints_clean(self):
        # The acceptance bar: `repro check` exits 0 on the tree.
        findings = lint_paths(root=REPO_ROOT)
        assert findings == [], "\n" + format_text(findings)

    def test_parse_failure_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([str(bad)], root=str(tmp_path))
        assert [v.rule for v in findings] == ["PARSE"]
        assert has_errors(findings)


class TestCli:
    def test_check_exits_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_check_json_format(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(
            ["check", "--no-scopes", "--format", "json", FIXTURE_DIR]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 0

    def test_check_github_format_flags_fixture(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(
            ["check", "--no-scopes", "--rule", "D5",
             "--format", "github", FIXTURE_DIR]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["check", "--rule", "D9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out
