"""Tests for the ``repro check`` CLI wiring (repro.check.cli)."""

import json
from pathlib import Path

import pytest

from repro.check import cli as check_cli
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures" / "check_defects"

DEFECT_ARGS = [
    "deps", "workers",
    "--deps-experiments-root", str(FIXTURES / "experiments"),
    "--workers-entry", str(FIXTURES / "bad_worker.py") + ":compute_task",
]


class TestCheckCli:
    def test_full_check_passes_on_seed_repo(self, capsys):
        assert check_cli.main([]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_single_pass_selection(self, capsys):
        assert check_cli.main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out
        assert "ir:" not in out

    def test_unknown_pass_rejected(self):
        with pytest.raises(SystemExit):
            check_cli.main(["nonsense"])

    def test_lint_root_failure_sets_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "hazard.py"
        bad.write_text("import random\nx = random.random()\n")
        assert check_cli.main(["lint", "--lint-root", str(tmp_path)]) == 1
        assert "DH002" in capsys.readouterr().out


class TestNewPasses:
    def test_deps_and_workers_in_pass_names(self):
        assert check_cli.PASS_NAMES == [
            "ir", "contracts", "lint", "deps", "workers"
        ]

    def test_deps_and_workers_clean_on_seed_repo(self, capsys):
        assert check_cli.main(["deps", "workers"]) == 0
        out = capsys.readouterr().out
        assert "deps:" in out
        assert "workers:" in out

    def test_defect_fixtures_fail_the_check(self, capsys):
        assert check_cli.main(DEFECT_ARGS) == 1
        out = capsys.readouterr().out
        for code in ("DS001", "DS002", "DS003",
                     "WS001", "WS002", "WS003", "WS004"):
            assert code in out


class TestJsonFormat:
    def test_json_document_shape(self, capsys):
        assert check_cli.main(DEFECT_ARGS + ["--format", "json"]) == 1
        out = capsys.readouterr().out
        document = json.loads(out)  # progress lines suppressed
        assert document["passes"] == ["deps", "workers"]
        assert document["errors"] == 11
        assert document["warnings"] == 1
        record = document["diagnostics"][0]
        assert set(record) == {
            "pass", "code", "severity", "message", "location", "file",
            "line",
        }
        assert all(
            r["line"] is None or isinstance(r["line"], int)
            for r in document["diagnostics"]
        )

    def test_json_clean_run(self, capsys):
        assert check_cli.main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {
            "passes": ["lint"], "errors": 0, "warnings": 0,
            "diagnostics": [],
        }


class TestGithubAnnotations:
    def test_error_and_warning_lines_emitted(self, capsys):
        assert check_cli.main(DEFECT_ARGS + ["--github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "::warning file=" in out
        assert ",title=DS003::" in out
        assert ",line=" in out

    def test_no_annotations_on_clean_run(self, capsys):
        assert check_cli.main(["lint", "--github"]) == 0
        assert "::error" not in capsys.readouterr().out


class TestReproCliDispatch:
    def test_python_m_repro_check_dispatches(self, capsys):
        assert repro_main(["check", "lint"]) == 0
        assert "lint:" in capsys.readouterr().out

    def test_experiment_ids_still_rejected(self, capsys):
        assert repro_main(["not-an-experiment"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["lint"], ["contracts"], ["deps", "--format", "json"]],
        ids=["lint", "contracts", "deps-json"],
    )
    def test_check_forwards_passes_and_format(self, capsys, argv):
        assert repro_main(["check", *argv]) == 0
        out = capsys.readouterr().out
        if "json" in argv:
            assert json.loads(out)["passes"] == [argv[0]]
        else:
            assert f"{argv[0]}:" in out
