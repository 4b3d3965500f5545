"""Tests for the declaration-soundness pass (repro.check.deps)."""

from pathlib import Path

import pytest

from repro.check.deps import analyze_requires, run_deps_pass
from repro.check.diagnostics import ERROR, WARNING

FIXTURES = Path(__file__).parent / "fixtures" / "check_defects"


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


def by_code(diagnostics, code):
    return [diag for diag in diagnostics if diag.code == code]


class TestRealTreeIsClean:
    """The shipped experiments must pass their own audit."""

    def test_requires_pass_clean(self):
        assert analyze_requires() == []

    def test_combined_pass_clean(self):
        assert run_deps_pass() == []


class TestSeededRequiresDefects:
    """Each planted declaration defect produces its exact DS code."""

    @pytest.fixture(scope="class")
    def diagnostics(self):
        return analyze_requires(
            experiments_root=str(FIXTURES / "experiments")
        )

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == [
            "DS001", "DS001", "DS002", "DS003"
        ]

    def test_ds001_undeclared_helper_consumption(self, diagnostics):
        found = by_code(diagnostics, "DS001")
        tasks = {
            diag.message.split("'")[3] for diag in found
        }  # experiment '...' consumes task '<name>'
        assert tasks == {"pas", "correlation"}
        assert all(diag.severity == ERROR for diag in found)
        assert all("fx_undeclared" in diag.message for diag in found)

    def test_ds001_selective_access_maps_to_correlation(self, diagnostics):
        correlation = [
            diag for diag in by_code(diagnostics, "DS001")
            if "'correlation'" in diag.message
        ]
        assert len(correlation) == 1

    def test_ds002_phantom_declaration_is_warning(self, diagnostics):
        (phantom,) = by_code(diagnostics, "DS002")
        assert phantom.severity == WARNING
        assert "fx_phantom" in phantom.message
        assert "'loop'" in phantom.message

    def test_ds003_unknown_task_name(self, diagnostics):
        (unknown,) = by_code(diagnostics, "DS003")
        assert unknown.severity == ERROR
        assert "'gshar'" in unknown.message
        assert "correlation" in unknown.message  # the selective hint

    def test_clean_runner_stays_silent(self, diagnostics):
        assert not any("fx_clean" in diag.message for diag in diagnostics)

    def test_locations_point_into_the_fixture(self, diagnostics):
        for diag in diagnostics:
            path, _, line = diag.location.rpartition(":")
            assert path.endswith("defective.py")
            assert int(line) > 0


class TestSuppression:
    def test_check_ignore_comment_silences_a_finding(self, tmp_path):
        fixture = (FIXTURES / "experiments" / "defective.py").read_text(
            encoding="utf-8"
        )
        patched = fixture.replace(
            '@register("fx_phantom", requires=("gshare", "loop"))',
            '@register("fx_phantom", requires=("gshare", "loop"))'
            "  # check: ignore",
        )
        assert patched != fixture
        (tmp_path / "defective.py").write_text(patched, encoding="utf-8")
        diagnostics = analyze_requires(experiments_root=str(tmp_path))
        assert sorted(codes(diagnostics)) == ["DS001", "DS001", "DS003"]
