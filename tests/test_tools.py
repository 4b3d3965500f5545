"""Tests for the trace toolkit CLI."""

import pytest

from repro.predictors import PREDICTOR_REGISTRY
from repro.tools import main, parse_predictor_spec
from repro.trace.stream import read_trace


class TestParsePredictorSpec:
    def test_bare_name(self):
        predictor = parse_predictor_spec("loop")
        assert predictor.name == "loop"

    def test_with_arguments(self):
        predictor = parse_predictor_spec("gshare:history_bits=10,pht_bits=12")
        assert predictor.name == "gshare-10h-12p"

    def test_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown predictor 'tage' in spec 'tage'"):
            parse_predictor_spec("tage")

    def test_malformed_argument(self):
        with pytest.raises(
            SystemExit, match="malformed predictor argument 'history_bits'"
        ):
            parse_predictor_spec("gshare:history_bits")

    def test_non_integer_argument(self):
        with pytest.raises(SystemExit, match="is not an integer"):
            parse_predictor_spec("gshare:history_bits=ten")

    def test_unknown_keyword_argument(self):
        with pytest.raises(
            SystemExit, match="bad arguments for predictor 'gshare'"
        ):
            parse_predictor_spec("gshare:nonsense=3")

    def test_every_registry_entry_constructs(self):
        for name in PREDICTOR_REGISTRY:
            predictor = parse_predictor_spec(name)
            assert predictor.name


class TestCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "t.bpt"
        assert main(["generate", "compress", "-o", str(path), "--length", "3000"]) == 0
        return path

    def test_generate_writes_readable_trace(self, trace_file):
        trace = read_trace(trace_file)
        assert len(trace) == 3000

    def test_stats(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "dynamic branches:        3000" in out
        assert "taken rate" in out

    def test_simulate_default_predictors(self, trace_file, capsys):
        assert main(["simulate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "gshare" in out and "pas" in out

    def test_simulate_explicit_predictors(self, trace_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(trace_file),
                    "--predictor",
                    "loop",
                    "--predictor",
                    "bimodal:table_bits=8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loop" in out and "bimodal-8b" in out

    def test_simulate_bad_predictor_raises_system_exit(self, trace_file):
        with pytest.raises(SystemExit, match="unknown predictor 'nope'"):
            main(["simulate", str(trace_file), "--predictor", "nope"])

    def test_interference(self, trace_file, capsys):
        assert (
            main(
                [
                    "interference",
                    str(trace_file),
                    "--history-bits",
                    "8",
                    "--pht-bits",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "conflict access rate" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/file.bpt"]) == 2


class TestVersion:
    def test_version_flag(self, capsys):
        import re

        assert main(["--version"]) == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"repro-tools \d+[\w.]*", out)
