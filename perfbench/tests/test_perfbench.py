"""The benchmark's own tests, at tiny scale.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import Tracer  # noqa: E402
from repro.client import ServeClient  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def validate_declaration(doc):
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != expected_keys:
        problems.append(f"keys {sorted(doc)} != {sorted(expected_keys)}")
    seen = set()
    for section, keys in (
        ("workloads", {"name", "why"}),
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for entry in doc.get(section, []):
            name = entry.get("name", "")
            if set(entry) != keys:
                problems.append(f"{section}.{name}: keys {sorted(entry)}")
            if not METRIC_NAME.match(name) or name in seen:
                problems.append(f"{section}: bad or repeated name {name!r}")
            seen.add(name)
            if "unit" in keys and not UNIT_NAME.match(entry.get("unit", "")):
                problems.append(f"{section}.{name}: bad unit {entry.get('unit')!r}")
            if "better" in keys and entry.get("better") not in ("lower", "higher"):
                problems.append(f"{section}.{name}: better must be lower/higher")
            if section == "end_to_end" and not 0 < entry.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
            if section == "workloads" and (
                "\n" in entry.get("why", "") or len(entry.get("why", "")) > 200
            ):
                problems.append(f"workload {name}: why must be one line <= 200 chars")
    setup = [m for m in doc.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must declare setup_s in s, lower is better")
    if not (isinstance(doc.get("run_seconds"), int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    for path in doc.get("paths", []):
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"bad benchmark path {path!r}")
    return problems


def context(tmp_path, seed=7, tracer=None):
    return workloads.Context(work=tmp_path / "work", seed=seed, jobs=2,
                             tracer=tracer or Tracer(enabled=False))


# -- declaration and output shape ----------------------------------------------


def test_declaration_is_valid():
    assert validate_declaration(DECLARED) == []
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(METRIC_NAME.match(name) for name in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["", "_lead", "has space", "slash/name", "x" * 65, "é"])
def test_bad_metric_names_are_rejected(name):
    doc = json.loads(json.dumps(DECLARED))
    doc["per_layer"].append({"name": name, "unit": "s", "better": "lower"})
    assert validate_declaration(doc)


def test_declaration_rejects_missing_setup_and_loose_bounds():
    doc = json.loads(json.dumps(DECLARED))
    doc["end_to_end"] = [m for m in doc["end_to_end"] if m["name"] != "setup_s"]
    doc["end_to_end"][0]["bound"] = 0.5
    problems = validate_declaration(doc)
    assert any("setup_s" in p for p in problems)
    assert any("bound" in p for p in problems)


def test_result_line_shape():
    declared = DECLARED["end_to_end"]
    values = {m["name"]: 1.5 for m in declared}
    doc = json.loads(harness.result_line(True, 3, 0, values, declared))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        harness.result_line(True, 3, 0, dict(values, extra=1.0), declared)
    with pytest.raises(ValueError):
        harness.result_line(True, 0, 0, values, declared)


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([1.0] * 19) is None
    assert harness.tail(list(range(20)))[0] == 50
    p, value, n = harness.tail([float(i) for i in range(200)])
    assert (p, n) == (95, 200) and math.isclose(value, 189.0)


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    wall, layers = tracer.subtree("root")
    totals = tracer.self_times()
    assert set(layers) == {"a", "b"}
    assert abs(sum(totals.values()) - wall) < 1e-9
    assert Tracer(enabled=False).spans == []


def test_cli_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_cli_prints_every_end_to_end_metric(tmp_path):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    shutil.copytree(BENCH, checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mixed", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 8
    assert set(doc["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert not (checkout / ".perfbench_work").exists()


def test_reap_children_stops_the_shared_memory_tracker():
    # A segment left linked starts the resource tracker, which would
    # otherwise outlive the process while it unlinks the segment.
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from multiprocessing import shared_memory\n"
        "import harness\n"
        "shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "shm.close()\n"
        "assert harness._child_pids(), 'tracker not started'\n"
        "harness.reap_children(timeout=5)\n"
        "print(harness._child_pids())\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- seeds ---------------------------------------------------------------------


def test_seed_reaches_every_generated_input(tmp_path):
    a = workloads.ServeMixed(context(tmp_path, seed=1), length=300)
    b = workloads.ServeMixed(context(tmp_path, seed=1), length=300)
    c = workloads.ServeMixed(context(tmp_path, seed=2), length=300)
    assert a.fresh_spec(0, 0).digest() == b.fresh_spec(0, 0).digest()
    assert a.fresh_spec(0, 0).digest() != c.fresh_spec(0, 0).digest()
    assert a.fresh_spec(0, 0).digest() != a.fresh_spec(1, 0).digest()
    assert harness.DEFAULT_SEED != harness.HELD_OUT_SEED


def test_import_texts_follow_the_seed(tmp_path):
    digests = []
    for seed in (1, 1, 2):
        workload = workloads.ImportStream(context(tmp_path / str(len(digests)), seed=seed),
                                          length=2_000, benchmarks=("gcc",), chunk_branches=512)
        try:
            workload.setup()
        finally:
            workload.close()
        digests.append(workload.digests["gcc"])
    assert digests[0] == digests[1] != digests[2]


# -- planted failures raise the error rate ------------------------------------


def test_planted_digest_mismatch_is_counted(tmp_path):
    workload = workloads.ImportStream(context(tmp_path), length=2_000, benchmarks=("gcc", "go"),
                                      chunk_branches=512)
    try:
        workload.setup()
        workload.digests["go"] = "0" * 32
        out = workload.measure(0)
    finally:
        workload.close()
    assert out.failed == 1 and not out.correct
    assert out.attempted >= 3


def test_planted_reference_mismatch_is_counted(tmp_path):
    ctx = context(tmp_path)
    reference = {"seed": ctx.seed, "length": 300, "digests": {"table1": "not-a-digest"}}
    workload = workloads.PaperReport(ctx, length=300, warm_passes=1, reference=reference)
    try:
        workload.setup()
        out = workload.measure(0)
    finally:
        workload.close()
    assert out.failed == 1 and out.attempted == 3
    assert out.values["repeat_result_s"] > 0 and out.values["paper_table_mae_pts"] > 0


def test_planted_429_is_counted(tmp_path, monkeypatch):
    workload = workloads.ServeMixed(context(tmp_path), length=300)
    original = ServeClient.submit
    planted = []
    lock = threading.Lock()

    def submit(self, spec):
        with lock:
            plant = spec.experiments == workloads.ServeMixed.revisit_experiments and not planted
            if plant:
                planted.append(self.client_id)
        if plant:
            raise AdmissionError("planted refusal", code="admission.queue")
        return original(self, spec)

    try:
        workload.setup()
        monkeypatch.setattr(ServeClient, "submit", submit)
        out = workload.measure(0)
    finally:
        workload.close()
    assert planted and out.failed == 1 and not out.correct
    assert out.failed / out.attempted > 0


# -- traced runs ----------------------------------------------------------------


@pytest.mark.parametrize("name, kwargs", [
    ("paper_report", {"length": 300, "warm_passes": 1}),
    ("import_stream", {"length": 2_000, "benchmarks": ("gcc",), "chunk_branches": 512}),
    ("serve_mixed", {"length": 300}),
])
def test_traced_run_reports_declared_layers(tmp_path, name, kwargs):
    tracer = Tracer()
    workload = workloads.WORKLOADS[name](context(tmp_path, tracer=tracer), **kwargs)
    try:
        workload.setup()
        out = workload.traced()
    finally:
        workload.close()
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert set(out.values) <= declared
    values = out.values
    assert values["attribution.traced_wall_s"] > 0
    assert abs(values["attribution.layer_sum_s"] + values["attribution.unattributed_s"]
               - values["attribution.traced_wall_s"]) < 1e-9
    assert values["workloads.branches"] > 0 and values["analysis.parallel.tasks"] > 0
    assert values["attribution.manifest_sim_s"] > 0
    failed_checks = [m for m in out.mismatches if "unattributed" not in m]
    assert failed_checks == []
