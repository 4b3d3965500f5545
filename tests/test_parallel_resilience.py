"""Scheduler resilience: retries, fault injection, failure records.

The determinism contract under test: the same fault spec produces the
same attempt sequence, the same resilience counters and the same folded
results whether the engine runs in-process (``jobs=1``) or across
worker processes (``jobs=4``) -- for whole-trace lanes and for chunk
lanes, whose every window is one attempt with its own deadline and
retry budget.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.analysis.config import TASKS
from repro.analysis.parallel import compute_task, prime_labs
from repro.experiments.base import build_labs
from repro.obs.metrics import METRICS
from repro.resilience.faults import FaultInjector, FaultSpecError
from repro.resilience.retry import RetryPolicy

SMALL = 2000

#: A policy with negligible backoff so retry tests stay fast.
FAST = dict(backoff_base=0.001, backoff_factor=1.0, backoff_cap=0.001)


def resilience_counters(delta: dict) -> dict:
    return {
        name: value
        for name, value in delta.get("counters", {}).items()
        if name.startswith("resilience.")
    }


@pytest.fixture()
def reference_loop():
    """Fault-free serial reference for the 'loop' task."""
    labs = build_labs(SMALL)
    prime_labs(labs, jobs=1, tasks=("loop",))
    return {name: lab.correct("loop") for name, lab in labs.items()}


class TestCrashRetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_attempt_one_crash_is_transparent(self, jobs, reference_loop):
        labs = build_labs(SMALL)
        injector = FaultInjector.from_spec("loop:1:crash")
        failures = []
        baseline = METRICS.snapshot()
        executed = prime_labs(
            labs,
            jobs=jobs,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=3, **FAST),
            injector=injector,
            failures=failures,
        )
        delta = METRICS.delta_since(baseline)
        assert executed == len(labs)
        assert failures == []
        counters = resilience_counters(delta)
        assert counters["resilience.faults.crash"] == len(labs)
        assert counters["resilience.retries"] == len(labs)
        assert "resilience.task_failures" not in counters
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("loop"), reference_loop[name])

    def test_serial_and_parallel_counters_match(self):
        spec = "gcc/loop:1:crash,perl/loop:1:crash,perl/loop:2:crash"
        deltas = []
        for jobs in (1, 2):
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=3, **FAST),
                injector=FaultInjector.from_spec(spec),
                failures=[],
            )
            deltas.append(
                resilience_counters(METRICS.delta_since(baseline))
            )
        assert deltas[0] == deltas[1]
        assert deltas[0]["resilience.faults.crash"] == 3
        assert deltas[0]["resilience.retries"] == 3


class TestExhaustedRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_persistent_crash_becomes_structured_failure(self, jobs):
        labs = build_labs(SMALL)
        spec = ",".join(f"gcc/loop:{attempt}:crash" for attempt in (1, 2))
        failures = []
        baseline = METRICS.snapshot()
        prime_labs(
            labs,
            jobs=jobs,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, **FAST),
            injector=FaultInjector.from_spec(spec),
            failures=failures,
        )
        delta = METRICS.delta_since(baseline)
        assert len(failures) == 1
        failure = failures[0]
        assert failure["scope"] == "task"
        assert (failure["benchmark"], failure["task"]) == ("gcc", "loop")
        assert failure["attempts"] == 2
        assert failure["kind"] == "error"
        assert "InjectedCrash" in failure["message"]
        assert delta["counters"]["resilience.task_failures"] == 1
        # The run degraded, it did not die: every other lab is primed.
        assert not labs["gcc"].is_primed("loop")
        for name, lab in labs.items():
            if name != "gcc":
                assert lab.is_primed("loop")

    def test_failures_are_sorted_not_schedule_ordered(self):
        labs = build_labs(SMALL)
        spec = ",".join(
            f"{name}/loop:{attempt}:crash"
            for name in ("perl", "gcc")
            for attempt in (1, 2)
        )
        failures = []
        prime_labs(
            labs,
            jobs=2,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, **FAST),
            injector=FaultInjector.from_spec(spec),
            failures=failures,
        )
        assert [f["benchmark"] for f in failures] == ["gcc", "perl"]


class TestHangs:
    def test_hang_without_timeout_is_a_spec_error(self):
        labs = build_labs(SMALL)
        with pytest.raises(FaultSpecError, match="task timeout"):
            prime_labs(
                labs,
                jobs=1,
                tasks=("loop",),
                injector=FaultInjector.from_spec("loop:1:hang"),
            )

    def test_serial_hang_counts_as_timeout_and_retries(self):
        labs = build_labs(SMALL)
        failures = []
        baseline = METRICS.snapshot()
        prime_labs(
            labs,
            jobs=1,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, timeout=5.0, **FAST),
            injector=FaultInjector.from_spec("gcc/loop:1:hang"),
            failures=failures,
        )
        delta = METRICS.delta_since(baseline)
        assert failures == []
        assert delta["counters"]["resilience.timeouts"] == 1
        assert delta["counters"]["resilience.retries"] == 1
        assert labs["gcc"].is_primed("loop")


class TestBackoffAccounting:
    def test_nominal_backoff_seconds_are_deterministic(self):
        policy = RetryPolicy(max_attempts=3)
        spec = "gcc/loop:1:crash,gcc/loop:2:crash"
        totals = []
        for jobs in (1, 2):
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=policy,
                injector=FaultInjector.from_spec(spec),
                failures=[],
            )
            delta = METRICS.delta_since(baseline)
            totals.append(delta["timers"]["resilience.backoff_seconds"])
        # Both runs charge exactly backoff(1) + backoff(2), as recorded
        # nominal values -- not measured sleeps.
        expected = policy.backoff(1) + policy.backoff(2)
        for total in totals:
            assert total["seconds"] == pytest.approx(expected)
            assert total["count"] == 2


#: Window size for the chunk-lane tests: every SMALL trace spans several.
CHUNK = 512


class FlakyPredictor:
    """Wraps a predictor whose second window misbehaves, once per run.

    "Once" is a flag file, so it holds across worker processes; the
    call count rides in the pickled carried state, so the retry of the
    failed window resumes with the count the previous window left.
    """

    def __init__(self, inner, flag, mode):
        self.inner = inner
        self.flag = str(flag)
        self.mode = mode
        self.calls = 0

    def simulate(self, trace):
        self.calls += 1
        if self.calls == 2:
            try:
                # O_EXCL claims the flag atomically: two workers reaching
                # their second window together must not both misbehave.
                os.close(os.open(self.flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                if self.mode == "raise":
                    raise RuntimeError("flaky window")
                time.sleep(30)
        return self.inner.simulate(trace)


def make_gshare_flaky(monkeypatch, flag, mode):
    # Pool workers are forked (the Linux default start method), so a row
    # patched before the pool starts is the row every worker sees.
    row = TASKS["gshare"]
    monkeypatch.setitem(
        TASKS, "gshare",
        dataclasses.replace(
            row, build=lambda c: FlakyPredictor(row.build(c), flag, mode)
        ),
    )


@pytest.fixture()
def whole_gshare():
    """Whole-trace 'gshare' bitmaps, computed before any patching."""
    labs = build_labs(SMALL)
    return {
        name: compute_task(lab.trace, lab.config, "gshare")
        for name, lab in labs.items()
    }


def prime_chunked_gshare(jobs, policy):
    labs = build_labs(SMALL)
    failures = []
    baseline = METRICS.snapshot()
    prime_labs(
        labs, jobs=jobs, tasks=("gshare",), chunk_branches=CHUNK,
        policy=policy, failures=failures,
    )
    delta = METRICS.delta_since(baseline)
    assert failures == []
    assert delta["counters"]["sim.chunked_simulations"] == len(labs)
    return labs, resilience_counters(delta)


class TestChunkLanes:
    def test_over_long_window_is_charged_timeout_and_retried(
        self, tmp_path, monkeypatch, whole_gshare
    ):
        make_gshare_flaky(monkeypatch, tmp_path / "flag", "hang")
        labs, counters = prime_chunked_gshare(
            2, RetryPolicy(max_attempts=2, timeout=2.0, **FAST)
        )
        assert counters["resilience.timeouts"] == 1
        assert counters["resilience.retries"] == 1
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("gshare"), whole_gshare[name])

    def test_window_that_raises_once_is_retried_in_process(
        self, tmp_path, monkeypatch, whole_gshare
    ):
        make_gshare_flaky(monkeypatch, tmp_path / "flag", "raise")
        labs, counters = prime_chunked_gshare(
            1, RetryPolicy(max_attempts=3, **FAST)
        )
        assert counters == {"resilience.retries": 1}
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("gshare"), whole_gshare[name])

    def test_serial_and_parallel_counters_match(self, tmp_path, monkeypatch):
        deltas = []
        for jobs in (1, 2):
            make_gshare_flaky(monkeypatch, tmp_path / f"flag{jobs}", "raise")
            _, counters = prime_chunked_gshare(
                jobs, RetryPolicy(max_attempts=3, **FAST)
            )
            deltas.append(counters)
        assert deltas[0] == deltas[1] == {"resilience.retries": 1}
