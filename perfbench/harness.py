"""Measurement plumbing shared by the benchmark's workloads.

Statistics (median, the tail percentile), peak memory, the
span tracer used by traced runs, the out-of-process layer wrappers, the
error-versus-paper measure and the result line the benchmark prints.
Nothing here imports ``repro`` at module level, so the tests can load
it without the sources on the path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import signal
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The seed the reference digests were recorded for.
DEFAULT_SEED = 12345

#: A seed never used while tuning the benchmark; re-check claims on it.
HELD_OUT_SEED = 424242

#: Percentiles the tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: Samples that must lie beyond a percentile before it is reported.
TAIL_BEYOND = 10

def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tuple[int, float, int]]:
    """``(percentile, value, samples)`` of the highest reportable tail.

    The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_BEYOND` samples beyond it; None when there are too few.
    """
    n = len(values)
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            index = min(n - 1, math.ceil(p / 100 * n) - 1)
            return p, float(ordered[index]), n
    return None


def peak_rss_mib() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process to end (terminating stragglers), so
    none outlives the run and their peak RSS is counted.

    Covers the pool workers, the shared-memory resource tracker (a child
    that ``active_children`` does not list, and that would otherwise
    outlive this process while it unlinks segments) and, on Linux, any
    other direct child found under ``/proc``.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
    # Closing the tracker's pipe makes it unlink what is left and exit;
    # _stop waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        _end(pid, timeout)


def _child_pids() -> List[int]:
    """Direct children of this process still in the process table."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _end(pid: int, timeout: float) -> None:
    """Wait up to ``timeout`` for child ``pid``, then kill and reap it."""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
            time.sleep(0.05)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass


class Timer:
    """Wall-clock stopwatch: ``with Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.start


# -- tracing ----------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, start, end and the span that was open on the
    same thread when it began (its parent).  Spans stay in memory until
    :meth:`write`.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        record = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def _tops(self) -> List[int]:
        """The top-level ancestor of every span (parents precede children)."""
        tops: List[int] = []
        for record in self.spans:
            parent = record["parent"]
            tops.append(record["id"] if parent is None else tops[parent])
        return tops

    def self_times(self, keep: Callable[[Dict[str, Any]], bool] = lambda top: True) -> Dict[str, float]:
        """Per-name exclusive time: duration minus child-covered time.

        Only spans whose top-level ancestor satisfies ``keep`` count.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        tops = self._tops()
        totals: Dict[str, float] = {}
        for record in self.spans:
            if not keep(self.spans[tops[record["id"]]]):
                continue
            own = record["end"] - record["start"] - child_time[record["id"]]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def subtree(self, root: str) -> Tuple[float, Dict[str, float]]:
        """Wall time of the top-level span ``root`` and its descendants'
        self times by name (the root's own share excluded)."""
        matches = [r for r in self.spans if r["name"] == root and r["parent"] is None]
        if len(matches) != 1:
            raise ValueError(f"expected one top-level span {root!r}, found {len(matches)}")
        wall = matches[0]["end"] - matches[0]["start"]
        layers = self.self_times(lambda top: top is matches[0])
        layers.pop(root)
        return wall, layers

    def write(self, path: str) -> None:
        origin = min((r["start"] for r in self.spans), default=0.0)
        payload = [
            {
                "id": r["id"],
                "name": r["name"],
                "parent": r["parent"],
                "thread": r["thread"],
                "start_s": r["start"] - origin,
                "end_s": r["end"] - origin,
            }
            for r in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"schema": "perfbench-spans/v1", "spans": payload}, fh)


@contextlib.contextmanager
def wrapped(tracer: Tracer, targets: Iterable[Tuple[Any, str, Any]]):
    """Temporarily wrap ``owner.attr`` so each call records a span.

    ``name`` is a span name, or a callable of the call's arguments
    returning one.  The originals are restored on exit.
    """
    saved = []

    def make(original: Callable, name: Any) -> Callable:
        @functools.wraps(original)
        def call(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                return original(*args, **kwargs)

        return call

    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- outputs -----------------------------------------------------------------


def table_mae_points(results: Dict[str, Any]) -> float:
    """Mean absolute error, in accuracy points, against the paper's tables.

    Covers every Table 2 and Table 3 cell the run reproduced (by
    benchmark name).  The inputs are synthetic analogues of SPECint95,
    so this is the error against the paper's tables, not a validation.
    """
    from repro.experiments.paper_reference import TABLE2, TABLE3

    fields = {
        "table2": (TABLE2, ("gshare", "gshare_with_corr", "if_gshare", "if_gshare_with_corr")),
        "table3": (TABLE3, ("pas", "pas_with_loop", "if_pas", "if_pas_with_loop")),
    }
    errors = []
    for experiment_id, (reference, columns) in fields.items():
        result = results.get(experiment_id)
        if result is None:
            continue
        for name, row in result.rows.items():
            if name in reference:
                errors.extend(
                    abs(getattr(row, column) - paper)
                    for column, paper in zip(columns, reference[name])
                )
    if not errors:
        raise ValueError("no Table 2/3 cells to compare")
    return sum(errors) / len(errors)


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    declared: Sequence[Dict[str, Any]],
) -> str:
    """The benchmark's final line: every declared metric, with its unit."""
    names = [metric["name"] for metric in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metrics mismatch: missing {missing}, undeclared {extra}")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
