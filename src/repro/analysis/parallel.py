"""Parallel simulation scheduler with fault-tolerant supervision.

A full report computes every :data:`~repro.analysis.config.TASKS` row
-- seven predictors plus the best-of-32 fixed pattern sweep and the
tagged-correlation collection -- over eight benchmark traces: 72
independent ``(benchmark, task)`` jobs with no shared state, each
computed by :func:`compute_task`.  This module fans them over a
:class:`~concurrent.futures.ProcessPoolExecutor` and folds the results
back into each :class:`~repro.analysis.runner.Lab`'s memo dict, so
downstream experiments see exactly the state a serial run would have
produced.

Determinism: every job is a pure function of ``(benchmark name, length,
run seed, config, task)``; workers regenerate the trace from those
inputs (a per-process LRU plus the shared disk cache make this cheap)
and the parent verifies the returned trace digest before folding, so
completion order and worker scheduling cannot change any result.

Streaming: with ``chunk_branches`` set, the causal tasks (the rows
marked ``chunkable``, :data:`~repro.analysis.streamed.CHUNKABLE_TASKS`)
run as *chunk lanes* instead of whole-trace jobs -- each benchmark's
columns are published once into :mod:`multiprocessing.shared_memory`
and workers simulate fixed windows, resuming from the carried predictor
state the previous chunk returned.  Nothing trace-length-proportional is ever
pickled into a submission, and the folded bitmaps are bit-identical to
the unchunked run (the PC011 contract check and the split-point
property tests enforce it).

Resilience: the parent runs a supervisor loop rather than a bare
``as_completed``.  A failing attempt (worker exception, injected
crash, lost worker, wall-clock timeout) is retried with deterministic
capped backoff up to the :class:`~repro.resilience.RetryPolicy`'s
attempt budget; a timed-out or broken pool is killed and rebuilt, with
innocent in-flight jobs resubmitted at their *current* attempt number.
A task that exhausts its budget becomes a structured
:class:`~repro.resilience.TaskFailure` -- the run continues and the
lab computes that task lazily in-process if an experiment needs it.
``KeyboardInterrupt``/``SIGTERM`` tear the pool down cleanly (cancel
pending futures, terminate workers) instead of leaking it.  The
:class:`~repro.resilience.FaultInjector` hooks the same machinery so
crashes, hangs and cache corruption are reproducible in tests: the
same fault spec yields the same attempt sequence -- and identical
folded results and resilience counters -- for ``--jobs 1`` and
``--jobs 4``.

Observability crosses the process boundary the same way the results do:
each worker resets its per-process :data:`repro.obs.METRICS` registry
and :data:`repro.obs.TRACER` per job, and ships the metric delta plus
its span events back alongside the result; the parent folds both in the
same deterministic (sorted-benchmark, task-order) sequence it folds
bitmaps, so aggregated counters are independent of completion order and
``sum(worker deltas) == single-process counters`` for every work-unit
counter.  (A crashed attempt's delta dies with it; only successful
attempts are folded, identically in serial and parallel runs.)

Worker count comes from ``--jobs``, the :data:`ENV_JOBS` environment
variable, or ``os.cpu_count()``; ``jobs <= 1`` short-circuits to the
plain in-process path with no executor, no pickling and no subprocesses
-- but the same retry/fault semantics.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import CORRELATION_TASK, TASKS, LabConfig
from repro.analysis.streamed import (
    CHUNKABLE_TASKS,
    chunked_bitmap,
    task_predictor,
)
from repro.obs.metrics import METRICS
from repro.obs.tracing import TRACER, span
from repro.resilience.faults import (
    HANG_SECONDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
)
from repro.resilience.retry import RetryPolicy, TaskFailure, TaskTimeout
from repro.trace.stream import TraceStream, chunk_spans, normalize_chunk_branches
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.analysis.runner import Lab

#: Environment variable overriding the worker count.
ENV_JOBS = "REPRO_JOBS"

#: Supervisor poll interval while futures are in flight (seconds).
_TICK = 0.05

#: Tasks a full report needs, in deterministic fold order.
DEFAULT_TASKS: Tuple[str, ...] = tuple(TASKS)


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` if set and valid, else CPU count."""
    override = os.environ.get(ENV_JOBS)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value (None -> environment/CPU default)."""
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


def compute_task(trace: Trace, config: LabConfig, task: str):
    """Compute one task's result on a trace (the single source of truth).

    Used by :class:`~repro.analysis.runner.Lab` on a memo/cache miss, by
    the serial priming path in-process and by :func:`_run_task` inside
    workers, so every path produces bit-identical results and identical
    work-unit metrics (``sim.simulations`` /
    ``sim.correlation_collections``).
    """
    row = TASKS[task]
    if task == CORRELATION_TASK:
        METRICS.inc("sim.correlation_collections")
        name, attrs = "collect_correlation", {}
    else:
        METRICS.inc("sim.simulations")
        name, attrs = "simulate", {"predictor": task}
    with span(name, **attrs, length=len(trace)), METRICS.timer("sim.seconds"):
        return row.run(trace, config)


def _corrupt_result_entry(
    cache: ResultCache, digest: str, task: str, config: LabConfig
) -> None:
    """Truncate the cache entry a task just wrote (injected 'corrupt').

    The in-memory result is untouched -- the fault surfaces only on a
    later run's cache load, which the quarantine path must turn into a
    clean recompute.
    """
    if task == CORRELATION_TASK:
        key = cache.correlation_key(digest, config.collection_window)
        kind = "corr"
    else:
        key = cache.bitmap_key(digest, result_key(task, config))
        kind = "bitmap"
    path = cache.entry_path(kind, key)
    try:
        with open(path, "r+b") as fh:
            fh.truncate(8)
    except OSError:
        pass


def _run_task(job: tuple):
    """Execute one ``(benchmark, task)`` attempt in a worker process.

    Module-level so it pickles; regenerates the trace from the job spec
    (per-process LRU in ``load_benchmark`` plus the shared disk cache
    keep this a one-time cost per worker per benchmark).  Returns the
    job's metric delta and span events alongside the result so the
    parent can fold telemetry deterministically.

    ``fault_kinds`` is the pre-matched tuple of injected faults for
    exactly this attempt (the parent does the matching and counting, so
    an attempt that dies cannot lose the accounting).
    """
    (
        name, length, run_seed, config, task, cache_root, _window,
        source, fault_kinds,
    ) = job

    if "crash" in fault_kinds:
        raise InjectedCrash(f"injected crash: {name}/{task}")
    if "hang" in fault_kinds:
        time.sleep(HANG_SECONDS)

    METRICS.reset()
    TRACER.reset()
    start = time.perf_counter()
    with span("job", benchmark=name, task=task):
        cache = ResultCache(cache_root) if cache_root is not None else None
        trace = _worker_trace(name, length, run_seed, source, cache)
        digest = trace.digest()
        result = compute_task(trace, config, task)
        if cache is not None:
            if task == CORRELATION_TASK:
                cache.store_correlation(digest, result)
            else:
                cache.store_bitmap(digest, result_key(task, config), result)
            if "corrupt" in fault_kinds:
                _corrupt_result_entry(cache, digest, task, config)
    duration = time.perf_counter() - start
    return (
        name, task, digest, result,
        METRICS.snapshot(), TRACER.chrome_events(), duration,
    )


def _worker_trace(
    name: str,
    length: int,
    run_seed: int,
    source: Optional[tuple],
    cache: Optional[ResultCache],
) -> Trace:
    """Materialise one job's trace from its source descriptor.

    ``source`` is the picklable per-benchmark descriptor
    :func:`prime_labs` ships: ``None`` (the legacy suite trace),
    ``("synthetic", mix_items)`` (a mix-scaled suite trace, cached under
    its mix-signature variant key), or ``("imported", path, format,
    digest)`` (a foreign file, digest-verified on load).
    """
    if source is not None and source[0] == "imported":
        from repro.trace.ingest import load_imported_trace

        _, path, fmt, expected = source
        return load_imported_trace(
            path, format=fmt, expected_digest=expected
        )
    from repro.workloads.suite import load_benchmark, mix_items_signature

    mix_items = source[1] if source is not None else ()
    variant = mix_items_signature(mix_items)
    trace = (
        cache.load_trace(name, length, run_seed, variant=variant)
        if cache
        else None
    )
    if trace is None:
        trace = load_benchmark(name, length, run_seed, mix=dict(mix_items))
        if cache is not None:
            cache.store_trace(name, length, run_seed, trace, variant=variant)
    return trace


def _run_chunk(job: tuple):
    """Execute one chunk attempt of a chunked lane in a worker process.

    The trace window comes from the parent's shared-memory segment --
    no column pickling, no regeneration -- and the predictor resumes
    from the carried state the lane's previous chunk returned (None for
    the first chunk).  Returns the window's correctness bitmap plus the
    predictor's new pickled state, so the parent can chain the next
    chunk on any worker.
    """
    (shm_name, length, start, stop, config, task, state_blob) = job
    from repro.analysis.shm import attach_window

    METRICS.reset()
    TRACER.reset()
    begin = time.perf_counter()
    window, handle = attach_window(shm_name, length, start, stop)
    try:
        with span("chunk", task=task, start=start, stop=stop):
            predictor = (
                pickle.loads(state_blob)
                if state_blob is not None
                else task_predictor(config, task)
            )
            METRICS.inc("sim.chunk_simulations")
            bitmap = np.asarray(predictor.simulate(window), dtype=bool)
            state = pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        del window
        try:
            handle.close()
        except BufferError:
            pass
    return (
        bitmap, state,
        METRICS.snapshot(), TRACER.chrome_events(),
        time.perf_counter() - begin,
    )


def _count_injected(kinds: Sequence[str]) -> None:
    """Parent-side accounting of faults scheduled for an attempt."""
    for kind in kinds:
        METRICS.inc(f"resilience.faults.{kind}")
        METRICS.inc("resilience.faults_injected")


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Shut a pool down without waiting on stuck workers.

    ``kill`` additionally terminates the worker processes -- the only
    way to reclaim a hung worker.  Reaches into the executor's process
    table (CPython 3.9-3.13 keep it at ``_processes``); absent that
    attribute the shutdown still cancels everything queued.
    """
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
    pool.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A reusable worker pool with an explicit lifecycle.

    One priming pass historically meant one ``ProcessPoolExecutor``:
    built at the start, torn down at the end, its warm workers (and
    their per-process trace LRUs) discarded with it.  A long-lived
    engine session -- a sweep, or the :mod:`repro.serve` daemon
    fielding many runs -- passes a ``WorkerPool`` into
    :func:`prime_labs` instead, so every run schedules onto the *same*
    warm workers and cold-start is paid once per session, not once per
    request.

    The pool is lazy (no subprocesses until the first submit), rebuilds
    itself when the supervisor kills a broken or hung executor, and
    drains on demand: :meth:`drain` is what a SIGTERM-initiated
    graceful shutdown calls -- cancel everything queued, reap the
    workers, leave the journal/cache state to the owning session.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self._pool: Optional[ProcessPoolExecutor] = None

    def handle(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def rebuild(self) -> None:
        """Kill the current executor; the next :meth:`handle` starts fresh."""
        if self._pool is not None:
            _shutdown_pool(self._pool, kill=True)
            self._pool = None

    def drain(self, kill: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``kill=False`` is the graceful path: nothing new is accepted
        and queued futures are cancelled, but running workers finish
        their current attempt.  ``kill=True`` terminates them.
        """
        if self._pool is not None:
            _shutdown_pool(self._pool, kill=kill)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain(kill=exc_info[0] is not None)


class _Supervisor:
    """Drives one parallel priming pass: submit, retry, kill, rebuild."""

    def __init__(
        self,
        jobs: int,
        specs: Dict[Tuple[str, str], tuple],
        order: Sequence[Tuple[str, str]],
        policy: RetryPolicy,
        injector: Optional[FaultInjector],
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.jobs = jobs
        self.specs = specs
        self.policy = policy
        self.injector = injector
        self.ready = deque((key, 1) for key in order)
        self.waiting: List[Tuple[float, int, Tuple[str, str], int]] = []
        self.active: Dict[object, Tuple[Tuple[str, str], int, Optional[float]]] = {}
        self.results: Dict[Tuple[str, str], tuple] = {}
        self.failures: List[TaskFailure] = []
        self._seq = 0
        # A shared pool outlives this pass (the owning session drains
        # it); a private one is built on demand and reaped at the end.
        self._shared = pool is not None
        self._pool = pool if pool is not None else WorkerPool(jobs)

    # -- pool lifecycle ----------------------------------------------------

    def _pool_handle(self) -> ProcessPoolExecutor:
        return self._pool.handle()

    def _rebuild_pool(self) -> None:
        self._pool.rebuild()
        METRICS.inc("parallel.pool_rebuilds")

    def shutdown(self, kill: bool = False) -> None:
        # A clean end of pass leaves a shared pool warm for the next
        # run; an interrupt (kill=True) reaps it either way -- the pool
        # recreates its workers lazily if the session continues.
        if self._shared and not kill:
            return
        self._pool.drain(kill=kill)

    # -- scheduling --------------------------------------------------------

    def _spec_with_faults(self, key: Tuple[str, str], attempt: int) -> tuple:
        name, task = key
        kinds: Tuple[str, ...] = ()
        if self.injector is not None:
            kinds = self.injector.kinds(name, task, attempt)
            _count_injected(kinds)
        return self.specs[key] + (kinds,)

    def _submit(self, key: Tuple[str, str], attempt: int) -> None:
        spec = self._spec_with_faults(key, attempt)
        try:
            future = self._pool_handle().submit(_run_task, spec)
        except BrokenProcessPool:
            # The pool broke between loops; rebuild once and resubmit.
            self._rebuild_pool()
            future = self._pool_handle().submit(_run_task, spec)
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None
            else None
        )
        self.active[future] = (key, attempt, deadline)

    def _defer(self, key: Tuple[str, str], attempt: int) -> None:
        """Queue the next attempt after its deterministic backoff."""
        backoff = self.policy.backoff(attempt)
        METRICS.inc("resilience.retries")
        METRICS.add_time("resilience.backoff_seconds", backoff)
        self._seq += 1
        self.waiting.append(
            (time.monotonic() + backoff, self._seq, key, attempt + 1)
        )

    def _on_attempt_failure(
        self, key: Tuple[str, str], attempt: int, kind: str, message: str
    ) -> None:
        if kind == "timeout":
            METRICS.inc("resilience.timeouts")
        if attempt >= self.policy.max_attempts:
            name, task = key
            METRICS.inc("resilience.task_failures")
            self.failures.append(
                TaskFailure(
                    benchmark=name,
                    task=task,
                    attempts=attempt,
                    kind=kind,
                    message=message,
                )
            )
        else:
            self._defer(key, attempt)

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        try:
            while self.ready or self.waiting or self.active:
                self._promote_waiting()
                while self.ready and len(self.active) < self.jobs:
                    key, attempt = self.ready.popleft()
                    self._submit(key, attempt)
                if not self.active:
                    # Everything left is backing off; sleep to the next
                    # ready time instead of spinning.
                    if self.waiting:
                        next_at = min(entry[0] for entry in self.waiting)
                        time.sleep(max(0.0, next_at - time.monotonic()))
                    continue
                done, _ = wait(
                    list(self.active), timeout=_TICK,
                    return_when=FIRST_COMPLETED,
                )
                if not self._collect(done):
                    continue  # pool broke; state already rescheduled
                self._expire_deadlines()
        except BaseException:
            # Interrupt/SIGTERM/unexpected error: reap workers, cancel
            # queued futures, and let the caller decide what to keep.
            self.shutdown(kill=True)
            raise
        else:
            self.shutdown()

    def _promote_waiting(self) -> None:
        if not self.waiting:
            return
        now = time.monotonic()
        self.waiting.sort()
        while self.waiting and self.waiting[0][0] <= now:
            _, _, key, attempt = self.waiting.pop(0)
            self.ready.append((key, attempt))

    def _collect(self, done) -> bool:
        """Harvest finished futures; False if the pool broke mid-batch."""
        for future in done:
            key, attempt, _ = self.active.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool as error:
                self._on_pool_broken(key, attempt, error)
                return False
            except Exception as error:
                self._on_attempt_failure(
                    key, attempt, "error", f"{type(error).__name__}: {error}"
                )
            else:
                self.results[key] = payload
        return True

    def _on_pool_broken(self, key, attempt, error) -> None:
        """A worker died hard; every in-flight job went down with it.

        The culprit is unknowable from the parent, so every in-flight
        attempt (the reporting future included) is charged one attempt
        -- each job still gets its full retry budget, and a persistent
        hard-crasher cannot rebuild the pool forever.
        """
        victims = [(key, attempt)]
        for future, (other_key, other_attempt, _) in self.active.items():
            future.cancel()
            victims.append((other_key, other_attempt))
        self.active.clear()
        self._rebuild_pool()
        for victim_key, victim_attempt in victims:
            self._on_attempt_failure(
                victim_key,
                victim_attempt,
                "worker-lost",
                f"worker pool broke: {error}",
            )

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired = [
            (future, entry)
            for future, entry in self.active.items()
            if entry[2] is not None and now >= entry[2]
        ]
        if not expired:
            return
        # A hung worker can only be reclaimed by killing the pool, which
        # takes every in-flight job with it: timed-out attempts are
        # charged and retried, innocents resubmitted at the same attempt.
        expired_futures = {future for future, _ in expired}
        innocents = [
            (key, attempt)
            for future, (key, attempt, _) in self.active.items()
            if future not in expired_futures
        ]
        self.active.clear()
        self._rebuild_pool()
        for _, (key, attempt, _) in expired:
            self._on_attempt_failure(
                key, attempt, "timeout",
                f"attempt exceeded {self.policy.timeout:.3f}s wall clock",
            )
        for key, attempt in reversed(innocents):
            self.ready.appendleft((key, attempt))


class _ChunkScheduler:
    """Chunk lanes over the pool: sequential per lane, parallel across.

    A *lane* is one ``(benchmark, task)`` pair whose trace is folded
    window by window: chunk ``k`` resumes from the predictor state
    chunk ``k-1`` returned, so a lane is inherently sequential, but the
    48 lanes of a full chunked report keep the pool busy.  The carried
    state lives in the parent between chunks, which is what makes a
    chunk attempt retryable -- a crashed worker costs one window, not
    the lane.  A lane that exhausts one chunk's attempt budget becomes
    a :class:`TaskFailure` and the lab computes that task lazily.
    """

    def __init__(
        self,
        jobs: int,
        lanes: Dict[Tuple[str, str], dict],
        order: Sequence[Tuple[str, str]],
        policy: RetryPolicy,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.jobs = jobs
        self.lanes = lanes
        self.policy = policy
        self.progress = {
            key: {
                "next": 0, "state": None, "parts": [],
                "deltas": [], "events": [], "seconds": 0.0,
            }
            for key in order
        }
        self.ready = deque((key, 1) for key in order)
        self.waiting: List[Tuple[float, int, Tuple[str, str], int]] = []
        self.active: Dict[object, Tuple[Tuple[str, str], int]] = {}
        self.results: Dict[Tuple[str, str], tuple] = {}
        self.failures: List[TaskFailure] = []
        self._seq = 0
        self._shared = pool is not None
        self._pool = pool if pool is not None else WorkerPool(jobs)

    def _rebuild_pool(self) -> None:
        self._pool.rebuild()
        METRICS.inc("parallel.pool_rebuilds")

    def shutdown(self, kill: bool = False) -> None:
        if self._shared and not kill:
            return
        self._pool.drain(kill=kill)

    def _submit(self, key: Tuple[str, str], attempt: int) -> None:
        lane = self.lanes[key]
        prog = self.progress[key]
        start, stop = lane["spans"][prog["next"]]
        spec = (
            lane["shm"], lane["length"], start, stop,
            lane["config"], key[1], prog["state"],
        )
        try:
            future = self._pool.handle().submit(_run_chunk, spec)
        except BrokenProcessPool:
            self._rebuild_pool()
            future = self._pool.handle().submit(_run_chunk, spec)
        self.active[future] = (key, attempt)

    def _defer(self, key: Tuple[str, str], attempt: int) -> None:
        backoff = self.policy.backoff(attempt)
        METRICS.inc("resilience.retries")
        METRICS.add_time("resilience.backoff_seconds", backoff)
        self._seq += 1
        self.waiting.append(
            (time.monotonic() + backoff, self._seq, key, attempt + 1)
        )

    def _on_attempt_failure(
        self, key: Tuple[str, str], attempt: int, kind: str, message: str
    ) -> None:
        if attempt >= self.policy.max_attempts:
            name, task = key
            METRICS.inc("resilience.task_failures")
            self.failures.append(
                TaskFailure(
                    benchmark=name,
                    task=task,
                    attempts=attempt,
                    kind=kind,
                    message=message,
                )
            )
        else:
            self._defer(key, attempt)

    def _advance(self, key: Tuple[str, str], payload: tuple) -> None:
        bitmap, state, delta, events, seconds = payload
        lane = self.lanes[key]
        prog = self.progress[key]
        prog["parts"].append(bitmap)
        prog["deltas"].append(delta)
        prog["events"].extend(events)
        prog["seconds"] += seconds
        prog["state"] = state
        prog["next"] += 1
        if prog["next"] == len(lane["spans"]):
            self.results[key] = (
                np.concatenate(prog["parts"]),
                prog["deltas"], prog["events"], prog["seconds"],
            )
        else:
            self.ready.append((key, 1))

    def run(self) -> None:
        try:
            while self.ready or self.waiting or self.active:
                self._promote_waiting()
                while self.ready and len(self.active) < self.jobs:
                    key, attempt = self.ready.popleft()
                    self._submit(key, attempt)
                if not self.active:
                    if self.waiting:
                        next_at = min(entry[0] for entry in self.waiting)
                        time.sleep(max(0.0, next_at - time.monotonic()))
                    continue
                done, _ = wait(
                    list(self.active), timeout=_TICK,
                    return_when=FIRST_COMPLETED,
                )
                self._collect(done)
        except BaseException:
            self.shutdown(kill=True)
            raise
        else:
            self.shutdown()

    def _promote_waiting(self) -> None:
        if not self.waiting:
            return
        now = time.monotonic()
        self.waiting.sort()
        while self.waiting and self.waiting[0][0] <= now:
            _, _, key, attempt = self.waiting.pop(0)
            self.ready.append((key, attempt))

    def _collect(self, done) -> None:
        for future in done:
            key, attempt = self.active.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool as error:
                self._on_pool_broken(key, attempt, error)
                return
            except Exception as error:
                self._on_attempt_failure(
                    key, attempt, "error", f"{type(error).__name__}: {error}"
                )
            else:
                self._advance(key, payload)

    def _on_pool_broken(self, key, attempt, error) -> None:
        # Every in-flight chunk died with the pool; each lane's carried
        # state is parent-side, so each is charged one attempt at its
        # *current* chunk and resubmitted from exactly there.
        victims = [(key, attempt)]
        for future, (other_key, other_attempt) in self.active.items():
            future.cancel()
            victims.append((other_key, other_attempt))
        self.active.clear()
        self._rebuild_pool()
        for victim_key, victim_attempt in victims:
            self._on_attempt_failure(
                victim_key, victim_attempt, "worker-lost",
                f"worker pool broke: {error}",
            )


def _prime_chunked(
    labs: Dict[str, Lab],
    chunked: Sequence[Tuple[str, str]],
    chunk_size: int,
    jobs: int,
    policy: RetryPolicy,
    pool: Optional[WorkerPool],
) -> Tuple[int, List[TaskFailure]]:
    """Fold the chunkable lanes; returns ``(executed, failures)``.

    ``jobs <= 1`` folds in-process over zero-copy windows; otherwise
    each benchmark's columns are published to shared memory once and
    the lanes run over the pool.  Either way the folded bitmaps are
    bit-identical to the unchunked path, and the parent writes them
    through each lab (and its cache) in deterministic lane order.
    """
    task_failures: List[TaskFailure] = []
    executed = 0
    if jobs <= 1:
        for name, task in chunked:
            lab = labs[name]
            stream = TraceStream.from_trace(lab.trace, chunk_size)
            try:
                bitmap = chunked_bitmap(stream, lab.config, task)
            except Exception as error:
                METRICS.inc("resilience.task_failures")
                task_failures.append(
                    TaskFailure(
                        benchmark=name, task=task, attempts=1, kind="error",
                        message=f"{type(error).__name__}: {error}",
                    )
                )
                continue
            lab.store_correct(task, bitmap)
            executed += 1
        return executed, task_failures

    from repro.analysis.shm import SharedTrace

    shared: Dict[str, SharedTrace] = {}
    try:
        for name in sorted({name for name, _ in chunked}):
            shared[name] = SharedTrace.create(labs[name].trace)
        lanes = {
            (name, task): {
                "shm": shared[name].name,
                "length": len(labs[name].trace),
                "spans": chunk_spans(len(labs[name].trace), chunk_size),
                "config": labs[name].config,
            }
            for name, task in chunked
        }
        scheduler = _ChunkScheduler(jobs, lanes, chunked, policy, pool)
        scheduler.run()
    finally:
        for segment in shared.values():
            segment.unlink()

    # Deterministic fold: lane order, chunk order within each lane.
    for key in chunked:
        if key not in scheduler.results:
            continue
        bitmap, deltas, events, seconds = scheduler.results[key]
        METRICS.inc("sim.chunked_simulations")
        for delta in deltas:
            METRICS.merge(delta)
        METRICS.add_time("parallel.job_seconds", seconds)
        TRACER.add_events(events)
        name, task = key
        labs[name].store_correct(task, bitmap)
        executed += 1
    return executed, scheduler.failures


def prime_labs(
    labs: Dict[str, Lab],
    run_seed: int = 12345,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    tasks: Sequence[str] = DEFAULT_TASKS,
    policy: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    failures: Optional[list] = None,
    pool: Optional[WorkerPool] = None,
    chunk_branches: Optional[int] = None,
    sources: Optional[Dict[str, tuple]] = None,
) -> int:
    """Populate every lab's memos for ``tasks``, in parallel.

    Cached results are folded in directly; only misses are scheduled.
    After this returns, ``lab.correct(task)`` / ``lab.correlation_data()``
    are pure memo lookups for every requested task.

    Args:
        labs: Benchmark name -> Lab, as built by ``build_labs``.  The
            benchmark name must regenerate the lab's trace (standard
            suite labs; ad-hoc labs should skip priming).
        run_seed: The seed the labs' traces were generated with.
        jobs: Worker processes (None -> :func:`default_jobs`).
        cache: Shared result cache; workers write through to it.
        tasks: Task names to prime (subset of :data:`DEFAULT_TASKS`).
        policy: Retry/timeout policy (None -> environment defaults via
            :meth:`RetryPolicy.resolve`).
        injector: Deterministic fault injector (None -> no faults; the
            :data:`REPRO_FAULT_SPEC` environment variable is resolved
            by the API layer, not here).
        failures: If given, a task that exhausts its attempt budget is
            appended here as a structured dict and the pass continues;
            if None, exhausted tasks are simply left unprimed (the lab
            computes them lazily on demand).
        pool: A session-owned :class:`WorkerPool` to schedule onto.
            When given it overrides ``jobs``, stays warm after the pass
            (the owner drains it), and is shared with every other run
            of the same session.
        chunk_branches: If set, fold every chunkable task
            (:data:`~repro.analysis.streamed.CHUNKABLE_TASKS`) over
            fixed windows of this many branches -- in-process for
            ``jobs <= 1``, else as shared-memory chunk lanes on the
            pool -- instead of whole-trace jobs.  Results are
            bit-identical either way.  Ignored for traces no longer
            than one chunk, and (because injected faults target whole
            task attempts) whenever ``injector`` is set.
        sources: Per-benchmark trace-source descriptors workers use to
            rematerialise job traces (see :func:`_worker_trace`); None
            (or an absent name) means the legacy suite trace.  The
            chunked path ignores this -- its windows ship from the
            parent's columns over shared memory.

    Returns:
        The number of jobs that executed successfully (0 means
        everything was cached).

    Raises:
        FaultSpecError: If the fault spec injects hangs but the policy
            has no timeout to detect them with.
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    if policy is None:
        policy = RetryPolicy.resolve()
    if injector is not None and injector.wants_timeout() and policy.timeout is None:
        raise FaultSpecError(
            "fault spec injects 'hang' faults but no task timeout is set; "
            "pass --task-timeout (or REPRO_TASK_TIMEOUT)"
        )
    METRICS.gauge("parallel.workers", jobs)
    pending = []
    for name in sorted(labs):
        lab = labs[name]
        if cache is not None and lab.cache is None:
            lab.cache = cache
        for task in tasks:
            if lab.is_primed(task) or _fold_cached(lab, task):
                continue
            pending.append((name, task))

    if not pending:
        return 0

    chunked: List[Tuple[str, str]] = []
    chunk_size = 0
    if chunk_branches is not None and injector is None:
        # Injected faults target whole (benchmark, task) attempts; the
        # chunked path would change that accounting, so an injector
        # forces every task through the unchunked scheduler.
        chunk_size = normalize_chunk_branches(chunk_branches)
        chunked = [
            (name, task)
            for name, task in pending
            if task in CHUNKABLE_TASKS and len(labs[name].trace) > chunk_size
        ]
        if chunked:
            chunked_keys = set(chunked)
            pending = [key for key in pending if key not in chunked_keys]

    executed = 0
    all_failures: List[TaskFailure] = []

    if chunked:
        with span(
            "prime_chunked", jobs=jobs, lanes=len(chunked),
            chunk_branches=chunk_size,
        ):
            chunk_executed, chunk_failures = _prime_chunked(
                labs, chunked, chunk_size, jobs, policy, pool
            )
        executed += chunk_executed
        all_failures.extend(chunk_failures)

    if pending and jobs <= 1:
        with span("prime_labs", jobs=1, pending=len(pending)):
            serial_executed, task_failures = _prime_serial_all(
                labs, pending, policy, injector
            )
        executed += serial_executed
        all_failures.extend(task_failures)
    elif pending:
        cache_root = str(cache.root) if cache is not None else None
        job_specs = {
            (name, task): (
                name,
                len(labs[name].trace),
                run_seed,
                labs[name].config,
                task,
                cache_root,
                labs[name].config.collection_window,
                sources.get(name) if sources is not None else None,
            )
            for name, task in pending
        }
        supervisor = _Supervisor(
            jobs, job_specs, pending, policy, injector, pool=pool
        )
        with span("prime_labs", jobs=jobs, pending=len(pending)):
            supervisor.run()

        # Fold in deterministic (sorted-name, task-order) order,
        # verifying the worker simulated the same trace the lab holds.
        # Metric deltas and span events fold in the same order, so
        # aggregate telemetry is independent of worker scheduling.
        for name, task in pending:
            if (name, task) not in supervisor.results:
                continue  # failed after retries; recorded below
            _, _, digest, result, delta, events, duration = supervisor.results[
                (name, task)
            ]
            METRICS.merge(delta)
            METRICS.add_time("parallel.job_seconds", duration)
            TRACER.add_events(events)
            lab = labs[name]
            if digest != lab.trace.digest():
                # Worker regenerated a different trace (ad-hoc lab):
                # discard and let the lab compute lazily.
                continue
            # Workers already wrote the shared cache; skip the second
            # write.
            write_through = cache is None
            if task == CORRELATION_TASK:
                lab.store_correlation(result, write_through=write_through)
            else:
                lab.store_correct(task, result, write_through=write_through)
            executed += 1
        all_failures.extend(supervisor.failures)
    METRICS.inc("parallel.jobs_executed", executed)
    _report_failures(all_failures, failures)
    return executed


def _report_failures(
    task_failures: List[TaskFailure], sink: Optional[list]
) -> None:
    """Deliver structured failures in a schedule-independent order."""
    if sink is None:
        return
    for failure in sorted(task_failures, key=lambda f: (f.benchmark, f.task)):
        sink.append(failure.to_dict())


def _prime_serial_all(
    labs: Dict[str, Lab],
    pending: Sequence[Tuple[str, str]],
    policy: RetryPolicy,
    injector: Optional[FaultInjector],
) -> Tuple[int, List[TaskFailure]]:
    """The in-process path: same retry/fault semantics, no executor.

    Injected hangs cannot be preempted in-process, so they fail the
    attempt as a timeout immediately -- keeping the attempt sequence
    (and every resilience counter) identical to a parallel run under
    the same fault spec.
    """
    executed = 0
    task_failures: List[TaskFailure] = []
    for name, task in pending:
        lab = labs[name]
        attempt = 1
        while True:
            kinds: Tuple[str, ...] = ()
            if injector is not None:
                kinds = injector.kinds(name, task, attempt)
                _count_injected(kinds)
            try:
                if "crash" in kinds:
                    raise InjectedCrash(f"injected crash: {name}/{task}")
                if "hang" in kinds:
                    raise TaskTimeout(
                        f"injected hang: {name}/{task} (in-process)"
                    )
                result = compute_task(lab.trace, lab.config, task)
            except Exception as error:
                kind = "timeout" if isinstance(error, TaskTimeout) else "error"
                if kind == "timeout":
                    METRICS.inc("resilience.timeouts")
                if attempt >= policy.max_attempts:
                    METRICS.inc("resilience.task_failures")
                    task_failures.append(
                        TaskFailure(
                            benchmark=name,
                            task=task,
                            attempts=attempt,
                            kind=kind,
                            message=f"{type(error).__name__}: {error}",
                        )
                    )
                    break
                backoff = policy.backoff(attempt)
                METRICS.inc("resilience.retries")
                METRICS.add_time("resilience.backoff_seconds", backoff)
                time.sleep(backoff)
                attempt += 1
            else:
                if task == CORRELATION_TASK:
                    lab.store_correlation(result)
                else:
                    lab.store_correct(task, result)
                if "corrupt" in kinds and lab.cache is not None:
                    _corrupt_result_entry(
                        lab.cache, lab.trace.digest(), task, lab.config
                    )
                executed += 1
                break
    return executed, task_failures


def _fold_cached(lab: Lab, task: str) -> bool:
    """Fold a disk-cached result into the lab's memo; True on a hit."""
    if lab.cache is None:
        return False
    if task == CORRELATION_TASK:
        data = lab.cache.load_correlation(
            lab.trace.digest(), lab.config.collection_window
        )
        if data is None:
            return False
        lab.store_correlation(data, write_through=False)
        return True
    bitmap = lab.cache.load_bitmap(
        lab.trace.digest(), result_key(task, lab.config)
    )
    if bitmap is None:
        return False
    lab.store_correct(task, bitmap, write_through=False)
    return True
