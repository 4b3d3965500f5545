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

Lanes: the scheduling unit is a *lane*, one ``(benchmark, task)`` chain
of windows.  A whole-trace task is a one-window lane: a worker
regenerates the trace from the job spec (a per-process LRU plus the
shared disk cache make this cheap) and the parent verifies the returned
trace digest before folding.  With ``chunk_branches`` set, the causal
tasks (the rows marked ``chunkable``,
:data:`~repro.analysis.streamed.CHUNKABLE_TASKS`) run as N-window lanes
instead -- each benchmark's columns are published once into
:mod:`multiprocessing.shared_memory` and window ``k`` resumes from the
pickled predictor state window ``k-1`` returned, which the parent
carries between windows.  Nothing trace-length-proportional is ever
pickled into a submission, and the folded bitmaps are bit-identical to
the whole-trace run (the PC011 contract check and the split-point
property tests enforce it against
:func:`~repro.analysis.streamed.chunked_bitmap`).

Determinism: every window is a pure function of its job spec, and the
parent folds finished lanes in the deterministic (sorted-benchmark,
task-order) pending order, so completion order and worker scheduling
cannot change any result.

Resilience: one supervisor loop drives every lane kind.  Each window
submission is one attempt: a failing attempt (worker exception,
injected crash, lost worker, wall-clock timeout) is retried with
deterministic capped backoff up to the
:class:`~repro.resilience.RetryPolicy`'s attempt budget, so deadline and
retry apply per window and a crashed worker costs one window, not the
lane.  A timed-out or broken pool is killed and rebuilt, with innocent
in-flight attempts resubmitted at their *current* attempt number.  A
lane that exhausts a window's budget becomes a structured
:class:`~repro.resilience.TaskFailure` -- the run continues and the lab
computes that task lazily in-process if an experiment needs it.
``KeyboardInterrupt``/``SIGTERM`` tear the pool down cleanly (cancel
pending futures, terminate workers) instead of leaking it.  The
:class:`~repro.resilience.FaultInjector` hooks the same machinery so
crashes, hangs and cache corruption are reproducible in tests: the
same fault spec yields the same attempt sequence -- and identical
folded results and resilience counters -- for ``--jobs 1`` and
``--jobs 4``.  Injected faults target whole task attempts, so an
injector routes every task through whole-trace lanes.

Observability crosses the process boundary the same way the results do:
each worker resets its per-process :data:`repro.obs.METRICS` registry
and :data:`repro.obs.TRACER` per attempt, and ships the metric delta
plus its span events back alongside the result; the parent folds both
in the same order it folds results, so aggregated counters are
independent of completion order and ``sum(worker deltas) ==
single-process counters`` for every work-unit counter.  (A crashed
attempt's delta dies with it; only successful attempts are folded,
identically in serial and parallel runs.)

Worker count comes from ``--jobs``, the :data:`ENV_JOBS` environment
variable, or ``os.cpu_count()``.  ``jobs <= 1`` runs the same
supervisor over an in-process executor: each attempt runs at submission
on the lab's own trace and records telemetry straight into the parent's
registries -- no subprocesses, no pickling of traces or results, but
the same retry/fault semantics.  In-process, an injected hang raises
:class:`~repro.resilience.TaskTimeout` at once; a genuine hang cannot
be preempted without threads.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import CORRELATION_TASK, TASKS, LabConfig
from repro.analysis.shm import SharedTrace, attach_window
from repro.analysis.streamed import CHUNKABLE_TASKS, task_predictor
from repro.obs.metrics import METRICS
from repro.obs.tracing import TRACER, span
from repro.resilience.faults import (
    HANG_SECONDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
)
from repro.resilience.retry import RetryPolicy, TaskFailure, TaskTimeout
from repro.trace.stream import chunk_spans, normalize_chunk_branches
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

    Used by :class:`~repro.analysis.runner.Lab` on a memo/cache miss and
    by every whole-trace attempt, in-process or inside a worker, so
    every path produces bit-identical results and identical
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


def _telemetry(start: float) -> tuple:
    """A worker attempt's metric delta, span events and wall time."""
    return METRICS.snapshot(), TRACER.chrome_events(), time.perf_counter() - start


def _run_task(job: tuple):
    """Worker attempt of a whole-trace lane: ``(result, digest, telemetry)``.

    Module-level so it pickles; regenerates the trace from the job spec
    (per-process LRU in ``load_benchmark`` plus the shared disk cache
    keep this a one-time cost per worker per benchmark) and writes the
    result through to the shared cache.  Returns the simulated trace's
    digest for the parent to verify, and the attempt's metric delta and
    span events so the parent can fold telemetry deterministically.

    ``fault_kinds`` is the pre-matched tuple of injected faults for
    exactly this attempt (the parent does the matching and counting, so
    an attempt that dies cannot lose the accounting).
    """
    name, length, run_seed, config, task, cache_root, source, fault_kinds = job

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
    return result, digest, _telemetry(start)


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


def _run_task_here(lab: Lab, name: str, task: str, fault_kinds: Tuple[str, ...]):
    """In-process attempt of a whole-trace lane, on the lab's own trace.

    An injected hang cannot sleep here -- nothing would preempt it -- so
    it fails the attempt as a timeout at once, keeping the attempt
    sequence (and every resilience counter) identical to a parallel run
    under the same fault spec.
    """
    if "crash" in fault_kinds:
        raise InjectedCrash(f"injected crash: {name}/{task}")
    if "hang" in fault_kinds:
        raise TaskTimeout(f"injected hang: {name}/{task} (in-process)")
    return compute_task(lab.trace, lab.config, task), lab.trace.digest(), None


def _simulate_window(window: Trace, config: LabConfig, task: str, state):
    """One chunk window of a lane: ``(bitmap, state)``.

    ``state`` is the pickled predictor the previous window returned
    (None for the first window).  The new state is pickled too, so a
    failed attempt leaves the lane's carried state untouched for its
    retry, on any worker or in-process.
    """
    predictor = (
        pickle.loads(state) if state is not None else task_predictor(config, task)
    )
    METRICS.inc("sim.chunk_simulations")
    bitmap = np.asarray(predictor.simulate(window), dtype=bool)
    return bitmap, pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)


def _run_chunk(job: tuple):
    """Worker attempt of one chunk window: ``(bitmap, state, telemetry)``.

    The trace window comes from the parent's shared-memory segment --
    no column pickling, no regeneration -- and the predictor resumes
    from the carried state, so the parent can chain the next window on
    any worker.
    """
    shm_name, length, config, task, start, stop, state = job
    METRICS.reset()
    TRACER.reset()
    begin = time.perf_counter()
    window, handle = attach_window(shm_name, length, start, stop)
    try:
        with span("chunk", task=task, start=start, stop=stop):
            bitmap, state = _simulate_window(window, config, task, state)
    finally:
        del window
        try:
            handle.close()
        except BufferError:
            pass
    return bitmap, state, _telemetry(begin)


def _run_window_here(lab: Lab, task: str, start: int, stop: int, state):
    """In-process attempt of one chunk window, on a zero-copy slice."""
    bitmap, state = _simulate_window(
        lab.trace[start:stop], lab.config, task, state
    )
    return bitmap, state, None


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


class _InProcessPool:
    """The ``jobs <= 1`` executor: runs each attempt as it is submitted.

    It stands in for both :class:`WorkerPool` (``handle``/``rebuild``/
    ``drain``) and its executor (``submit`` returns an already finished
    future), so the supervisor drives it with the same loop.
    """

    def handle(self) -> "_InProcessPool":
        return self

    def rebuild(self) -> None:
        pass

    def drain(self, kill: bool = False) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future


class _Lane:
    """One ``(benchmark, task)`` chain of windows and its parent-side state.

    ``spans`` is None for a whole-trace lane (one window), else the
    ``(start, stop)`` chunk windows.  ``spec`` is the picklable job
    prefix a worker needs (None in-process).  ``carry`` is what the last
    finished window handed on: the pickled predictor state the next
    chunk window resumes from, or, after a whole-trace window, the
    digest of the trace the attempt simulated.  ``kinds`` are the
    injected faults of the latest attempt.
    """

    def __init__(
        self,
        name: str,
        task: str,
        lab: Lab,
        spans: Optional[List[Tuple[int, int]]],
        spec: Optional[tuple],
    ) -> None:
        self.name = name
        self.task = task
        self.lab = lab
        self.spans = spans
        self.spec = spec
        self.windows = 1 if spans is None else len(spans)
        self.next = 0
        self.carry = None
        self.kinds: Tuple[str, ...] = ()
        self.parts: list = []
        self.telemetry: List[tuple] = []

    @property
    def done(self) -> bool:
        return self.next == self.windows


class _Supervisor:
    """Drives every lane of one priming pass: submit, retry, kill, rebuild.

    A lane has at most one window in flight; windows of different lanes
    run in parallel.  Each window submission is one attempt with its
    own deadline and attempt budget.
    """

    def __init__(
        self,
        jobs: int,
        lanes: Sequence[_Lane],
        policy: RetryPolicy,
        injector: Optional[FaultInjector],
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.jobs = jobs
        self.policy = policy
        self.injector = injector
        self.local = jobs <= 1
        self.ready = deque((lane, 1) for lane in lanes)
        #: Heap of ``(ready_at, seq, lane, attempt)`` backing off.
        self.waiting: List[Tuple[float, int, _Lane, int]] = []
        self.active: Dict[Future, Tuple[_Lane, int, Optional[float]]] = {}
        self.failures: List[TaskFailure] = []
        self._seq = 0
        # A shared pool outlives this pass (the owning session drains
        # it); a private one is built on demand and reaped at the end.
        self._shared = pool is not None
        if self.local:
            self._pool = _InProcessPool()
        else:
            self._pool = pool if pool is not None else WorkerPool(jobs)

    # -- pool lifecycle ----------------------------------------------------

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

    def _attempt(self, lane: _Lane) -> Future:
        """Submit the lane's next window to the executor."""
        executor = self._pool.handle()
        if lane.spans is None:
            if self.local:
                return executor.submit(
                    _run_task_here, lane.lab, lane.name, lane.task, lane.kinds
                )
            return executor.submit(_run_task, lane.spec + (lane.kinds,))
        start, stop = lane.spans[lane.next]
        if self.local:
            return executor.submit(
                _run_window_here, lane.lab, lane.task, start, stop, lane.carry
            )
        return executor.submit(_run_chunk, lane.spec + (start, stop, lane.carry))

    def _submit(self, lane: _Lane, attempt: int) -> None:
        lane.kinds = ()
        if self.injector is not None:
            lane.kinds = self.injector.kinds(lane.name, lane.task, attempt)
            for kind in lane.kinds:
                METRICS.inc(f"resilience.faults.{kind}")
                METRICS.inc("resilience.faults_injected")
        try:
            future = self._attempt(lane)
        except BrokenProcessPool:
            # The pool broke between loops; rebuild once and resubmit.
            self._rebuild_pool()
            future = self._attempt(lane)
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None
            else None
        )
        self.active[future] = (lane, attempt, deadline)

    def _on_attempt_failure(
        self, lane: _Lane, attempt: int, kind: str, message: str
    ) -> None:
        if kind == "timeout":
            METRICS.inc("resilience.timeouts")
        if attempt >= self.policy.max_attempts:
            METRICS.inc("resilience.task_failures")
            self.failures.append(
                TaskFailure(
                    benchmark=lane.name,
                    task=lane.task,
                    attempts=attempt,
                    kind=kind,
                    message=message,
                )
            )
            return
        # Queue the next attempt after its deterministic backoff.
        backoff = self.policy.backoff(attempt)
        METRICS.inc("resilience.retries")
        METRICS.add_time("resilience.backoff_seconds", backoff)
        self._seq += 1
        heapq.heappush(
            self.waiting,
            (time.monotonic() + backoff, self._seq, lane, attempt + 1),
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        try:
            while self.ready or self.waiting or self.active:
                now = time.monotonic()
                while self.waiting and self.waiting[0][0] <= now:
                    _, _, lane, attempt = heapq.heappop(self.waiting)
                    self.ready.append((lane, attempt))
                while self.ready and len(self.active) < self.jobs:
                    lane, attempt = self.ready.popleft()
                    self._submit(lane, attempt)
                if not self.active:
                    # Everything left is backing off; sleep to the next
                    # ready time instead of spinning.
                    if self.waiting:
                        next_at = self.waiting[0][0]
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

    def _collect(self, done) -> bool:
        """Harvest finished attempts; False if the pool broke mid-batch."""
        for future in done:
            lane, attempt, _ = self.active.pop(future)
            try:
                part, carry, telemetry = future.result()
            except BrokenProcessPool as error:
                self._on_pool_broken(lane, attempt, error)
                return False
            except Exception as error:
                kind = "timeout" if isinstance(error, TaskTimeout) else "error"
                self._on_attempt_failure(
                    lane, attempt, kind, f"{type(error).__name__}: {error}"
                )
            else:
                lane.parts.append(part)
                lane.carry = carry
                if telemetry is not None:
                    lane.telemetry.append(telemetry)
                lane.next += 1
                if not lane.done:
                    self.ready.append((lane, 1))
        return True

    def _on_pool_broken(self, lane: _Lane, attempt: int, error) -> None:
        """A worker died hard; every in-flight attempt went down with it.

        The culprit is unknowable from the parent, so every in-flight
        attempt (the reporting one included) is charged one attempt --
        each lane still gets its full retry budget, resumes from its
        parent-side carried state, and a persistent hard-crasher cannot
        rebuild the pool forever.
        """
        victims = [(lane, attempt)]
        for future, (other, other_attempt, _) in self.active.items():
            future.cancel()
            victims.append((other, other_attempt))
        self.active.clear()
        self._rebuild_pool()
        for victim, victim_attempt in victims:
            self._on_attempt_failure(
                victim, victim_attempt, "worker-lost",
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
        # takes every in-flight attempt with it: timed-out attempts are
        # charged and retried, innocents resubmitted at the same attempt.
        expired_futures = {future for future, _ in expired}
        innocents = [
            (lane, attempt)
            for future, (lane, attempt, _) in self.active.items()
            if future not in expired_futures
        ]
        self.active.clear()
        self._rebuild_pool()
        for _, (lane, attempt, _) in expired:
            self._on_attempt_failure(
                lane, attempt, "timeout",
                f"attempt exceeded {self.policy.timeout:.3f}s wall clock",
            )
        for lane, attempt in reversed(innocents):
            self.ready.appendleft((lane, attempt))


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
        chunk_branches: If set, run every chunkable task
            (:data:`~repro.analysis.streamed.CHUNKABLE_TASKS`) as a lane
            of fixed windows of this many branches instead of one
            whole-trace window.  Results are bit-identical either way.
            Ignored for traces no longer than one chunk, and (because
            injected faults target whole task attempts) whenever
            ``injector`` is set.
        sources: Per-benchmark trace-source descriptors workers use to
            rematerialise job traces (see :func:`_worker_trace`); None
            (or an absent name) means the legacy suite trace.  Chunk
            windows ignore this -- they ship from the parent's columns
            over shared memory.

    Returns:
        The number of lanes that completed (0 means everything was
        cached).

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

    # Injected faults target whole (benchmark, task) attempts; chunking
    # would change that accounting, so an injector keeps every task on
    # a whole-trace lane.
    chunk_size = None
    if chunk_branches is not None and injector is None:
        chunk_size = normalize_chunk_branches(chunk_branches)
    local = jobs <= 1
    cache_root = str(cache.root) if cache is not None else None
    segments: Dict[str, SharedTrace] = {}
    try:
        lanes = []
        for name, task in pending:
            lab = labs[name]
            n = len(lab.trace)
            spans = None
            if chunk_size is not None and task in CHUNKABLE_TASKS and n > chunk_size:
                spans = chunk_spans(n, chunk_size)
            if local:
                spec = None
            elif spans is None:
                source = sources.get(name) if sources is not None else None
                spec = (name, n, run_seed, lab.config, task, cache_root, source)
            else:
                if name not in segments:
                    segments[name] = SharedTrace.create(lab.trace)
                spec = (segments[name].name, n, lab.config, task)
            lanes.append(_Lane(name, task, lab, spans, spec))
        supervisor = _Supervisor(jobs, lanes, policy, injector, pool)
        with span(
            "prime_labs", jobs=jobs, pending=len(lanes),
            chunk_branches=chunk_size,
        ):
            supervisor.run()
    finally:
        for segment in segments.values():
            segment.unlink()

    # Fold in deterministic (sorted-name, task-order) order, verifying a
    # whole-trace worker simulated the same trace the lab holds.  Metric
    # deltas and span events fold in the same order, so aggregate
    # telemetry is independent of worker scheduling.
    executed = 0
    for lane in lanes:
        if not lane.done:
            continue  # failed after retries; recorded below
        lab = lane.lab
        if lane.telemetry:
            seconds = 0.0
            for delta, events, duration in lane.telemetry:
                METRICS.merge(delta)
                TRACER.add_events(events)
                seconds += duration
            METRICS.add_time("parallel.job_seconds", seconds)
        if lane.spans is None:
            if lane.carry != lab.trace.digest():
                # Worker regenerated a different trace (ad-hoc lab):
                # discard and let the lab compute lazily.
                continue
            result = lane.parts[0]
        else:
            METRICS.inc("sim.chunked_simulations")
            result = np.concatenate(lane.parts)
        # Whole-trace workers already wrote the shared cache; skip the
        # second write.
        write_through = local or lane.spans is not None or cache is None
        if lane.task == CORRELATION_TASK:
            lab.store_correlation(result, write_through=write_through)
        else:
            lab.store_correct(lane.task, result, write_through=write_through)
        if "corrupt" in lane.kinds and lab.cache is not None:
            _corrupt_result_entry(
                lab.cache, lab.trace.digest(), lane.task, lab.config
            )
        executed += 1
    METRICS.inc("parallel.jobs_executed", executed)
    _report_failures(supervisor.failures, failures)
    return executed


def _report_failures(
    task_failures: List[TaskFailure], sink: Optional[list]
) -> None:
    """Deliver structured failures in a schedule-independent order."""
    if sink is None:
        return
    for failure in sorted(task_failures, key=lambda f: (f.benchmark, f.task)):
        sink.append(failure.to_dict())


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
