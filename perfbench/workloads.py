"""The benchmark's three workloads.

Each workload is driven from outside the program: it builds its inputs
from the seed, calls ``repro``'s public functions, times them, and
checks the outputs.  A workload has three phases:

* ``setup()`` -- untimed by the workload itself (``run.py`` times it and
  repeats it); leaves everything the measured phase needs ready, and
  warms lazy imports and the worker pool with one small pass;
* ``measure(seconds)`` -- the end-to-end numbers, tracing off;
* ``traced()`` -- the per-layer numbers: the benchmark calls each layer
  one at a time in dependency order, one span per call, then runs the
  same work untraced to give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from harness import Timer, Tracer, median, table_mae_points, tail, wrapped

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import (
    CORRELATION_TASK,
    WorkerPool,
    compute_task,
)
from repro.analysis.runner import Lab
from repro.api import EngineSession, run_spec
from repro.client import ServeClient
from repro.errors import AdmissionError
from repro.experiments.base import EXPERIMENT_IDS, experiment_requires, run_experiment
from repro.experiments.fig5 import HISTORY_LENGTHS
from repro.obs.manifest import build_manifest
from repro.plan import build_plan
from repro.resilience.journal import RunJournal, spec_run_key
from repro.serve import AnalysisServer, ServerThread
from repro.spec import EngineOptions, ImportedSource, RunSpec, WorkloadSpec, spec_from_kwargs
from repro.trace.ingest import ingest_file, load_imported_trace
from repro.trace.stream import read_trace, write_text_trace
from repro.workloads import suite
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark, scaled_length, stream_benchmark

#: The eight simulation tasks, in the order the sim.* metrics list them.
SIM_TASKS = (
    "gshare", "if_gshare", "pas", "if_pas", "loop", "block", "ideal_static", "fixed_best",
)

#: Share of the traced wall the layer spans may leave unattributed.
ATTRIBUTION_TOLERANCE = 0.02

#: Branches per trace of the small pass that warms imports and workers.
WARMUP_LENGTH = 300

#: Experiments of that pass: fig4 and fig5 are left out because their
#: oracle sweeps cost seconds even at tiny scale and reach no code the
#: others do not.
WARMUP_EXPERIMENTS = ("table1", "table2", "fig6", "table3", "fig7", "fig8", "fig9")


@dataclass
class Outcome:
    """What one phase measured: metric values, op counts and checks."""

    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)

    @property
    def correct(self) -> bool:
        return not self.mismatches


@dataclass
class Context:
    """Per-process run state: seed, worker count and scratch space."""

    work: Path
    seed: int
    jobs: int
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    _dirs: int = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = self.work / f"{self._dirs:03d}-{label}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return str(path)


def derived_seed(*parts: Any) -> int:
    """A deterministic workload seed for a sub-run (iteration, client...)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") % (2 ** 31)


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True)


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """A timing as its median, unit, sample count and the samples."""
    return {"value": median(values), "unit": unit, "samples": len(values),
            "values": list(values)}


def results_json(results: Dict[str, Any]) -> Dict[str, str]:
    return {eid: result.to_json() for eid, result in results.items()}


def requires(experiment_ids: Sequence[str]) -> Tuple[str, ...]:
    """Simulation tasks the experiments declared (correlation excluded)."""
    tasks = {t for eid in experiment_ids for t in experiment_requires(eid)}
    return tuple(t for t in SIM_TASKS if t in tasks)


def session(jobs: int, pool: Optional[WorkerPool], cache_dir: Optional[str] = None,
            chunk_branches: Optional[int] = None) -> EngineSession:
    """An engine session on the shared warm pool (never closed by us)."""
    engine = EngineSession.resolve(EngineOptions(
        jobs=jobs, cache=cache_dir is not None, cache_dir=cache_dir,
        chunk_branches=chunk_branches,
    ))
    engine.pool = pool
    return engine


def clear_trace_memo() -> None:
    """Drop the generator's in-process trace memo, so the next run
    generates its traces again as a fresh process would."""
    suite._cached_trace.cache_clear()


def layer_targets() -> List[Tuple[Any, str, Any]]:
    """Public layer entry points reached from inside the engine."""
    import repro.api as api
    import repro.experiments.base as base
    import repro.trace.ingest as ingest

    return [
        (ResultCache, "load_bitmap", "analysis.cache.load"),
        (ResultCache, "load_correlation", "analysis.cache.load"),
        (ResultCache, "load_trace", "analysis.cache.load"),
        (ResultCache, "store_bitmap", "analysis.cache.store"),
        (ResultCache, "store_correlation", "analysis.cache.store"),
        (ResultCache, "store_trace", "analysis.cache.store"),
        (RunJournal, "record", "resilience.journal"),
        (api, "build_manifest", "obs.manifest"),
        (api, "build_plan", "plan.build"),
        (api, "run_experiment", lambda eid, labs: f"experiments.{eid}"),
        (base, "load_benchmark", "workloads.generate"),
        (ingest, "load_imported_trace", "trace.open"),
    ]


def decompose(
    tracer: Tracer,
    spec: RunSpec,
    open_traces: Callable[[], Dict[str, Any]],
    cache: Optional[ResultCache],
    journal_path: str,
    selective: bool,
) -> Tuple[Dict[str, Any], Dict[str, Lab]]:
    """Run one spec layer by layer, each call in its own span.

    The order is the dependency order of a cold report: plan, traces,
    simulations, correlation collection, oracle selection, selective
    replay, experiments, rendering, manifest, journal.  Oracle
    selection covers every (count, window) the experiments read,
    including the fig5 windows.
    """
    with tracer.span("plan.build"):
        build_plan(spec)
    traces = open_traces()
    labs = {name: Lab(trace, spec.config, cache=cache) for name, trace in traces.items()}
    window = spec.config.selective_window
    keys = list(dict.fromkeys(
        [(count, window) for count in (1, 2, 3)] + [(3, n) for n in HISTORY_LENGTHS]
    ))
    for lab in labs.values():
        for task in requires(spec.experiments):
            with tracer.span(f"sim.{task}"):
                bitmap = compute_task(lab.trace, lab.config, task)
            lab.store_correct(task, bitmap)
        if not selective:
            continue
        with tracer.span("correlation.collect"):
            data = compute_task(lab.trace, lab.config, CORRELATION_TASK)
        lab.store_correlation(data)
        for count, n in keys:
            with tracer.span("correlation.select"):
                lab.selections(count, n)
            with tracer.span("predictors.selective_replay"):
                lab.selective_correct(count, n)
    results = {}
    for experiment_id in spec.experiments:
        with tracer.span(f"experiments.{experiment_id}"):
            results[experiment_id] = run_experiment(experiment_id, labs)
    with tracer.span("experiments.render"):
        for result in results.values():
            result.render()
    workload = spec.workload
    with tracer.span("obs.manifest"):
        build_manifest(
            command=None, config=spec.config, run_seed=workload.seed,
            max_length=workload.max_length, jobs=1, cache_enabled=cache is not None,
            cache_dir=str(cache.root) if cache is not None else None, labs=labs,
            results=results, experiment_timings=[], metrics={}, timings={},
            spec_digest=spec.digest(),
            trace_source={"kind": workload.kind, **workload.identity_dict()},
        )
    journal = RunJournal(journal_path, fresh=True)
    key = spec_run_key(spec.input_digest(), labs)
    try:
        for experiment_id, result in results.items():
            with tracer.span("resilience.journal"):
                journal.record(experiment_id, key, result)
    finally:
        journal.close()
    return results, labs


def work_counts(tracer: Tracer, labs: Dict[str, Lab], selective: bool) -> Dict[str, float]:
    """Work done by a decomposition, counted after it (outside its spans)."""
    counts = {
        "workloads.branches": sum(len(lab.trace) for lab in labs.values()),
        "correlation.select_calls": len(tracer.durations("correlation.select")),
    }
    if selective:
        counts["correlation.tag_entries"] = sum(
            len(entries)
            for lab in labs.values()
            for branch in lab.correlation_data().branches.values()
            for entries in branch.tag_entries.values()
        )
    return counts


def layer_values(tracer: Tracer, root: str, untraced_seconds: float,
                 from_outside: Sequence[str] = ()) -> Dict[str, float]:
    """Per-layer self times of the decomposition under ``root``.

    Layers named in ``from_outside`` are taken from the spans recorded
    outside that decomposition instead (the warm pass, served traffic).
    Also reports the traced wall, the layers' sum, the unattributed
    remainder and the traced-minus-untraced overhead.
    """
    wall, layers = tracer.subtree(root)
    outside = tracer.self_times(lambda top: top["name"] != root)
    values = {f"{name}_s": seconds for name, seconds in layers.items()}
    for name in from_outside:
        values[f"{name}_s"] = outside.get(name, 0.0)
    layer_sum = sum(layers.values())
    values.update({
        "attribution.traced_wall_s": wall,
        "attribution.layer_sum_s": layer_sum,
        "attribution.unattributed_s": wall - layer_sum,
        "attribution.untraced_wall_s": untraced_seconds,
        "attribution.tracing_overhead_s": wall - untraced_seconds,
    })
    return values


def synthetic_traces(tracer: Tracer, length: int, seed: int) -> Callable[[], Dict[str, Any]]:
    def open_traces():
        traces = {}
        for name in BENCHMARK_NAMES:
            with tracer.span("workloads.generate"):
                traces[name] = load_benchmark(name, scaled_length(name, length), seed)
        return traces

    return open_traces


def engine_run(spec: RunSpec, engine: EngineSession) -> Tuple[Any, Dict[str, float]]:
    """One ``run_spec`` at the workload's jobs, timed around ``prime_labs``.

    Gives the priming pass's wall time and counts, and the run
    manifest's own ``sim.seconds`` / ``experiments.seconds`` timers (the
    attribution baseline: nested timers count time more than once).
    """
    import repro.analysis.parallel as parallel

    timing = Tracer()
    with wrapped(timing, [(parallel, "prime_labs", "prime")]):
        run = run_spec(spec, engine=engine)
    counters = run.metrics.get("counters", {})
    timers = run.manifest["metrics"]["timers"]
    return run, {
        "analysis.parallel.prime_s": sum(timing.durations("prime")),
        "analysis.parallel.tasks": counters.get("parallel.jobs_executed", 0)
        + counters.get("sim.chunk_simulations", 0),
        "analysis.parallel.retries": counters.get("resilience.retries", 0) + len(run.failures),
        "attribution.manifest_sim_s": timers.get("sim.seconds", {}).get("seconds", 0.0),
        "attribution.manifest_experiments_s":
            timers.get("experiments.seconds", {}).get("seconds", 0.0),
    }


class Workload:
    """Template of a workload; subclasses fill in the phases.

    ``traced()`` is shared: a traced decomposition (spans on, layer
    wrappers on), the same decomposition untraced (its wall time gives
    the tracing overhead), then ``engine()`` -- the workload's own
    engine path at its jobs, checked against the decomposition.
    """

    name = ""
    selective = False
    #: Layers read from spans outside the decomposition (see ``layer_values``).
    outside: Tuple[str, ...] = ("analysis.cache.load",)
    #: Largest unattributed share of the traced wall, when it is checked.
    attribution_tolerance: Optional[float] = None

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def decompose(self, tracer: Tracer, out: Outcome) -> Tuple[Dict[str, Any], Dict[str, Lab]]:
        """The workload's work at jobs=1, layer by layer (see ``decompose``)."""
        raise NotImplementedError

    def engine(self, out: Outcome, expected: Dict[str, str]) -> None:
        """The workload's engine path at its jobs, checked against ``expected``."""
        raise NotImplementedError

    def traced(self) -> Outcome:
        tracer = self.ctx.tracer
        out = Outcome()
        with wrapped(tracer, layer_targets()):
            with tracer.span(self.name):
                results, labs = self.decompose(tracer, out)
        out.values.update(work_counts(tracer, labs, self.selective))
        expected = results_json(results)
        del results, labs
        gc.collect()
        with Timer() as untraced:
            again, _ = self.decompose(Tracer(enabled=False), Outcome())
        out.check(results_json(again) == expected,
                  "untraced decomposition differs from the traced one")
        del again
        gc.collect()
        self.engine(out, expected)
        out.values.update(layer_values(tracer, self.name, untraced.seconds, self.outside))
        if self.attribution_tolerance is not None:
            unattributed = out.values["attribution.unattributed_s"]
            wall = out.values["attribution.traced_wall_s"]
            out.check(abs(unattributed) <= self.attribution_tolerance * wall,
                      f"layer self times leave {unattributed:.3f}s of {wall:.3f}s unattributed")
        return out

    def close(self) -> None:
        """Stop every process and thread the workload started."""


# -- paper_report -------------------------------------------------------------


class PaperReport(Workload):
    """The nine paper experiments, cold into a fresh cache then warm."""

    name = "paper_report"
    selective = True
    attribution_tolerance = ATTRIBUTION_TOLERANCE

    def __init__(self, ctx: Context, length: int = 50_000, warm_passes: int = 5,
                 reference: Optional[Dict[str, str]] = None) -> None:
        super().__init__(ctx)
        self.length = length
        self.warm_passes = warm_passes
        self.reference = reference or {}
        self.pool = WorkerPool(ctx.jobs)

    def spec(self, seed: int, cache_dir: Optional[str], jobs: Optional[int] = None) -> RunSpec:
        return spec_from_kwargs(
            EXPERIMENT_IDS, max_length=self.length, seed=seed,
            jobs=jobs or self.ctx.jobs, use_cache=cache_dir is not None, cache_dir=cache_dir,
        )

    def setup(self) -> None:
        warm = self.ctx.fresh_dir("warmup")
        spec = spec_from_kwargs(WARMUP_EXPERIMENTS, max_length=WARMUP_LENGTH, seed=self.ctx.seed)
        run_spec(spec, engine=session(self.ctx.jobs, self.pool, warm))

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        cold: List[float] = []
        warm: List[float] = []
        branches = 0
        start = time.perf_counter()
        iteration = 0
        last = 0.0
        # Start another cold+warm iteration only if it fits in ``seconds``.
        while iteration == 0 or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            seed = self.ctx.seed if iteration == 0 else derived_seed(self.ctx.seed, iteration)
            cache_dir = self.ctx.fresh_dir("report")
            with Timer() as timer:
                run = run_spec(self.spec(seed, cache_dir),
                               engine=session(self.ctx.jobs, self.pool, cache_dir))
            cold.append(timer.seconds)
            out.check(run.ok, f"cold pass {iteration} failed: {run.failures}")
            expected = results_json(run.results)
            if iteration == 0:
                branches = sum(len(lab.trace) for lab in run.labs.values())
                out.values["paper_table_mae_pts"] = table_mae_points(run.results)
                out.report["result_digests"] = digests = {
                    e["id"]: e["result_digest"] for e in run.manifest["experiments"]
                }
                reference = self.reference
                if reference.get("digests") and (reference["seed"], reference["length"]) == (
                        seed, self.length):
                    out.check(digests == reference["digests"],
                              "cold results differ from the recorded reference digests")
            del run
            gc.collect()
            for _ in range(self.warm_passes):
                engine = session(self.ctx.jobs, self.pool, cache_dir)
                with Timer() as timer:
                    run = run_spec(self.spec(seed, cache_dir), engine=engine)
                warm.append(timer.seconds)
                out.check(run.ok and results_json(run.results) == expected,
                          f"warm pass {iteration} differs from its cold pass")
                del run
                gc.collect()
            shutil.rmtree(cache_dir, ignore_errors=True)
            iteration += 1
            last = time.perf_counter() - began
        out.values.update({
            "first_result_s": median(cold),
            "repeat_result_s": median(warm),
            "branches_per_s": branches / median(cold),
        })
        out.report.update({
            "report_cold_s": summary(cold, "s"),
            "report_warm_s": summary(warm, "s"),
            "length": self.length,
        })
        return out

    def decompose(self, tracer: Tracer, out: Outcome):
        clear_trace_memo()
        directory = self.ctx.fresh_dir("decompose")
        return decompose(
            tracer, self.spec(self.ctx.seed, directory, jobs=1),
            synthetic_traces(tracer, self.length, self.ctx.seed),
            ResultCache(directory), os.path.join(directory, "journal.jsonl"), selective=True,
        )

    def engine(self, out: Outcome, expected: Dict[str, str]) -> None:
        """A cold run at the workload's jobs, then a warm run timing cache reads."""
        directory = self.ctx.fresh_dir("engine")
        spec = self.spec(self.ctx.seed, directory)
        run, values = engine_run(spec, session(self.ctx.jobs, self.pool, directory))
        out.values.update(values)
        out.check(run.ok and results_json(run.results) == expected,
                  "cold run differs from the decomposition")
        del run
        gc.collect()
        warm = session(self.ctx.jobs, self.pool, directory)
        with wrapped(self.ctx.tracer, layer_targets()):
            run = run_spec(spec, engine=warm)
        out.check(run.ok and results_json(run.results) == expected,
                  "warm run differs from the decomposition")
        out.values.update(cache_counts(warm.cache))

    def close(self) -> None:
        self.pool.drain()


def cache_counts(cache: ResultCache) -> Dict[str, float]:
    return {
        "analysis.cache.hits": cache.stats.hits,
        "analysis.cache.misses": cache.stats.misses,
        "analysis.cache.bytes": cache.total_bytes(),
    }


# -- import_stream ------------------------------------------------------------


class ImportStream(Workload):
    """Foreign text traces ingested to BPT2, then a streamed sim-only report."""

    name = "import_stream"
    experiments = ("fig6", "fig7", "fig9", "table3")
    outside = ()

    def __init__(self, ctx: Context, length: int = 1_000_000,
                 benchmarks: Sequence[str] = ("gcc", "go"), chunk_branches: int = 65_536) -> None:
        super().__init__(ctx)
        self.length = length
        self.benchmarks = tuple(benchmarks)
        self.chunk_branches = chunk_branches
        self.pool = WorkerPool(ctx.jobs)
        self.texts: Dict[str, str] = {}
        self.digests: Dict[str, str] = {}

    def setup(self) -> None:
        """Write one CBP-style text trace per benchmark, then warm up."""
        directory = self.ctx.fresh_dir("texts")
        self.texts, self.digests = {}, {}
        for name in self.benchmarks:
            spill = os.path.join(directory, f"{name}.gen.bpt")
            stream_benchmark(name, spill, self.length, self.ctx.seed)
            trace = read_trace(spill)
            self.digests[name] = trace.digest()
            self.texts[name] = os.path.join(directory, f"{name}.txt")
            write_text_trace(trace, self.texts[name])
            del trace
            os.unlink(spill)
        warm = self.ctx.fresh_dir("warmup")
        tiny = os.path.join(warm, "tiny.txt")
        write_text_trace(load_benchmark(self.benchmarks[0], WARMUP_LENGTH, self.ctx.seed), tiny)
        entry = ingest_file(tiny, os.path.join(warm, "tiny.bpt"), name="tiny").to_entry()
        run_spec(self.spec([entry], self.ctx.seed), engine=self.session())

    def session(self) -> EngineSession:
        return session(self.ctx.jobs, self.pool, chunk_branches=self.chunk_branches)

    def spec(self, entries, seed: int, jobs: Optional[int] = None,
             chunk_branches: Optional[int] = None) -> RunSpec:
        return RunSpec(
            experiments=self.experiments,
            workload=ImportedSource(traces=tuple(entries), seed=seed),
            engine=EngineOptions(jobs=jobs or self.ctx.jobs, cache=False,
                                 chunk_branches=chunk_branches),
        )

    def ingest(self, out: Outcome, tracer: Optional[Tracer] = None,
               rates: Optional[List[float]] = None):
        """Spill every text trace to BPT2; check each content digest.

        Appends each file's ingest rate (branches/s) to ``rates``.
        """
        directory = self.ctx.fresh_dir("ingest")
        entries = []
        for name, text in self.texts.items():
            with tracer.span("trace.ingest") if tracer else contextlib.nullcontext(), \
                    Timer() as timer:
                result = ingest_file(text, os.path.join(directory, f"{name}.bpt"), name=name,
                                     chunk_branches=self.chunk_branches)
            if rates is not None:
                rates.append(result.branches / timer.seconds)
            out.check(result.digest == self.digests[name],
                      f"ingested {name} digest {result.digest} != generated {self.digests[name]}")
            entries.append(result.to_entry())
        return directory, entries

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        ingest_s: List[float] = []
        rates: List[float] = []
        report_s: List[float] = []
        expected: Optional[Dict[str, str]] = None
        start = time.perf_counter()
        while not ingest_s or time.perf_counter() - start < seconds:
            with Timer() as timer:
                directory, entries = self.ingest(out, rates=rates)
            ingest_s.append(timer.seconds)
            with Timer() as timer:
                run = run_spec(self.spec(entries, self.ctx.seed, chunk_branches=self.chunk_branches),
                               engine=self.session())
            report_s.append(timer.seconds)
            produced = results_json(run.results)
            if expected is None:
                expected = produced
                out.values["paper_table_mae_pts"] = table_mae_points(run.results)
            out.check(run.ok and produced == expected, "stream report differs between passes")
            del run
            shutil.rmtree(directory, ignore_errors=True)
        totals = [a + b for a, b in zip(ingest_s, report_s)]
        out.values.update({
            "first_result_s": median(totals),
            "repeat_result_s": median(report_s),
            "branches_per_s": median(rates),
        })
        out.report.update({
            "ingest_branches_per_s": summary(rates, "branches/s"),
            "stream_report_s": summary(report_s, "s"),
            "branches": self.length * len(self.texts),
        })
        return out

    def decompose(self, tracer: Tracer, out: Outcome):
        directory, entries = self.ingest(out, tracer)
        out.values["trace.ingest_branches"] = self.length * len(entries)

        def open_traces():
            traces = {}
            for entry in entries:
                with tracer.span("trace.open"):
                    traces[entry.name] = load_imported_trace(
                        entry.path, expected_digest=entry.digest)
            return traces

        return decompose(tracer, self.spec(entries, self.ctx.seed, jobs=1), open_traces, None,
                         os.path.join(directory, "journal.jsonl"), selective=False)

    def engine(self, out: Outcome, expected: Dict[str, str]) -> None:
        """The streamed report at the workload's jobs, chunked, cache off."""
        _, entries = self.ingest(out)
        spec = self.spec(entries, self.ctx.seed, chunk_branches=self.chunk_branches)
        run, values = engine_run(spec, self.session())
        out.values.update(values)
        out.check(run.ok and results_json(run.results) == expected,
                  "streamed report differs from the decomposition")

    def close(self) -> None:
        self.pool.drain()


# -- serve_mixed --------------------------------------------------------------


class ServeMixed(Workload):
    """Two closed-loop clients cycling fresh, fresh, revisit, dedup."""

    name = "serve_mixed"
    fresh_experiments = ("fig7", "fig9", "table3")
    revisit_experiments = ("fig6", "ext_hybrid")
    outside = ("analysis.cache.load", "experiments.fig6", "experiments.ext_hybrid")
    cycle = ("fresh", "fresh", "revisit", "dedup")
    clients = 2

    def __init__(self, ctx: Context, length: int = 10_000) -> None:
        super().__init__(ctx)
        self.length = length
        self.thread: Optional[ServerThread] = None
        self.server: Optional[AnalysisServer] = None
        self.references: Dict[int, Dict[str, Any]] = {}

    def fresh_spec(self, client: int, index: int) -> RunSpec:
        return RunSpec(
            experiments=self.fresh_experiments,
            workload=WorkloadSpec(max_length=self.length,
                                  seed=derived_seed(self.ctx.seed, "serve", client, index)),
        )

    def setup(self) -> None:
        """Start a server with cache and journal on; record direct results."""
        self.close()
        directory = self.ctx.fresh_dir("serve")
        self.server = AnalysisServer(
            EngineOptions(jobs=self.ctx.jobs, cache=True,
                          cache_dir=os.path.join(directory, "cache"),
                          journal=os.path.join(directory, "journal.jsonl")),
            drain_grace=0.0,
        )
        self.thread = ServerThread(self.server)
        self.url = self.thread.start()
        client = ServeClient(self.url, client_id="warmup")
        warmup = RunSpec(
            experiments=self.fresh_experiments + self.revisit_experiments,
            workload=WorkloadSpec(max_length=WARMUP_LENGTH, seed=self.ctx.seed),
        )
        run_id, _ = client.submit(warmup)
        final = [e for e in client.events(run_id) if e["type"] in ("done", "failed")]
        if not final or final[-1]["type"] != "done":
            raise RuntimeError(f"warm-up run did not finish cleanly: {final}")
        self.references = {}
        for index in range(self.clients):
            spec = self.fresh_spec(index, 0)
            run = run_spec(spec, engine=session(self.ctx.jobs, self.server.session.pool))
            self.references[index] = {
                "results": {eid: r.to_dict() for eid, r in run.results.items()},
                "branches": sum(len(lab.trace) for lab in run.labs.values()),
                "mae": table_mae_points(run.results),
            }

    def client_loop(self, index: int, deadline: Optional[float], cycles: Optional[int],
                    samples: Dict[str, list], out: Outcome, lock: threading.Lock) -> None:
        """One closed-loop client: each run waits for its terminal event.

        Stops at ``deadline`` (after at least one whole cycle) or after
        ``cycles`` cycles.  The first fresh run of a cycle is the one its
        dedup repeats; the client's very first run is also compared with
        the direct ``run_spec`` result recorded in setup.
        """
        client = ServeClient(self.url, client_id=f"client-{index}")
        fresh_count = 0
        last_fresh = cycle_first = cycle_first_envelope = None
        for step in itertools.count():
            if cycles is not None and step >= cycles * len(self.cycle):
                break
            if (deadline is not None and step >= len(self.cycle)
                    and time.perf_counter() >= deadline):
                break
            kind = self.cycle[step % len(self.cycle)]
            if kind == "fresh":
                spec = last_fresh = self.fresh_spec(index, fresh_count)
                fresh_count += 1
            elif kind == "revisit":
                spec = RunSpec(experiments=self.revisit_experiments, workload=last_fresh.workload)
            elif cycle_first is None:  # this cycle's first fresh run was refused
                with lock:
                    out.check(False, f"client {index}: no fresh run to repeat")
                continue
            else:
                spec = cycle_first
            try:
                record = self.one_run(client, spec)
            except AdmissionError:
                with lock:
                    samples["refused"].append(1)
                    out.check(False, f"client {index}: {kind} run refused (429)")
                continue
            ok = record["final"] == "done" and record["created"] == (kind != "dedup")
            if step % len(self.cycle) == 0:
                cycle_first = spec
                cycle_first_envelope = canonical(client.result(record["run_id"]))
                if step == 0:
                    served = json.loads(cycle_first_envelope)["results"]
                    ok = ok and canonical({e: r["payload"] for e, r in served.items()}) == \
                        canonical(self.references[index]["results"])
            elif kind == "dedup":
                ok = ok and canonical(client.result(record["run_id"])) == cycle_first_envelope
            with lock:
                out.check(ok, f"client {index}: {kind} run {record['run_id']} failed its check")
                samples[kind].append(record["latency"])
                samples["submit"].append(record["submit"])
                if record["created"]:
                    samples["queue_wait"].append(record["queue_wait"])
                    samples["execute"].append(record["execute"])

    @staticmethod
    def one_run(client: ServeClient, spec: RunSpec) -> Dict[str, Any]:
        """Submit, then follow the events to the terminal one."""
        begin = time.perf_counter()
        run_id, created = client.submit(spec)
        submitted = time.perf_counter()
        started = final = None
        for event in client.events(run_id):
            if event["type"] == "started" and started is None:
                started = time.perf_counter()
            if event["type"] in ("done", "failed"):
                final = event["type"]
                break
        end = time.perf_counter()
        return {
            "run_id": run_id, "created": created, "final": final,
            "latency": end - begin, "submit": submitted - begin,
            "queue_wait": None if started is None else started - begin,
            "execute": None if started is None else end - started,
        }

    def traffic(self, deadline: Optional[float], cycles: Optional[int], out: Outcome):
        samples: Dict[str, list] = {k: [] for k in (
            "fresh", "revisit", "dedup", "submit", "queue_wait", "execute",
            "refused")}
        lock = threading.Lock()
        errors: List[BaseException] = []

        def body(index: int) -> None:
            try:
                self.client_loop(index, deadline, cycles, samples, out, lock)
            except BaseException as error:  # reported by the caller
                errors.append(error)

        threads = [threading.Thread(target=body, args=(i,)) for i in range(self.clients)]
        with Timer() as timer:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client did not finish")
        if errors:
            raise errors[0]
        return samples, timer.seconds

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        samples, wall = self.traffic(time.perf_counter() + seconds, None, out)
        fresh, revisit = samples["fresh"], samples["revisit"]
        runs = len(fresh) + len(revisit) + len(samples["dedup"])
        out.values.update({
            "paper_table_mae_pts": median([r["mae"] for r in self.references.values()]),
            "first_result_s": median(fresh),
            "repeat_result_s": median(revisit),
            "branches_per_s": len(fresh) * self.references[0]["branches"] / wall,
        })
        tail_stat = tail(fresh)
        out.report.update({
            "serve_fresh_p50_s": summary(fresh, "s"),
            "serve_fresh_tail_s": (
                {"value": tail_stat[1], "unit": "s", "percentile": tail_stat[0],
                 "samples": tail_stat[2]}
                if tail_stat else {"value": None, "unit": "s", "percentile": None,
                                   "samples": len(fresh)}
            ),
            "serve_revisit_p50_s": summary(revisit, "s"),
            "serve_dedup_p50_s": summary(samples["dedup"], "s"),
            "serve_runs_per_s": {"value": runs / wall, "unit": "1/s", "samples": runs},
        })
        return out

    def decompose(self, tracer: Tracer, out: Outcome):
        clear_trace_memo()
        spec = self.fresh_spec(0, 0)
        directory = self.ctx.fresh_dir("decompose")
        return decompose(
            tracer, spec, synthetic_traces(tracer, self.length, spec.workload.seed),
            ResultCache(directory), os.path.join(directory, "journal.jsonl"), selective=False,
        )

    def engine(self, out: Outcome, expected: Dict[str, str]) -> None:
        """A direct run on the server's pool, then one traced cycle per client."""
        spec = self.fresh_spec(0, 0)
        run, values = engine_run(spec, session(self.ctx.jobs, self.server.session.pool))
        out.values.update(values)
        out.check(run.ok and results_json(run.results) == expected,
                  "direct run differs from the decomposition")
        del run
        with wrapped(self.ctx.tracer, layer_targets()):
            samples, _ = self.traffic(None, 1, out)
        out.values.update(cache_counts(self.server.session.cache))
        out.values.update({
            "serve.http_submit_s": median(samples["submit"]),
            "serve.queue_wait_s": median(samples["queue_wait"]),
            "serve.execute_s": median(samples["execute"]),
            "serve.dedup_latency_p50_s": median(samples["dedup"]),
            "serve.dedup_hits": len(samples["dedup"]),
            "serve.refused": len(samples["refused"]),
        })

    def close(self) -> None:
        if self.thread is not None:
            self.thread.stop()
            self.thread = None


WORKLOADS = {cls.name: cls for cls in (PaperReport, ImportStream, ServeMixed)}
