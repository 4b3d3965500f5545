"""Streamed analysis: task folds over a :class:`TraceStream`.

Two consumers:

* The chunked priming path (:func:`repro.analysis.parallel.prime_labs`
  with ``chunk_branches`` set) folds the *causal* simulation tasks --
  the ones whose kernels carry their predictor state across
  ``simulate()`` calls -- window by window, in-process or across the
  worker pool.  :data:`CHUNKABLE_TASKS` names them, derived from the
  ``chunkable`` flag of their :data:`~repro.analysis.config.TASKS`
  rows; :func:`chunked_bitmap` is the in-process fold and the reference
  the contract/property tests compare against.

* :func:`stream_report` is the bounded-memory accuracy report behind
  ``benchmarks/check_rss.py`` and paper-scale runs: it never holds a
  whole-trace bitmap, reducing each window to counts as it goes.  The
  non-causal paper baselines (``ideal_static``, ``fixed_best``) are
  whole-run *definitions* -- the ideal static direction is the majority
  over the full run -- so they get dedicated streaming folds here that
  accumulate per-static-branch state (a few entries per static branch,
  not per dynamic branch) instead of materialising columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.config import TASKS, LabConfig
from repro.obs.metrics import METRICS
from repro.sim.fold import fold_correct_count, fold_simulate
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace

#: Tasks whose :data:`~repro.analysis.config.TASKS` row is chunkable.
CHUNKABLE_TASKS: Tuple[str, ...] = tuple(
    name for name, task in TASKS.items() if task.chunkable
)


def task_predictor(config: LabConfig, task: str):
    """A fresh predictor instance for one chunkable task."""
    if task not in CHUNKABLE_TASKS:
        raise ValueError(
            f"task {task!r} is not chunkable; choose from {CHUNKABLE_TASKS}"
        )
    return TASKS[task].make(config)


def chunked_bitmap(stream: TraceStream, config: LabConfig, task: str) -> np.ndarray:
    """Whole-trace correctness bitmap of ``task``, folded over chunks.

    Bit-identical to ``compute_task(stream.whole(), config, task)`` for
    every :data:`CHUNKABLE_TASKS` member.
    """
    METRICS.inc("sim.chunked_simulations")
    return fold_simulate(task_predictor(config, task), stream.chunks())


def ideal_static_count(chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the ideal static predictor.

    One pass accumulating per-static-branch ``(executions, taken)``
    counts; the majority direction (ties toward taken, matching
    :func:`repro.trace.stats.ideal_static_correct`) determines the
    correct count without ever materialising the bitmap.
    """
    counts: Dict[int, List[int]] = {}
    total = 0
    for chunk in chunks:
        total += len(chunk)
        uniq, inverse = np.unique(chunk.pc, return_inverse=True)
        executions = np.bincount(inverse, minlength=len(uniq))
        taken = np.bincount(
            inverse, weights=chunk.taken, minlength=len(uniq)
        ).astype(np.int64)
        for pc, execs, tk in zip(
            uniq.tolist(), executions.tolist(), taken.tolist()
        ):
            entry = counts.setdefault(pc, [0, 0])
            entry[0] += execs
            entry[1] += tk
    correct = sum(
        taken if 2 * taken >= execs else execs - taken
        for execs, taken in counts.values()
    )
    return correct, total


def fixed_best_count(
    chunks: Iterable[Trace], max_k: Optional[int] = None
) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the best-of-k fixed baseline.

    Matches :func:`repro.predictors.pattern.best_fixed_length_correct`:
    each static branch uses its individually best pattern length (ties
    toward the shortest ``k``).  The fold keeps each static branch's
    outcome sequence as packed bits -- n/8 bytes total, the only
    trace-length-proportional state any streamed task needs.
    """
    from repro.predictors.pattern import MAX_PATTERN_LENGTH

    if max_k is None:
        max_k = MAX_PATTERN_LENGTH
    # Per-static-branch accumulator: a list of bit-packed segments plus
    # an under-8-bit tail awaiting its byte.  Packing incrementally (not
    # per-chunk-if-aligned) keeps the aux state at n/8 bytes total --
    # storing raw bool copies would put the whole outcome column back in
    # memory and defeat the streaming budget.
    sequences: Dict[int, List[np.ndarray]] = {}
    tails: Dict[int, np.ndarray] = {}
    lengths: Dict[int, int] = {}
    empty = np.zeros(0, dtype=bool)
    total = 0
    for chunk in chunks:
        total += len(chunk)
        for pc, outcomes in chunk.outcomes_by_pc().items():
            pending = np.concatenate([tails.get(pc, empty), outcomes])
            packable = len(pending) - len(pending) % 8
            if packable:
                sequences.setdefault(pc, []).append(
                    np.packbits(pending[:packable], bitorder="little")
                )
            tails[pc] = pending[packable:].copy()
            lengths[pc] = lengths.get(pc, 0) + len(outcomes)
    correct = 0
    for pc, n in lengths.items():
        outcomes = np.concatenate(
            [
                np.unpackbits(part, bitorder="little").astype(bool)
                for part in sequences.get(pc, [])
            ]
            + [tails[pc]]
        )[:n]
        best_count = -1
        for k in range(1, max_k + 1):
            count = int(np.count_nonzero(outcomes[:k]))
            if n > k:
                count += int(np.count_nonzero(outcomes[k:] == outcomes[:-k]))
            if count > best_count:
                best_count = count
        correct += best_count
    return correct, total


#: Streaming folds of the whole-run static baselines, by task name.
_WHOLE_RUN_FOLDS = {
    "ideal_static": ideal_static_count,
    "fixed_best": fixed_best_count,
}

#: Tasks :func:`stream_report` can fold in bounded memory, in report
#: order: the causal kernels plus the two whole-run static baselines.
STREAMABLE_TASKS: Tuple[str, ...] = CHUNKABLE_TASKS + tuple(_WHOLE_RUN_FOLDS)


def stream_report(
    stream: TraceStream,
    config: LabConfig,
    tasks: Tuple[str, ...] = STREAMABLE_TASKS,
) -> Dict[str, Dict[str, float]]:
    """Per-task accuracy over a stream, O(window) resident memory.

    Returns ``{task: {"correct", "total", "accuracy"}}``.  Counts are
    identical to a whole-trace run (the kernels are carried-state
    exact; the static folds are count-exact by construction).
    """
    report: Dict[str, Dict[str, float]] = {}
    for task in tasks:
        if task in CHUNKABLE_TASKS:
            correct, total = fold_correct_count(
                task_predictor(config, task), stream.chunks()
            )
        elif task in _WHOLE_RUN_FOLDS:
            correct, total = _WHOLE_RUN_FOLDS[task](stream.chunks())
        else:
            raise ValueError(
                f"task {task!r} is not streamable; choose from "
                f"{STREAMABLE_TASKS}"
            )
        report[task] = {
            "correct": correct,
            "total": total,
            "accuracy": (correct / total) if total else 0.0,
        }
    return report
