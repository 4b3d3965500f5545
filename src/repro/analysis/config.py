"""Experiment-wide predictor configuration.

The paper simulates SPECint95 to completion (10-34M dynamic branches per
benchmark); this reproduction runs ~60-200k-branch synthetic traces,
roughly 1% of the paper's scale.  Structure sizes that are *rates* (how
often a pattern must recur before its counter trains) therefore scale
with the trace:

* The reference **gshare** keeps the paper's nominal 16-bit history and
  2^16-entry PHT; at 1% scale this configuration over-fragments, which is
  exactly the training-time effect the paper discusses, so it stays --
  interference and training losses land hardest on the gcc/go analogues,
  as in the paper.
* **Interference-free** predictors shorten their histories (global 6,
  per-address 8): with one PHT per branch, every distinct pattern must
  recur *for that branch*, and 1% of the paper's per-branch executions
  supports ~2^6 patterns, not 2^16.
* The **selective history** window stays at the paper's n=16 (the oracle
  picks at most 3 branches, so no training-density issue arises).

All sizes remain constructor arguments; this module fixes the defaults
the experiments use, and :data:`TASKS` declares which of them each lab
task depends on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.correlation.selection import SelectionConfig
from repro.correlation.tagging import collect_correlation_data
from repro.predictors.base import BranchPredictor
from repro.predictors.interference_free import (
    InterferenceFreeGshare,
    InterferenceFreePAs,
)
from repro.predictors.loop import LoopPredictor
from repro.predictors.pattern import (
    BlockPatternPredictor,
    best_fixed_length_correct,
)
from repro.predictors.static_ import IdealStaticPredictor
from repro.predictors.twolevel import GsharePredictor, PAsPredictor
from repro.trace.trace import Trace


@dataclass(frozen=True)
class LabConfig:
    """Predictor sizing used by the experiment suite.

    Attributes:
        gshare_history_bits: History length of the reference gshare
            (paper nominal: 16).
        gshare_pht_bits: log2 PHT size of the reference gshare (16).
        if_gshare_history_bits: History length of interference-free
            gshare (scaled: 8).
        pas_history_bits: Per-address history length of PAs (6).
        pas_bht_bits: log2 BHT entries of PAs (12).
        if_pas_history_bits: History length of interference-free PAs (6).
        selective_window: History depth n for correlation analysis (paper:
            16; figure 5 sweeps 8-32).
        selective_top_k: Oracle candidate pool for pair/triple search.
        collection_window: Depth of the one-pass correlation collection
            (32 covers every window figure 5 needs).
    """

    gshare_history_bits: int = 16
    gshare_pht_bits: int = 16
    if_gshare_history_bits: int = 8
    pas_history_bits: int = 6
    pas_bht_bits: int = 12
    if_pas_history_bits: int = 6
    selective_window: int = 16
    selective_top_k: int = 12
    collection_window: int = 32

    def selection_config(self, window: Optional[int] = None) -> SelectionConfig:
        return SelectionConfig(
            window=self.selective_window if window is None else window,
            top_k=self.selective_top_k,
        )


#: The configuration every experiment module uses unless told otherwise.
DEFAULT_CONFIG = LabConfig()

#: Task name of the tagged-correlation collection.
CORRELATION_TASK = "correlation"


class _ConfigView:
    """A :class:`LabConfig` seen through one task's declared fields.

    Reading any other field raises, naming the task and the field: a
    build that reads a field its row does not declare would otherwise
    let two configurations differing only in that field share one cache
    entry.
    """

    __slots__ = ("_task", "_config")

    def __init__(self, task: "Task", config: LabConfig) -> None:
        self._task = task
        self._config = config

    def __getattr__(self, name: str) -> Any:
        if name not in self._task.fields:
            raise RuntimeError(
                f"task {self._task.name!r} read LabConfig.{name}, which its "
                f"TASKS row does not declare (declared: "
                f"{', '.join(self._task.fields) or 'none'})"
            )
        return getattr(self._config, name)


@dataclass(frozen=True)
class Task:
    """One plannable lab task: everything the engine knows about it.

    Attributes:
        name: Task name (memo, plan and cache-key spelling).
        fields: The :class:`LabConfig` fields the result depends on, in
            cache-key order.  Static predictors take no sizing, so their
            results are valid under *every* configuration -- which is
            what lets a sweep over, say, ``gshare_history_bits`` share
            their cache entries across grid points.
        build: Called with a view of the config that exposes ``fields``
            only; returns a fresh predictor, or a function of the whole
            trace for the tasks that are not a predictor replay.
        chunkable: Whether the predictor's kernel resumes from
            written-back state, so a chunked fold is bit-identical to
            the whole-trace run.
    """

    name: str
    fields: Tuple[str, ...]
    build: Callable[[Any], Any]
    chunkable: bool = False

    def make(self, config: LabConfig) -> Any:
        """This task's predictor (or whole-trace function) under ``config``."""
        return self.build(_ConfigView(self, config))

    def run(self, trace: Trace, config: LabConfig) -> Any:
        """The task's result on ``trace``: a bitmap, or correlation data."""
        made = self.make(config)
        if isinstance(made, BranchPredictor):
            return made.simulate(trace)
        return made(trace)


#: Every plannable task, in deterministic fold order.  Adding a
#: predictor to the lab is one row here.
TASKS: Dict[str, Task] = {
    task.name: task
    for task in (
        Task(
            "gshare",
            ("gshare_history_bits", "gshare_pht_bits"),
            lambda c: GsharePredictor(c.gshare_history_bits, c.gshare_pht_bits),
            chunkable=True,
        ),
        Task(
            "if_gshare",
            ("if_gshare_history_bits",),
            lambda c: InterferenceFreeGshare(c.if_gshare_history_bits),
            chunkable=True,
        ),
        Task(
            "pas",
            ("pas_history_bits", "pas_bht_bits"),
            lambda c: PAsPredictor(c.pas_history_bits, c.pas_bht_bits),
            chunkable=True,
        ),
        Task(
            "if_pas",
            ("if_pas_history_bits",),
            lambda c: InterferenceFreePAs(c.if_pas_history_bits),
            chunkable=True,
        ),
        Task("loop", (), lambda c: LoopPredictor(), chunkable=True),
        Task("block", (), lambda c: BlockPatternPredictor(), chunkable=True),
        # The whole-run baselines and the correlation collection are
        # defined over the full trace, so they keep the unchunked path.
        Task("ideal_static", (), lambda c: IdealStaticPredictor()),
        Task("fixed_best", (), lambda c: best_fixed_length_correct),
        Task(
            CORRELATION_TASK,
            ("collection_window",),
            lambda c: partial(
                collect_correlation_data, window=c.collection_window
            ),
        ),
    )
}

#: Fields a ``selective_{count}_{window}`` task depends on (the window
#: itself is part of the task name; the candidate pool and collection
#: depth come from the config).
SELECTIVE_FIELDS = ("selective_top_k", "collection_window")

_SELECTIVE_NAME = re.compile(r"selective_\d+_\d+")


def task_config_fields(task: str) -> Tuple[str, ...]:
    """The LabConfig fields ``task``'s result is a function of.

    Raises:
        KeyError: ``task`` is neither a :data:`TASKS` row nor a
            ``selective_{count}_{window}`` name.
    """
    if task in TASKS:
        return TASKS[task].fields
    if _SELECTIVE_NAME.fullmatch(task):
        return SELECTIVE_FIELDS
    raise KeyError(f"unknown lab task {task!r}; choose from {', '.join(TASKS)}")


def task_config_key(task: str, config: "LabConfig") -> str:
    """Canonical ``field=value`` projection of ``config`` onto ``task``.

    This string is what the result cache keys bitmaps by: two configs
    that agree on the fields ``task`` actually reads produce the same
    key, so sweep points share every unaffected entry.
    """
    parts = ", ".join(
        f"{name}={getattr(config, name)}" for name in task_config_fields(task)
    )
    return f"{task}({parts})"
