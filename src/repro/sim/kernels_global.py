"""Vectorised whole-trace kernels for the two-level global-history family.

The per-address kernels in :mod:`repro.sim.kernels` rely on state being
partitioned by static branch.  The Yeh/Patt two-level predictors (gshare,
GAs, PAs, GAg, PAg) and the selective-history predictor share state
across branches -- a global history register, an aliased branch history
table, a shared PHT -- so they cannot be grouped by pc.  They still
vectorise exactly, because of a stronger property: **two-level state
evolution depends only on trace outcomes, never on predictions.**  The
history register (global or per-BHT-entry) is a pure function of the
outcome stream, so the PHT index of every dynamic branch is precomputable
before any counter is consulted:

1. derive the history register value before every step with bit-packed
   shifted ORs over ``trace.taken`` (per BHT entry for PAs/PAg, honouring
   address aliasing);
2. compute the full index stream as arrays -- ``(history ^ pc) & mask``
   for gshare, ``select * 2**history_bits + history`` for the
   PHT-per-address-set variants;
3. group the trace by index (one stable argsort) -- each PHT counter cell
   is now an independent saturating-counter chain, collapsed with the
   per-run wrong-prefix closed form of :mod:`repro.sim.kernels`, driven
   by a single flat loop over *runs* (not branches) across all cells.

Every kernel is exact: it consumes the predictor's current state, returns
the bit-identical correctness bitmap of the scalar predict/update loop,
and writes the final history/BHT/PHT state back so chained ``simulate()``
calls keep training.  Equivalence is enforced by the PC009 contract check
over the predictor registry, the PC010 kernel-coverage audit
(:func:`repro.check.contracts.check_kernel_coverage`) and the property
tests in ``tests/test_sim_kernels_global.py``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import METRICS
from repro.sim.kernels import _wrong_prefix_fill
from repro.trace.trace import Trace

__all__ = [
    "simulate_gas",
    "simulate_gshare",
    "simulate_pas",
    "simulate_selective",
]

#: Widest packed int64 index the kernels accept; wider configurations
#: fall back to the scalar reference loop in the predictor.
MAX_INDEX_BITS = 62


# -- shared machinery ------------------------------------------------------


def _history_stream(
    bits: np.ndarray, history_bits: int, history_mask: int, carried: int
) -> np.ndarray:
    """History register value *before* each step of one outcome stream.

    ``bits`` is the int64 0/1 outcome column; the register shifts left and
    takes the newest outcome in bit 0 (outcome ``j`` steps back sits at
    bit ``j - 1``), so the value before step ``i`` is the previous
    ``history_bits`` outcomes bit-packed, with the ``carried`` register's
    bits still visible (left-shifted) for the first few steps.
    """
    n = len(bits)
    patterns = np.zeros(n, dtype=np.int64)
    depth = min(history_bits, n)
    for j in range(1, depth + 1):
        patterns[j:] |= bits[:-j] << (j - 1)
    if carried:
        for i in range(depth):
            patterns[i] |= (carried << i) & history_mask
    return patterns


def _narrow_for_sort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Cast ``keys`` (all ``< bound``) to the narrowest sortable dtype.

    numpy's stable argsort is a radix sort for <= 16-bit integers and a
    comparison sort otherwise; predictor index spaces are usually small,
    so narrowing before the sort is the difference between O(n) and
    O(n log n) on the kernel's dominant step.
    """
    if bound <= 1 << 16:
        return keys.astype(np.uint16)
    if bound <= 1 << 31:
        return keys.astype(np.int32)
    return keys


def _grouped_counter_correct(
    keys: np.ndarray,
    taken: np.ndarray,
    counters: np.ndarray,
    threshold: int,
    counter_max: int,
    key_bound: int,
) -> np.ndarray:
    """Correctness bitmap for independent per-key saturating-counter chains.

    ``keys`` assigns every instance to a counter cell in ``counters`` (a
    dense 1-D integer array indexed by key).  One stable argsort groups
    instances by cell in chronological order; within a cell, runs of
    equal outcomes collapse to the wrong-prefix closed form, leaving one
    saturating-counter transition per run.  Each transition is a
    clamp-affine map ``c -> min(max(c + a, b), h)`` and those maps are
    closed under composition::

        g(f(c)) = min(max(c + a_f + a_g,
                          max(b_f + a_g, b_g)),
                      min(max(h_f + a_g, b_g), h_g))

    so the per-cell chain is an (associative) segmented prefix scan over
    run maps: a Hillis-Steele doubling pass per power-of-two offset
    yields every run's starting counter with no per-run Python loop --
    ``O(runs * log(longest cell))`` vector work in total.  Cell switches
    read the carried counter from ``counters`` and the final values are
    written back in place.
    """
    n = len(keys)
    correct = np.empty(n, dtype=bool)
    if n == 0:
        return correct
    keys = _narrow_for_sort(keys, key_bound)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_taken = taken[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    new_run = new_group.copy()
    new_run[1:] |= sorted_taken[1:] != sorted_taken[:-1]
    run_starts = np.nonzero(new_run)[0]
    run_lengths = np.diff(np.concatenate((run_starts, [n])))
    run_opens_group = new_group[run_starts]
    m = len(run_starts)
    seg_first = np.nonzero(run_opens_group)[0]
    seg_id = np.cumsum(run_opens_group) - 1
    rank = np.arange(m, dtype=np.int64) - seg_first[seg_id]
    group_keys = sorted_keys[run_starts[run_opens_group]]
    run_taken = sorted_taken[run_starts]
    # Per-run transition map f(c) = min(max(c + A, B), H): a taken run
    # of length L adds L then saturates above, a not-taken run subtracts
    # L then saturates below -- both are one clamp-affine map.
    A = np.where(run_taken, run_lengths, -run_lengths)
    B = np.zeros(m, dtype=np.int64)
    H = np.full(m, counter_max, dtype=np.int64)
    # Inclusive segmented scan: after the pass at `offset`, (A, B, H)[k]
    # composes runs (k - 2*offset, k] of k's cell (earlier map first).
    offset = 1
    max_rank = int(rank.max())
    while offset <= max_rank:
        idx = np.nonzero(rank >= offset)[0]
        j = idx - offset
        a = A[idx]
        b = B[idx]
        h = H[idx]
        A[idx] = A[j] + a
        B[idx] = np.maximum(B[j] + a, b)
        H[idx] = np.minimum(np.maximum(H[j] + a, b), h)
        offset <<= 1
    c0 = counters[group_keys].astype(np.int64)
    c_after = np.minimum(np.maximum(c0[seg_id] + A, B), H)
    c_start = np.empty(m, dtype=np.int64)
    c_start[seg_first] = c0
    rest = np.nonzero(~run_opens_group)[0]
    c_start[rest] = c_after[rest - 1]
    wrongs = np.where(run_taken, threshold - c_start, c_start - threshold + 1)
    np.maximum(wrongs, 0, out=wrongs)
    seg_last = np.concatenate((seg_first[1:] - 1, [m - 1]))
    counters[group_keys] = c_after[seg_last]
    correct_sorted = _wrong_prefix_fill(run_starts, run_lengths, wrongs, n)
    correct[order] = correct_sorted
    return correct


def _flat_pht(predictor) -> np.ndarray:
    """The 2-D PHT as a writable flat view (row-major: select, history)."""
    flat = predictor._pht.ravel()
    if not np.shares_memory(flat, predictor._pht):
        raise AssertionError("PHT must be contiguous for the flat view")
    return flat


# -- gshare ----------------------------------------------------------------


def simulate_gshare(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.GsharePredictor`.

    The global history before every step is one shifted-OR packing of
    ``trace.taken``; XOR with the aligned pc gives the whole PHT index
    stream, and each index is an independent counter chain.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    bits = trace.taken.astype(np.int64)
    history = _history_stream(
        bits, predictor._history_bits, predictor._history_mask,
        predictor._history,
    )
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    keys = (history ^ pcs) & predictor._pht_mask
    correct = _grouped_counter_correct(
        keys, trace.taken, predictor._pht,
        predictor._counter_threshold, predictor._counter_max,
        predictor._pht_mask + 1,
    )
    predictor._history = (
        (int(history[-1]) << 1) | int(bits[-1])
    ) & predictor._history_mask
    return correct


# -- GAs / GAg -------------------------------------------------------------


def simulate_gas(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.GAsPredictor` (and
    GAg, its zero-select-bits subclass).

    Same global history stream as gshare; the flat PHT index packs the
    address-selected row above the history pattern.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    bits = trace.taken.astype(np.int64)
    history_bits = predictor._history_bits
    history = _history_stream(
        bits, history_bits, predictor._history_mask, predictor._history
    )
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    keys = ((pcs & predictor._select_mask) << history_bits) | history
    correct = _grouped_counter_correct(
        keys, trace.taken, _flat_pht(predictor),
        predictor._counter_threshold, predictor._counter_max,
        (predictor._select_mask + 1) << history_bits,
    )
    predictor._history = (
        (int(history[-1]) << 1) | int(bits[-1])
    ) & predictor._history_mask
    return correct


# -- PAs / PAg -------------------------------------------------------------


def simulate_pas(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.PAsPredictor` (and
    PAg, its zero-select-bits subclass).

    The first-level history register lives in an address-indexed BHT, so
    branches aliasing to the same entry share a register: the trace is
    grouped by *BHT index* (not pc) and each group's interleaved outcome
    stream is packed exactly like the global register.  The per-instance
    select bits still come from the instance's own address.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    taken = trace.taken
    bits_all = taken.astype(np.int64)
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    history_bits = predictor._history_bits
    history_mask = predictor._history_mask
    bht = predictor._bht
    bht_keys = _narrow_for_sort(
        pcs & predictor._bht_mask, predictor._bht_mask + 1
    )
    order = np.argsort(bht_keys, kind="stable")
    sorted_keys = bht_keys[order]
    bits_sorted = bits_all[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    group_starts = np.nonzero(new_group)[0]
    group_lengths = np.diff(np.concatenate((group_starts, [n])))
    rank = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_lengths)
    depth = min(history_bits, n)
    # The packed history before each instance, per BHT entry: outcome j
    # steps back *within the entry's own interleaved stream* sits at bit
    # j - 1, and groups are contiguous after the sort, so the j-th
    # predecessor of a rank >= j element is just j slots to the left.
    # Shift the whole sorted column (contiguous slices, no index masks);
    # elements within `depth` of their group start pick up bits from the
    # previous group, fixed below.
    patterns = np.zeros(n, dtype=np.int64)
    for j in range(1, depth + 1):
        patterns[j:] |= bits_sorted[:-j] << (j - 1)
    group_keys = sorted_keys[group_starts]
    carried = bht[group_keys]
    # Boundary fix-up: an element at rank r < depth has exactly r fresh
    # outcomes from its own group (bits 0..r-1); everything above is
    # previous-group spill to discard, and the entry's carried register
    # stays visible there (left-shifted by r) until displaced.
    sel = np.nonzero(rank < depth)[0]
    r = rank[sel]
    seg_id = np.cumsum(new_group) - 1
    patterns[sel] = (patterns[sel] & ((np.int64(1) << r) - 1)) | (
        (carried[seg_id[sel]] << r) & history_mask
    )
    group_last = group_starts + group_lengths - 1
    bht[group_keys] = (
        (patterns[group_last] << 1) | bits_sorted[group_last]
    ) & history_mask
    history = np.empty(n, dtype=np.int64)
    history[order] = patterns
    keys = ((pcs & predictor._select_mask) << history_bits) | history
    return _grouped_counter_correct(
        keys, taken, _flat_pht(predictor),
        predictor._counter_threshold, predictor._counter_max,
        (predictor._select_mask + 1) << history_bits,
    )


# -- selective-history replay ----------------------------------------------


def simulate_selective(predictor, trace: Trace) -> np.ndarray:
    """Counter-replay kernel for
    :class:`~repro.predictors.selective.SelectiveHistoryPredictor`.

    The fitted correlation data already holds every instance's three-state
    tag pattern, so the replay is index-precomputable too: pack
    ``(branch, pattern)`` into one key stream over the whole trace and run
    every per-pattern 2-bit counter as one grouped chain.  Counters start
    fresh at the initial value per (branch, pattern), exactly like the
    per-call dict of the scalar replay.
    """
    METRICS.inc("sim.kernel_fastpath")
    data = predictor._data
    window = predictor._config.window
    n = data.trace_length
    if n == 0:
        return np.zeros(0, dtype=bool)
    space = 3 ** predictor._num_branches
    keys = np.zeros(n, dtype=np.int64)
    for ordinal, (pc, branch) in enumerate(data.branches.items()):
        selection = predictor._selections[pc]
        base = ordinal * space
        if selection.tags:
            combined = np.zeros(branch.num_instances(), dtype=np.int64)
            for tag in selection.tags:
                combined = combined * 3 + branch.state_vector(tag, window)
            keys[branch.trace_indices] = base + combined
        else:
            keys[branch.trace_indices] = base
    counters = np.full(
        len(data.branches) * space, predictor._initial, dtype=np.int64
    )
    return _grouped_counter_correct(
        keys, trace.taken, counters, predictor._threshold,
        predictor._counter_max, len(counters),
    )
