"""Simulation engine: vectorised whole-trace kernels.

Two kernel families, both bit-identical to the scalar predict/update
loop (the ``repro check`` contract pass and the property tests in
``tests/test_sim_kernels*.py`` enforce it):

* :mod:`repro.sim.kernels` -- per-address predictors (interference-free
  PAs, the loop and pattern predictors, address-indexed counters) carry
  no cross-branch state, so the trace is grouped by address once and
  each static branch's outcome sub-sequence is simulated with numpy
  run-length and shift tricks.
* :mod:`repro.sim.kernels_global` -- the two-level global-history family
  (gshare, GAs, PAs, GAg, PAg) and the selective-history replay share
  state across branches, but their state evolution depends only on trace
  outcomes, so every PHT index is precomputable: pack the history
  streams, group by index, and run each counter cell as an independent
  run-length chain.

The PC010 audit (:func:`repro.check.contracts.check_kernel_coverage`)
derives which registry specs reach each exported kernel by running every
``repro.predictors`` registry entry, and fails ``python -m repro check``
when an exported kernel is reached by none -- so no fast path can ship
without the PC009 dynamic equivalence check covering it.
"""

from repro.sim.fold import fold_correct_count, fold_simulate
from repro.sim.kernels import (
    simulate_bimodal,
    simulate_block_pattern,
    simulate_fixed_pattern,
    simulate_if_pas,
    simulate_loop,
)
from repro.sim.kernels_global import (
    simulate_gas,
    simulate_gshare,
    simulate_pas,
    simulate_selective,
)

__all__ = [
    "fold_correct_count",
    "fold_simulate",
    "simulate_bimodal",
    "simulate_block_pattern",
    "simulate_fixed_pattern",
    "simulate_gas",
    "simulate_gshare",
    "simulate_if_pas",
    "simulate_loop",
    "simulate_pas",
    "simulate_selective",
]
