"""Static verification of workload IR, predictor contracts, and lint.

Five passes, none of which executes a workload or trains a predictor
on real experiment data:

``repro.check.ir``
    Walks a :class:`~repro.workloads.program.Program` without running
    it: control-flow reachability, address layout, branch-direction
    conventions, trip-count bounds, and condition well-formedness.

``repro.check.contracts``
    Introspects every :class:`~repro.predictors.base.BranchPredictor`
    subclass and the ``repro.predictors`` registry, and dynamically enforces
    the trace-driven regime (state-pure ``predict``, exactly one
    ``update`` per branch, deterministic replay) through
    :class:`~repro.check.contracts.ContractCheckedPredictor`.

``repro.check.lint``
    An AST pass over ``src/repro`` flagging determinism hazards:
    unseeded RNGs, float equality in accuracy math, and iteration over
    sets feeding trace or report output.

``repro.check.deps``
    Declaration soundness (DS codes): proves every experiment's
    ``@register(..., requires=)`` tuple matches the sim products its
    runner actually consumes, and names only plannable
    :data:`~repro.analysis.config.TASKS`.

``repro.check.workers``
    Worker safety (WS codes): flags module-global mutation, unpicklable
    closures handed to pool submission, and unsorted set iteration in
    code reachable from the multiprocess ``compute_task`` entry points.

Run all five with ``python -m repro check``.
"""

from repro.check.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    CheckFailure,
    Diagnostic,
    format_diagnostics,
    has_errors,
)
from repro.check.contracts import (
    ContractCheckedPredictor,
    ContractViolation,
    check_determinism,
    check_predictor_classes,
    check_registry,
    run_contract_suite,
)
from repro.check.ir import (
    ProgramVerificationError,
    verify_program,
    verify_program_or_raise,
)
from repro.check.deps import analyze_requires, run_deps_pass
from repro.check.lint import lint_paths, lint_source
from repro.check.workers import analyze_worker_safety

__all__ = [
    "CheckFailure",
    "ContractCheckedPredictor",
    "ContractViolation",
    "Diagnostic",
    "ERROR",
    "INFO",
    "ProgramVerificationError",
    "WARNING",
    "analyze_requires",
    "analyze_worker_safety",
    "check_determinism",
    "check_predictor_classes",
    "check_registry",
    "format_diagnostics",
    "has_errors",
    "lint_paths",
    "lint_source",
    "run_contract_suite",
    "run_deps_pass",
    "verify_program",
    "verify_program_or_raise",
]
