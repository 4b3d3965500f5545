"""Declaration-soundness pass: prove ``requires=`` matches what the
experiment code actually consumes.

The planner (:func:`repro.plan.build_plan`) schedules only the
simulation tasks an experiment declares via ``@register(...,
requires=)``.  That is a *declaration*; nothing at runtime verifies it
against the code.  A stale declaration therefore fails silently --
either as phantom planned work, or as a product the plan never primes.
This pass closes that gap statically, from the AST of the experiment
modules alone: it never imports them.  The plannable task set it checks
names against is :data:`repro.analysis.config.TASKS`.

(The cache-key projection needs no static check: each ``TASKS`` row
declares its fields once, and its build sees a config view that raises
on any other field.)

For every runner registered with a literal ``requires=`` tuple, infer
the simulation products the runner body actually consumes:

* ``lab.correct("gshare")`` / ``lab.accuracy("gshare")`` consume the
  named task's correctness bitmap;
* ``lab.selective_correct(...)`` / ``lab.selective_accuracy(...)`` /
  ``lab.selections(...)`` / ``lab.correlation_data()`` all consume the
  ``correlation`` collection (selective products are derived from it);
* a lab (or the labs dict) passed to a helper -- module-local or
  imported from another ``repro.*`` module -- is resolved and the
  helper's body analysed the same way, transitively.

====== ===== ==========================================================
DS001  error task consumed but not declared: the plan never schedules
             its simulation, so plan-driven runs recompute it lazily
             in-process (or crash on an unprimable product).
DS002  warn  task declared but never consumed: every plan-driven run
             schedules phantom simulations for it.
DS003  error declared task name outside the plannable task set -- a
             typo or a retired task; the plan cannot prime it at all.
====== ===== ==========================================================

A runner that hands a lab to an unresolvable callee, or passes a
non-literal task name, is skipped (no DS001/DS002 for it): the
inference must never report a false mismatch.

Suppress any finding with a ``check: ignore`` comment on the flagged
line, same as the lint pass.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.config import CORRELATION_TASK, TASKS
from repro.check.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    sort_diagnostics,
)

_SUPPRESS_MARKER = "check: ignore"

#: Lab methods whose first argument names the consumed simulation task.
_NAMED_CONSUMERS = frozenset({"correct", "accuracy"})

#: Lab methods that consume the correlation collection (directly or via
#: selective products derived from it).
_CORRELATION_CONSUMERS = frozenset({
    "correlation_data",
    "selections",
    "selective_accuracy",
    "selective_correct",
})

#: Recursion ceiling for helper resolution (cycle guard is separate).
_MAX_HELPER_DEPTH = 8


def _default_package_root() -> Path:
    import repro

    return Path(repro.__file__).parent.parent


def _repro_path(package_root: Path, dotted: str) -> Optional[Path]:
    """File for a ``repro.*`` dotted module under ``package_root``."""
    if not dotted.startswith("repro"):
        return None
    candidate = package_root.joinpath(*dotted.split("."))
    if candidate.is_dir():
        candidate = candidate / "__init__.py"
    else:
        candidate = candidate.with_suffix(".py")
    return candidate if candidate.is_file() else None


def _suppressed_lines(source: str) -> Set[int]:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if _SUPPRESS_MARKER in line
    }


class _Module:
    """One parsed module: functions, imports, and suppression lines."""

    def __init__(self, path: Path) -> None:
        self.path = path
        source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(source, filename=str(path))
        self.suppressed = _suppressed_lines(source)
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: class name -> {method name -> def} (used by the workers pass).
        self.classes: Dict[str, Dict[str, ast.FunctionDef]] = {}
        #: local name -> ("module", dotted) or ("member", dotted, name)
        self.imports: Dict[str, tuple] = {}
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = {
                    member.name: member
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                }
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = ("module", alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ("member", node.module, alias.name)


class _ModuleIndex:
    """Lazy loader/cache of parsed modules keyed by file path."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = package_root
        self._by_path: Dict[Path, Optional[_Module]] = {}

    def load(self, path: Path) -> Optional[_Module]:
        path = path.resolve()
        if path not in self._by_path:
            try:
                self._by_path[path] = _Module(path)
            except (OSError, SyntaxError):
                self._by_path[path] = None
        return self._by_path[path]

    def load_dotted(self, dotted: str) -> Optional[_Module]:
        path = _repro_path(self.package_root, dotted)
        return self.load(path) if path is not None else None


# ---------------------------------------------------------------------------
# requires= soundness
# ---------------------------------------------------------------------------


class _Consumption:
    """Accumulated lab usage of one function (and its helpers)."""

    def __init__(self) -> None:
        self.tasks: Set[str] = set()
        #: True when a lab escaped analysis (dynamic task name, lab
        #: handed to an unresolvable callee): suppress DS001/DS002.
        self.opaque = False

    def merge(self, other: "_Consumption") -> None:
        self.tasks |= other.tasks
        self.opaque = self.opaque or other.opaque


class _LabFlow(ast.NodeVisitor):
    """Intra-function dataflow: which names hold labs / the labs dict."""

    def __init__(
        self,
        analyzer: "_RequiresAnalyzer",
        module: _Module,
        func: ast.FunctionDef,
        lab_params: FrozenSet[str],
        labs_params: FrozenSet[str],
        depth: int,
    ) -> None:
        self.analyzer = analyzer
        self.module = module
        self.func = func
        self.labs: Set[str] = set(lab_params)
        self.labs_dicts: Set[str] = set(labs_params)
        self.depth = depth
        self.result = _Consumption()

    # -- name tracking -----------------------------------------------------

    def _is_labs_dict(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.labs_dicts

    def _is_lab(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in self.labs:
            return True
        # labs["gcc"] is a lab.
        return isinstance(node, ast.Subscript) and self._is_labs_dict(node.value)

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_lab(value):
            self.labs.add(target.id)
        elif self._is_labs_dict(value):
            self.labs_dicts.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def _bind_loop_target(self, target: ast.expr, iter_node: ast.expr) -> None:
        """``for name, lab in labs.items()`` / ``for lab in labs.values()``."""
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and self._is_labs_dict(iter_node.func.value)
        ):
            return
        method = iter_node.func.attr
        if method == "values" and isinstance(target, ast.Name):
            self.labs.add(target.id)
        elif method == "items" and isinstance(target, ast.Tuple) \
                and len(target.elts) == 2 \
                and isinstance(target.elts[1], ast.Name):
            self.labs.add(target.elts[1].id)

    def visit_For(self, node: ast.For) -> None:
        self._bind_loop_target(node.target, node.iter)
        self.generic_visit(node)

    def _visit_comprehension_container(self, node) -> None:
        # Bind the comprehension targets *before* visiting the element
        # expressions: ``{n: helper(lab) for n, lab in labs.items()}``
        # reads ``lab`` ahead of its (syntactic) binding site.
        for comprehension in node.generators:
            self._bind_loop_target(comprehension.target, comprehension.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_container
    visit_SetComp = _visit_comprehension_container
    visit_DictComp = _visit_comprehension_container
    visit_GeneratorExp = _visit_comprehension_container

    # -- consumption -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._is_lab(func.value):
            self._consume_lab_method(node, func.attr)
        else:
            lab_positions = tuple(
                index for index, arg in enumerate(node.args)
                if self._is_lab(arg)
            )
            labs_positions = tuple(
                index for index, arg in enumerate(node.args)
                if self._is_labs_dict(arg)
            )
            by_keyword = any(
                self._is_lab(keyword.value) or self._is_labs_dict(keyword.value)
                for keyword in node.keywords
            )
            if by_keyword:
                # Keyword-passed labs are rare enough not to model;
                # treat the runner as unanalysable rather than guess.
                self.result.opaque = True
            elif lab_positions or labs_positions:
                self._consume_helper(node, lab_positions, labs_positions)
        self.generic_visit(node)

    def _consume_lab_method(self, node: ast.Call, method: str) -> None:
        if method in _CORRELATION_CONSUMERS:
            self.result.tasks.add(CORRELATION_TASK)
        elif method in _NAMED_CONSUMERS:
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                self.result.tasks.add(node.args[0].value)
            else:
                self.result.opaque = True

    def _consume_helper(
        self,
        node: ast.Call,
        lab_positions: Tuple[int, ...],
        labs_positions: Tuple[int, ...],
    ) -> None:
        resolved = self.analyzer.resolve_callee(self.module, node.func)
        if resolved is None:
            self.result.opaque = True
            return
        module, helper = resolved
        self.result.merge(
            self.analyzer.analyze_helper(
                module, helper, lab_positions, labs_positions, self.depth + 1
            )
        )


class _RequiresAnalyzer:
    """Infers per-runner task consumption across helper boundaries."""

    def __init__(self, index: _ModuleIndex) -> None:
        self.index = index
        self._memo: Dict[tuple, _Consumption] = {}
        self._in_progress: Set[tuple] = set()

    def resolve_callee(
        self, module: _Module, func: ast.expr
    ) -> Optional[Tuple[_Module, ast.FunctionDef]]:
        """The (module, def) a call target names, when statically known."""
        if isinstance(func, ast.Name):
            if func.id in module.functions:
                return module, module.functions[func.id]
            imported = module.imports.get(func.id)
            if imported is not None and imported[0] == "member":
                target = self.index.load_dotted(imported[1])
                if target is not None and imported[2] in target.functions:
                    return target, target.functions[imported[2]]
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            imported = module.imports.get(func.value.id)
            if imported is not None and imported[0] == "module":
                target = self.index.load_dotted(imported[1])
                if target is not None and func.attr in target.functions:
                    return target, target.functions[func.attr]
        return None

    def analyze_function(
        self,
        module: _Module,
        func: ast.FunctionDef,
        lab_params: FrozenSet[str],
        labs_params: FrozenSet[str],
        depth: int = 0,
    ) -> _Consumption:
        key = (module.path, func.name, lab_params, labs_params)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress or depth > _MAX_HELPER_DEPTH:
            # Recursive helper chain (or a pathological one): give up
            # on this branch conservatively.
            escaped = _Consumption()
            escaped.opaque = True
            return escaped
        self._in_progress.add(key)
        try:
            flow = _LabFlow(self, module, func, lab_params, labs_params, depth)
            for statement in func.body:
                flow.visit(statement)
            self._memo[key] = flow.result
            return flow.result
        finally:
            self._in_progress.discard(key)

    def analyze_helper(
        self,
        module: _Module,
        func: ast.FunctionDef,
        lab_positions: Tuple[int, ...],
        labs_positions: Tuple[int, ...],
        depth: int,
    ) -> _Consumption:
        params = [arg.arg for arg in func.args.args]
        lab_params = frozenset(
            params[index] for index in lab_positions if index < len(params)
        )
        labs_params = frozenset(
            params[index] for index in labs_positions if index < len(params)
        )
        if (lab_positions and not lab_params) or \
                (labs_positions and not labs_params):
            # A lab landed in *args or vanished: analysis lost track.
            escaped = _Consumption()
            escaped.opaque = True
            return escaped
        return self.analyze_function(
            module, func, lab_params, labs_params, depth
        )


def _registered_runners(
    module: _Module,
) -> List[Tuple[str, Optional[Tuple[str, ...]], ast.FunctionDef, int]]:
    """``(experiment_id, requires-or-None, runner, decorator line)``."""
    runners = []
    for func in module.functions.values():
        for decorator in func.decorator_list:
            if not (isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "register"):
                continue
            if not (decorator.args
                    and isinstance(decorator.args[0], ast.Constant)
                    and isinstance(decorator.args[0].value, str)):
                continue
            experiment_id = decorator.args[0].value
            requires: Optional[Tuple[str, ...]] = None
            for keyword in decorator.keywords:
                if keyword.arg != "requires":
                    continue
                if isinstance(keyword.value, (ast.Tuple, ast.List)) and all(
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                    for element in keyword.value.elts
                ):
                    requires = tuple(
                        element.value for element in keyword.value.elts
                    )
            runners.append((experiment_id, requires, func, decorator.lineno))
    return runners


def _runner_labs_param(func: ast.FunctionDef) -> Optional[str]:
    """The runner's labs-dict parameter (first positional argument)."""
    if func.args.args:
        return func.args.args[0].arg
    return None


def analyze_requires(
    experiments_root: Optional[str] = None,
    package_root: Optional[str] = None,
) -> List[Diagnostic]:
    """DS001/DS002/DS003 over every registered runner under a directory.

    Args:
        experiments_root: Directory of experiment modules (default: the
            installed ``repro/experiments``).
        package_root: ``src``-style root used to resolve ``repro.*``
            helper imports (default: the installed package's parent).
    """
    root = Path(package_root) if package_root else _default_package_root()
    index = _ModuleIndex(root)
    experiments_dir = (
        Path(experiments_root)
        if experiments_root
        else root / "repro" / "experiments"
    )
    analyzer = _RequiresAnalyzer(index)

    diagnostics: List[Diagnostic] = []
    for path in sorted(experiments_dir.glob("*.py")):
        module = index.load(path)
        if module is None:
            diagnostics.append(Diagnostic(
                code="DS000", severity=ERROR,
                message="module failed to parse; dependency soundness "
                        "not analysable",
                location=f"{path}:0",
            ))
            continue
        for experiment_id, requires, func, line in _registered_runners(module):
            if line in module.suppressed:
                continue
            location = f"{path}:{line}"
            if requires is None:
                continue  # falls back to the full default set: always sound
            for name in requires:
                if name not in TASKS:
                    diagnostics.append(Diagnostic(
                        code="DS003", severity=ERROR,
                        message=(
                            f"experiment {experiment_id!r} declares "
                            f"requires={name!r}, which is not a plannable "
                            f"simulation task (known: "
                            f"{', '.join(TASKS)}); selective "
                            "products are derived from 'correlation'"
                        ),
                        location=location,
                    ))
            labs_param = _runner_labs_param(func)
            if labs_param is None:
                continue
            consumption = analyzer.analyze_function(
                module, func, frozenset(), frozenset({labs_param})
            )
            if consumption.opaque:
                continue  # inference incomplete: never report a mismatch
            declared = set(requires)
            for name in sorted(consumption.tasks - declared):
                diagnostics.append(Diagnostic(
                    code="DS001", severity=ERROR,
                    message=(
                        f"experiment {experiment_id!r} consumes task "
                        f"{name!r} (via lab accesses in its runner) but "
                        f"requires= does not declare it: plan-driven runs "
                        "will not schedule its simulation"
                    ),
                    location=location,
                ))
            for name in sorted((declared & set(TASKS)) - consumption.tasks):
                diagnostics.append(Diagnostic(
                    code="DS002", severity=WARNING,
                    message=(
                        f"experiment {experiment_id!r} declares "
                        f"requires={name!r} but its runner never consumes "
                        "it: every plan schedules phantom work"
                    ),
                    location=location,
                ))
    return sort_diagnostics(diagnostics)


#: The whole pass (DS001-DS003), under the name ``repro check`` runs it by.
run_deps_pass = analyze_requires
