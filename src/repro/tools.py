"""Trace toolkit: generate, inspect, and simulate ``.bpt`` trace files.

Subcommands::

    python -m repro.tools generate gcc -o gcc.bpt --length 50000
    python -m repro.tools stats gcc.bpt
    python -m repro.tools simulate gcc.bpt --predictor gshare --predictor pas
    python -m repro.tools interference gcc.bpt
    python -m repro.tools check

The simulate subcommand accepts predictor specs of the form
``name[:key=value,...]``, e.g. ``gshare:history_bits=12,pht_bits=12``.

Every subcommand accepts the shared engine options from
:mod:`repro.cliopts` (``--jobs``, ``--cache-dir``, ``--no-cache``,
``--seed``, ``--metrics-out``, ``--trace-out``); ``generate`` reuses the
result cache's trace store, and ``--metrics-out``/``--trace-out`` dump
the command's telemetry on exit.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.interference import measure_gshare_interference
from repro.cliopts import engine_parent, write_observability_outputs
from repro.predictors import PREDICTOR_REGISTRY
from repro.predictors.base import BranchPredictor
from repro.trace.stats import compute_statistics
from repro.trace.stream import (
    read_text_trace,
    read_trace,
    write_text_trace,
    write_trace,
)
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark


def parse_predictor_spec(spec: str) -> BranchPredictor:
    """Instantiate a predictor from ``name[:key=value,...]``.

    Values are parsed as integers (every registry parameter is an int
    width or size).

    Raises:
        SystemExit: On an unknown predictor name, a malformed
            ``key=value`` pair, or arguments the predictor's
            constructor rejects -- always naming the offending spec.
    """
    name, _, argument_text = spec.partition(":")
    try:
        factory = PREDICTOR_REGISTRY[name]
    except KeyError:
        raise SystemExit(
            f"error: unknown predictor {name!r} in spec {spec!r}; choose "
            f"from {', '.join(sorted(PREDICTOR_REGISTRY))}"
        ) from None
    kwargs = {}
    if argument_text:
        for item in argument_text.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise SystemExit(
                    f"error: malformed predictor argument {item!r} in spec "
                    f"{spec!r}; expected key=value"
                )
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise SystemExit(
                    f"error: predictor argument {item!r} in spec {spec!r} "
                    "is not an integer"
                ) from None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as error:
        raise SystemExit(
            f"error: bad arguments for predictor {name!r} in spec "
            f"{spec!r}: {error}"
        ) from None


def _load_any(path: str):
    """Read a trace by extension: .txt/.trace = text, otherwise binary."""
    if str(path).endswith((".txt", ".trace")):
        return read_text_trace(path)
    return read_trace(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = None
    cache = None
    if not args.no_cache:
        from repro.analysis.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        trace = cache.load_trace(args.benchmark, args.length, args.seed)
    if trace is None:
        trace = load_benchmark(
            args.benchmark, length=args.length, run_seed=args.seed
        )
        if cache is not None:
            cache.store_trace(args.benchmark, args.length, args.seed, trace)
    if str(args.output).endswith((".txt", ".trace")):
        write_text_trace(trace, args.output)
    else:
        write_trace(trace, args.output)
    print(f"wrote {len(trace)} branches to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = _load_any(args.trace)
    stats = compute_statistics(trace)
    print(f"dynamic branches:        {stats.num_dynamic}")
    print(f"static branches:         {stats.num_static}")
    print(f"taken rate:              {stats.taken_rate:.4f}")
    print(f"backward-branch rate:    {stats.backward_rate:.4f}")
    print(f"ideal-static accuracy:   {stats.ideal_static_accuracy * 100:.2f}%")
    print(
        f">99%-biased dyn fraction: "
        f"{stats.biased_99_dynamic_fraction * 100:.2f}%"
    )
    return 0


def _simulate_spec(job):
    """Worker for ``simulate --jobs``: one predictor spec on one trace file.

    Module-level so it pickles; re-reads the trace in the worker rather
    than shipping the columns through the pipe.
    """
    trace_path, spec = job
    trace = _load_any(trace_path)
    predictor = parse_predictor_spec(spec)
    return predictor.name, predictor.accuracy(trace)


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _load_any(args.trace)
    print(f"{args.trace}: {len(trace)} dynamic branches")
    if args.jobs is not None and args.jobs > 1 and len(args.predictor) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            # map() preserves input order, so output is deterministic.
            rows = list(
                pool.map(
                    _simulate_spec,
                    [(args.trace, spec) for spec in args.predictor],
                )
            )
    else:
        rows = []
        for spec in args.predictor:
            predictor = parse_predictor_spec(spec)
            rows.append((predictor.name, predictor.accuracy(trace)))
    for name, accuracy in rows:
        print(f"  {name:28s} {accuracy * 100:6.2f}%")
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    trace = _load_any(args.trace)
    report = measure_gshare_interference(
        trace, args.history_bits, args.pht_bits
    )
    print(f"gshare {args.history_bits}h/{args.pht_bits}p on {args.trace}:")
    print(f"  conflict access rate:        {report.conflict_rate * 100:.2f}%")
    print(
        f"  misprediction on conflicts:  "
        f"{report.conflict_misprediction_rate * 100:.2f}%"
    )
    print(
        f"  misprediction on private:    "
        f"{report.private_misprediction_rate * 100:.2f}%"
    )
    print(f"  PHT occupancy:               {report.occupancy * 100:.2f}%")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.cli import main as check_main

    forwarded: List[str] = list(args.passes)
    if args.strict:
        forwarded.append("--strict")
    if args.format != "text":
        forwarded.extend(["--format", args.format])
    if args.github:
        forwarded.append("--github")
    return check_main(forwarded)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tools", description="Branch-trace toolkit."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Every subcommand carries the shared engine options (--jobs,
    # --cache-dir, --no-cache, --seed, --metrics-out, --trace-out), so
    # the same flag means the same thing everywhere.
    engine = [engine_parent()]

    generate = subparsers.add_parser(
        "generate", parents=engine,
        help="generate a benchmark trace to a .bpt file",
    )
    generate.add_argument("benchmark", choices=BENCHMARK_NAMES)
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--length", type=int, default=None)
    generate.set_defaults(func=_cmd_generate)

    stats = subparsers.add_parser(
        "stats", parents=engine, help="summarise a .bpt file"
    )
    stats.add_argument("trace")
    stats.set_defaults(func=_cmd_stats)

    simulate = subparsers.add_parser(
        "simulate", parents=engine, help="run predictors over a .bpt file"
    )
    simulate.add_argument("trace")
    simulate.add_argument(
        "--predictor",
        action="append",
        default=None,
        help="predictor spec name[:key=value,...]; repeatable",
    )
    simulate.set_defaults(func=_cmd_simulate)

    interference = subparsers.add_parser(
        "interference", parents=engine,
        help="measure gshare PHT interference on a .bpt file",
    )
    interference.add_argument("trace")
    interference.add_argument("--history-bits", type=int, default=16)
    interference.add_argument("--pht-bits", type=int, default=16)
    interference.set_defaults(func=_cmd_interference)

    check = subparsers.add_parser(
        "check", parents=engine,
        help="run the static verification passes (repro.check)",
    )
    check.add_argument(
        "passes", nargs="*",
        choices=["ir", "contracts", "lint", "deps", "workers"],
        default=[], help="passes to run (default: all)",
    )
    check.add_argument("--strict", action="store_true",
                       help="fail on warnings too")
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="diagnostic output format")
    check.add_argument("--github", action="store_true",
                       help="emit GitHub Actions workflow annotations")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--version":
        from repro.cliopts import version_string

        print(version_string("repro-tools"))
        return 0
    args = _parser().parse_args(argv)
    if getattr(args, "predictor", "missing") is None:
        args.predictor = ["gshare", "pas:history_bits=6,bht_bits=12"]
    try:
        code = args.func(args)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_observability_outputs(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
