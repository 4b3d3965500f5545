#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_report --seed 12345 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Every metric is printed by name with its unit: the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds
the workload's detailed report (each named quantity with its unit and
sample count, and any failed check).  The same detail, plus the spans
of a traced run, is written under ``.perfbench_out/``.

Each invocation is one fresh process running one workload, so peak
memory and set-up time do not leak between workloads or repeats.
Set-up runs three times and its median is reported as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(src)]

    from harness import Timer, Tracer, median, peak_rss_mib, reap_children, result_line
    from workloads import WORKLOADS, Context, PaperReport

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(work=work, seed=args.seed, jobs=min(2, os.cpu_count() or 1),
                  tracer=Tracer(enabled=bool(args.trace)))
    cls = WORKLOADS[args.workload]
    if cls is PaperReport:
        workload = cls(ctx, reference=json.loads((HERE / "reference.json").read_text()))
    else:
        workload = cls(ctx)
    setup_seconds = []
    try:
        for _ in range(SETUP_REPEATS):
            with Timer() as timer:
                workload.setup()
            setup_seconds.append(timer.seconds)
        outcome = workload.traced() if args.trace else workload.measure(args.seconds)
    finally:
        workload.close()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's scratch is still there
            pass

    if args.trace:
        metrics = declared["per_layer"]
        values = {metric["name"]: 0.0 for metric in metrics}
        undeclared = sorted(set(outcome.values) - set(values))
        if undeclared:
            raise ValueError(f"undeclared per-layer metrics: {undeclared}")
        values.update(outcome.values)
    else:
        metrics = declared["end_to_end"]
        values = dict(outcome.values, setup_s=median(setup_seconds), peak_rss_mib=peak_rss_mib())
    line = result_line(outcome.correct, outcome.attempted, outcome.failed, values, metrics)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setup_seconds,
        "report": outcome.report,
        "mismatches": outcome.mismatches,
        "error_rate": outcome.failed / outcome.attempted,
        "result": json.loads(line),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True))
    if args.trace:
        ctx.tracer.write(str(out_dir / f"{stem}-spans.json"))
    print(json.dumps({k: detail[k] for k in ("report", "mismatches", "error_rate")},
                     sort_keys=True))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
