"""gkern benchmark: Gram wall time per scheme, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload walk-uniform --seed 7 --seconds 35 --trace 0

The gkern package is imported from the checkout's ``src/`` and driven only
through ``gkern.cli.main`` and the names in ``gkern.__all__``.  Set-up draws
the workload's dataset from ``--seed`` and writes it in the TU layout under
``.bench_work/``; the run then repeats rounds of ``gkern compute`` calls for
``--seconds`` seconds and checks every exported Gram.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``harness.END_TO_END`` and ``harness.PER_LAYER``).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
report, with the environment, the crossover finding and (traced) the spans
of the last traced round, goes to ``.bench_results/``.  ``--smoke`` shrinks
every dataset to a few graphs.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import gkern from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "gkern" / "__init__.py").is_file():
        raise SystemExit(f"error: no gkern sources at {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gkern

    if Path(gkern.__file__).resolve().parent != SRC / "gkern":
        raise SystemExit(f"error: gkern was imported from {gkern.__file__}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few graphs per workload")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import harness

    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    count = workload.smoke_count if args.smoke else workload.count
    if args.setup_probe:
        harness.set_up(workload, args.seed, count, Path(args.setup_probe))
        print(repr(harness.clock()))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        report = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = harness.environment(ROOT, args.seed)
    write_report(report, tag)
    print_summary(report, harness.END_TO_END if not args.trace else harness.PER_LAYER)
    return 0 if report["failed"] == 0 and not report["messages"] else 1


def write_report(report: dict, tag: str) -> None:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    spans = report.pop("spans", None)
    if spans is not None:
        with open(out / f"{tag}.spans.jsonl", "w") as fh:
            fh.write('{"fields": ["span", "parent", "name", "call", "start_ns", "end_ns"]}\n')
            for record in spans:
                fh.write(json.dumps(record) + "\n")
    with open(out / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=2)


def print_summary(report: dict, units: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(f"workload {report['workload']}, seed {report['seed']}, {report['graphs']} graphs, "
          f"{report['rounds']} rounds ({mode}); closed loop: one client, one call at a time")
    for name, unit in units.items():
        print(f"  {name:32s} {report['metrics'][name]:>16.6g} {unit}")
    print(f"  {'failed_ops':32s} {report['failed']:>16d} count (of {report['attempted']} ops)")
    cross = report["crossover"]
    print(f"crossover: {cross['winner']} wins, explicit/implicit = "
          f"{cross['explicit_over_implicit']:.4g}")
    print("environment: " + json.dumps(report["environment"]))
    for message in report["messages"][:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0 and not report["messages"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
