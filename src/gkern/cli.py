"""Command line front end.

Subcommands::

    gkern compute   one Gram matrix (implicit, explicit, or both)
    gkern sweep     scheme-vs-scheme timing sweep along one axis
    gkern stats     dataset summary row
    gkern generate  write a synthetic dataset in the benchmark layout

Datasets are named by a ``--data`` spec: ``tu:<path>:<name>`` loads the
benchmark-collection layout from disk, ``labeled:count=...`` and
``alphabet:count=...`` draw synthetic data (deterministic in ``--seed``).
Every option can also come from a JSON config file (``--config``); flags
given on the command line win.

Exit codes: 0 success, 1 any other library error, 2 usage problems,
3 data problems, 4 resource limits.  A failed Gram matrix exits with the
code of the error that failed it, under a message naming the pair.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, List, Optional

from . import bench
from .errors import (
    ContractError,
    DatasetLoadError,
    GKError,
    GramError,
    InvalidKernelError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .gram import export_gram, normalize
from .graphs import (
    Dataset,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    load_tu_dataset,
    write_tu_dataset,
)

_RESOURCE_EXIT = 4
# exit code per error kind: usage, data, resource limits
_EXIT_CODES = (
    (ParameterError, 2),
    ((DatasetLoadError, ContractError, InvalidKernelError), 3),
    ((ResourceBudgetError, MultiplicityOverflowError), _RESOURCE_EXIT),
)

_SWEEPS = {
    "pv": bench.walk_pv_sweep,
    "length": bench.walk_length_sweep,
    "alphabet": bench.alphabet_sweep,
}


def _read(text, cast, what: str):
    """``cast(text)``, or a ParameterError naming ``what`` and the text."""
    try:
        return cast(text)
    except ValueError:
        raise ParameterError(
            f"{what}={text!r} does not read as {cast.__name__}"
        ) from None


def _parse_spec_params(body: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    if not body:
        return params
    for chunk in body.split(","):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ParameterError(f"bad dataset parameter {chunk!r} (expected key=value)")
        params[key.strip()] = value.strip()
    return params


def load_data_spec(spec: str, seed: int) -> Dataset:
    """Materialize a ``--data`` spec.

    ``tu:<path>:<name>`` | ``labeled:count=N[,mean=..][,edge-prob=..][,pv=..]``
    | ``alphabet:count=N[,mean=..][,edge-prob=..][,alphabet=..]``
    """
    kind, _, body = spec.partition(":")
    if kind == "tu":
        path, sep, name = body.rpartition(":")
        if not sep or not path or not name:
            raise ParameterError(
                f"bad dataset spec {spec!r} (expected tu:<path>:<name>)"
            )
        return load_tu_dataset(path, name)
    params = _parse_spec_params(body)
    if "count" not in params:
        raise ParameterError(f"dataset spec {spec!r} needs count=...")
    count = _read(params.pop("count"), int, "dataset parameter count")
    return _synthetic_dataset(kind, count, seed, params)


def _synthetic_dataset(
    kind: str,
    count: int,
    seed: int,
    params: Dict[str, object],
    name: Optional[str] = None,
) -> Dataset:
    """Draw a ``labeled`` or ``alphabet`` synthetic dataset.

    ``params`` holds the spec keys ``mean``, ``edge-prob``, ``pv`` and
    ``alphabet`` (``gkern generate`` passes its flags of those names); a
    parameter left out keeps the generator's own default.
    """
    generators = {
        "labeled": generate_synthetic_labeled,
        "alphabet": generate_synthetic_alphabet,
    }
    if kind not in generators:
        raise ParameterError(
            f"unknown dataset kind {kind!r} (expected tu, labeled or alphabet)"
        )
    signature = inspect.signature(generators[kind]).parameters
    parameter_of = {
        "mean": "mean_vertices",
        "edge-prob": "edge_prob",
        "pv": "p_vertex",
        "alphabet": "alphabet_size",
    }
    unknown = sorted(key for key in params if parameter_of.get(key) not in signature)
    if unknown:
        raise ParameterError(f"unknown dataset parameters {unknown}")
    kwargs = {}
    for key, value in params.items():
        cast = type(signature[parameter_of[key]].default)
        kwargs[parameter_of[key]] = _read(value, cast, f"dataset parameter {key}")
    return generators[kind](count, seed=seed, name=name, **kwargs)


def cmd_compute(args) -> int:
    ds = load_data_spec(args.data, args.seed)
    # every kernel_plan parameter is a compute flag of the same name
    params = inspect.signature(bench.kernel_plan).parameters
    plan = bench.kernel_plan(ds=ds, **{k: v for k, v in vars(args).items() if k in params})
    grams = plan.grams(bench.REGIMES if args.regime == "both" else (args.regime,))
    if args.normalize:
        grams = [normalize(g) for g in grams]
    for gram in grams:
        print(gram.timing_block())
    if len(grams) == 2:
        diff = bench.max_relative_discrepancy(grams[0].values, grams[1].values)
        print(f"max relative discrepancy between schemes: {diff:.3e}")
        if args.out:
            with open(f"{args.out}.discrepancy.txt", "w") as fh:
                fh.write(f"{diff:.17g}\n")
    if args.out:
        extension = "csv" if args.format == "csv" else "svm"
        for gram in grams:
            scheme = gram.timings.get("scheme", "gram")
            base = f"{args.out}.{scheme}" if len(grams) == 2 else args.out
            export_gram(gram, args.format, f"{base}.{extension}")
            with open(f"{base}.timing.json", "w") as fh:
                fh.write(gram.timing_block() + "\n")
            print(f"wrote {base}.{extension}")
    return 0


def cmd_sweep(args) -> int:
    grids = bench.FULL_GRIDS if args.full_scale else bench.DESK_GRIDS
    config = dict(grids[args.axis])
    if args.sizes:
        config["sizes"] = tuple(_read(s, int, "--sizes") for s in args.sizes.split(","))
    if args.grid:
        cast = float if args.axis == "pv" else int
        config["grid"] = tuple(_read(v, cast, "--grid") for v in args.grid.split(","))
    if args.length is not None:
        if "length" not in config:
            raise ParameterError(
                f"--length sets the walk length of the pv axis; "
                f"the {args.axis} axis does not take it"
            )
        config["length"] = args.length
    progress = (lambda line: print(line, flush=True)) if not args.quiet else None
    rows = _SWEEPS[args.axis](
        **config, reps=args.reps, seed=args.seed, progress=progress
    )
    if args.out:
        bench.write_sweep_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_stats(args) -> int:
    ds = load_data_spec(args.data, args.seed)
    s = ds.stats()
    flag = lambda present: "+" if present else "-"
    print(
        f"{s['name']}: {s['graphs']} graphs, {s['classes']} classes, "
        f"avg |V| {s['avg_vertices']:.1f}, avg |E| {s['avg_edges']:.1f}, "
        f"vertex labels {flag(s['vertex_labels'])}, "
        f"edge labels {flag(s['edge_labels'])}, "
        f"attributes "
        + (f"dim {s['attribute_dim']}" if s["attribute_dim"] else "-")
    )
    return 0


def cmd_generate(args) -> int:
    flags = {
        "mean": args.mean,
        "edge-prob": args.edge_prob,
        "pv": args.pv,
        "alphabet": args.alphabet,
    }
    ds = _synthetic_dataset(
        args.generator,
        args.count,
        args.seed,
        {key: value for key, value in flags.items() if value is not None},
        args.name,
    )
    target = write_tu_dataset(ds, args.out)
    print(f"wrote {len(ds)} graphs to {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkern",
        description="Graph kernels, implicit and explicit, with timing sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument("--config", help="JSON file with defaults for any flag")

    compute = sub.add_parser("compute", help="compute one Gram matrix")
    common(compute)
    compute.add_argument("--data", required=True, help="tu:<path>:<name> | labeled:count=N,... | alphabet:count=N,...")
    compute.add_argument("--kernel", required=True, choices=bench.KERNELS)
    compute.add_argument(
        "--regime", choices=("implicit", "explicit", "both"), default="both"
    )
    compute.add_argument("--length", type=int, default=4, help="walk length")
    compute.add_argument("--wl-iters", type=int, default=3, help="refinement rounds")
    compute.add_argument("--delta", type=float, default=1.0, help="hat/binning pitch")
    compute.add_argument("--sigma", type=float, default=1.0, help="rbf bandwidth")
    compute.add_argument("--binning", type=int, default=16, help="number of grids")
    compute.add_argument("--max-size", type=int, default=3, help="largest subgraph")
    compute.add_argument(
        "--connected-only",
        action="store_true",
        help="count only connectedly mapped subgraphs",
    )
    compute.add_argument(
        "--vertex-kernel",
        choices=("dirac", "dirac-attributes", "hat", "rbf", "binned"),
        default="dirac",
    )
    compute.add_argument(
        "--length-kernel", choices=("dirac", "brownian-bridge"), default="dirac"
    )
    compute.add_argument("--bridge-c", type=float, default=3.0)
    compute.add_argument("--normalize", action="store_true")
    compute.add_argument("--format", choices=("csv", "svm-precomputed"), default="csv")
    compute.add_argument("--out", help="output path stem")
    compute.set_defaults(func=cmd_compute)

    sweep = sub.add_parser("sweep", help="implicit-vs-explicit timing sweep")
    common(sweep)
    sweep.add_argument("--axis", choices=("pv", "length", "alphabet"), default="pv")
    sweep.add_argument("--sizes", help="comma-separated dataset sizes")
    sweep.add_argument("--grid", help="comma-separated axis values")
    sweep.add_argument("--length", type=int, help="walk length (pv axis)")
    sweep.add_argument("--reps", type=int, default=5, help="runs per median")
    sweep.add_argument(
        "--full-scale",
        action="store_true",
        help="published grids instead of desk-scale (slow)",
    )
    sweep.add_argument("--quiet", action="store_true")
    sweep.add_argument("--out", help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    stats = sub.add_parser("stats", help="dataset summary")
    common(stats)
    stats.add_argument("--data", required=True)
    stats.set_defaults(func=cmd_stats)

    generate = sub.add_parser("generate", help="write a synthetic dataset")
    common(generate)
    generate.add_argument("--generator", choices=("labeled", "alphabet"), required=True)
    generate.add_argument("--count", type=int, required=True)
    # unset flags keep the generator's own defaults
    generate.add_argument("--mean", type=float)
    generate.add_argument("--edge-prob", type=float)
    generate.add_argument("--pv", type=float)
    generate.add_argument("--alphabet", type=int)
    generate.add_argument("--name", help="dataset name (defaults to parameters)")
    generate.add_argument("--out", required=True, help="target directory")
    generate.set_defaults(func=cmd_generate)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """Load ``--config FILE`` JSON and install it as subparser defaults."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        parser.error("--config needs a file argument")
    path = argv[at + 1]
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DatasetLoadError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DatasetLoadError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DatasetLoadError(f"config file {path} must hold a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in payload.items()}
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        for sub in action.choices.values():
            known = {a.dest for a in sub._actions}  # noqa: SLF001
            sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})
            # a value from the config satisfies a required flag
            for sub_action in sub._actions:  # noqa: SLF001
                if sub_action.required and sub_action.dest in defaults:
                    sub_action.required = False
    return argv


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except GKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failed Gram exits with the code of the error that failed it
        cause = exc.__cause__ if isinstance(exc, GramError) else exc
        return next((code for kinds, code in _EXIT_CODES if isinstance(cause, kinds)), 1)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return _RESOURCE_EXIT


if __name__ == "__main__":
    sys.exit(main())
