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

Exit codes: 0 success, 2 usage problems, 3 data problems, 4 resource
limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import bench
from .errors import (
    ContractError,
    DatasetLoadError,
    GKError,
    InvalidKernelError,
    MultiplicityOverflowError,
    ParameterError,
    ResourceBudgetError,
)
from .features import direct_sum, dot
from .gram import GramMatrix, export_gram, gram_explicit, gram_implicit, normalize
from .graphs import (
    Dataset,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
    load_tu_dataset,
    scale_attributes,
    write_tu_dataset,
)
from .kernels import EdgeKernelSpec, VertexKernelSpec, sample_binning_grid
from .shortest_paths import sp_features_explicit, sp_transform
from .subgraphs import graphlet_features, subgraph_matching_kernel
from .walks import walk_features_explicit, walk_kernel_row
from .weighted import (
    attribute_class_features,
    binned_attribute_features,
    graph_invariant_weight_maps,
    graphhopper_weight_maps,
    label_features,
    wv_features_explicit,
    wv_kernel_implicit,
)

KERNELS = (
    "walk",
    "maxwalk",
    "sp",
    "graphlet",
    "subgraph-matching",
    "graph-invariant",
    "graphhopper",
)

_USAGE_EXIT = 2
_DATA_EXIT = 3
_RESOURCE_EXIT = 4


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
    try:
        count = int(params.pop("count"))
    except KeyError:
        raise ParameterError(f"dataset spec {spec!r} needs count=...") from None
    if kind == "labeled":
        ds = generate_synthetic_labeled(
            count,
            mean_vertices=float(params.pop("mean", 20.0)),
            edge_prob=float(params.pop("edge-prob", 0.1)),
            p_vertex=float(params.pop("pv", 0.5)),
            seed=seed,
        )
    elif kind == "alphabet":
        ds = generate_synthetic_alphabet(
            count,
            mean_vertices=float(params.pop("mean", 60.0)),
            edge_prob=float(params.pop("edge-prob", 0.5)),
            alphabet_size=int(params.pop("alphabet", 4)),
            seed=seed,
        )
    else:
        raise ParameterError(
            f"unknown dataset kind {kind!r} (expected tu, labeled or alphabet)"
        )
    if params:
        raise ParameterError(f"unknown dataset parameters {sorted(params)}")
    return ds


def _vertex_kernel_from_args(args, dim: Optional[int]) -> VertexKernelSpec:
    kind = args.vertex_kernel
    if kind == "hat":
        return VertexKernelSpec("hat", delta=args.delta)
    if kind == "rbf":
        return VertexKernelSpec("rbf", sigma=args.sigma)
    if kind == "binned":
        if dim is None:
            raise ContractError("binned vertex kernel needs vertex attributes")
        grid = sample_binning_grid(dim, args.delta, args.binning, args.seed)
        return VertexKernelSpec("binned", grid=grid)
    return VertexKernelSpec(kind)


def _build_grams(args, ds: Dataset) -> List[GramMatrix]:
    """Gram matrices for the requested kernel, one per requested scheme."""
    regimes = ("implicit", "explicit") if args.regime == "both" else (args.regime,)
    kernel = args.kernel
    grams: List[GramMatrix] = []

    if kernel in ("walk", "maxwalk"):
        vk = VertexKernelSpec("dirac")
        ek = EdgeKernelSpec("dirac" if ds.has_edge_labels else "uniform")
        for regime in regimes:
            if regime == "implicit":
                if kernel == "walk":
                    row = lambda g, hs: walk_kernel_row(g, hs, vk, ek, args.length)
                else:
                    row = lambda g, hs: walk_kernel_row(
                        g, hs, vk, ek, args.length, all_rounds=True
                    ).sum(axis=1)
                grams.append(
                    gram_implicit(
                        ds, row, f"{kernel}(l={args.length})/implicit", rows=True
                    )
                )
            else:
                if kernel == "walk":
                    feature = lambda g: walk_features_explicit(g, args.length)
                else:
                    feature = lambda g: direct_sum(
                        [
                            walk_features_explicit(g, l)
                            for l in range(args.length + 1)
                        ]
                    )
                grams.append(
                    gram_explicit(ds, feature, f"{kernel}(l={args.length})/explicit")
                )
        return grams

    if kernel == "sp":
        vk = VertexKernelSpec("dirac")
        lk = EdgeKernelSpec(args.length_kernel, c=args.bridge_c)
        transformed = Dataset(
            ds.name, [sp_transform(g) for g in ds.graphs], ds.class_labels
        )
        for regime in regimes:
            if regime == "implicit":
                # the shortest-path kernel is the length-1 walk kernel on
                # the transforms (see sp_kernel_implicit)
                grams.append(
                    gram_implicit(
                        transformed,
                        lambda g, hs: walk_kernel_row(g, hs, vk, lk, 1),
                        f"sp({lk.describe()})/implicit",
                        rows=True,
                    )
                )
            else:
                if args.length_kernel != "dirac":
                    raise ParameterError(
                        "explicit shortest-path features require the dirac "
                        "length kernel; brownian-bridge is implicit-only"
                    )
                grams.append(gram_explicit(ds, sp_features_explicit, "sp/explicit"))
        return grams

    if kernel == "graphlet":
        for regime in regimes:
            if regime == "implicit":
                grams.append(
                    gram_implicit(
                        ds,
                        lambda a, b: dot(graphlet_features(a), graphlet_features(b)),
                        "graphlet(3)/implicit",
                    )
                )
            else:
                grams.append(gram_explicit(ds, graphlet_features, "graphlet(3)/explicit"))
        return grams

    if kernel == "subgraph-matching":
        vk = VertexKernelSpec("dirac")
        ek = EdgeKernelSpec("dirac" if ds.has_edge_labels else "uniform")
        if "explicit" in regimes:
            raise ParameterError(
                "subgraph-matching has no explicit feature map here; its "
                "explicit counterpart is the graphlet kernel (--kernel graphlet)"
            )
        grams.append(
            gram_implicit(
                ds,
                lambda a, b: subgraph_matching_kernel(
                    a,
                    b,
                    vk,
                    ek,
                    max_size=args.max_size,
                    connected_only=args.connected_only,
                ),
                f"subgraph-matching(max={args.max_size})/implicit",
            )
        )
        return grams

    # weighted vertex kernels
    if ds.attribute_dim is not None:
        ds = scale_attributes(ds)
    weight_map = (
        graph_invariant_weight_maps(ds, args.wl_iters)
        if kernel == "graph-invariant"
        else graphhopper_weight_maps(ds)
    )
    dim = ds.attribute_dim
    vk = _vertex_kernel_from_args(args, dim)
    for regime in regimes:
        if regime == "implicit":
            grams.append(
                gram_implicit(
                    ds,
                    lambda a, b: wv_kernel_implicit(a, b, weight_map, vk),
                    f"{kernel}[{vk.describe()}]/implicit",
                )
            )
        else:
            if vk.kind == "dirac":
                vertex_features = label_features
            elif vk.kind == "dirac-attributes":
                vertex_features = attribute_class_features(ds)
            elif vk.kind == "binned":
                vertex_features = binned_attribute_features(vk.grid)
            else:
                raise ParameterError(
                    f"the {vk.kind} vertex kernel has no exact finite feature "
                    f"map; use --vertex-kernel binned for the explicit scheme"
                )
            grams.append(
                gram_explicit(
                    ds,
                    lambda g: wv_features_explicit(g, weight_map, vertex_features),
                    f"{kernel}[{vk.describe()}]/explicit",
                )
            )
    return grams


def cmd_compute(args) -> int:
    ds = load_data_spec(args.data, args.seed)
    grams = _build_grams(args, ds)
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
    sizes = (
        tuple(int(s) for s in args.sizes.split(",")) if args.sizes else config["sizes"]
    )
    grid = (
        tuple(float(v) if args.axis == "pv" else int(v) for v in args.grid.split(","))
        if args.grid
        else config["grid"]
    )
    progress = (lambda line: print(line, flush=True)) if not args.quiet else None
    if args.axis == "pv":
        rows = bench.walk_pv_sweep(
            sizes=sizes,
            grid=grid,
            length=args.length if args.length is not None else config["length"],
            mean_vertices=config["mean_vertices"],
            edge_prob=config["edge_prob"],
            reps=args.reps,
            seed=args.seed,
            progress=progress,
        )
    elif args.axis == "length":
        rows = bench.walk_length_sweep(
            sizes=sizes,
            grid=tuple(int(v) for v in grid),
            p_vertex=config["p_vertex"],
            mean_vertices=config["mean_vertices"],
            edge_prob=config["edge_prob"],
            reps=args.reps,
            seed=args.seed,
            progress=progress,
        )
    else:
        rows = bench.alphabet_sweep(
            sizes=sizes,
            grid=tuple(int(v) for v in grid),
            mean_vertices=config["mean_vertices"],
            edge_prob=config["edge_prob"],
            reps=args.reps,
            seed=args.seed,
            progress=progress,
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
    if args.generator == "labeled":
        ds = generate_synthetic_labeled(
            args.count,
            mean_vertices=args.mean,
            edge_prob=args.edge_prob,
            p_vertex=args.pv,
            seed=args.seed,
            name=args.name,
        )
    else:
        ds = generate_synthetic_alphabet(
            args.count,
            mean_vertices=args.mean,
            edge_prob=args.edge_prob,
            alphabet_size=args.alphabet,
            seed=args.seed,
            name=args.name,
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
    compute.add_argument("--kernel", required=True, choices=KERNELS)
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
    generate.add_argument("--mean", type=float, default=20.0)
    generate.add_argument("--edge-prob", type=float, default=0.1)
    generate.add_argument("--pv", type=float, default=0.5)
    generate.add_argument("--alphabet", type=int, default=4)
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
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (DatasetLoadError, ContractError, InvalidKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except (ResourceBudgetError, MultiplicityOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _RESOURCE_EXIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return _RESOURCE_EXIT
    except GKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
