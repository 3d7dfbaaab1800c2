"""Set-up, measurement rounds and metrics of the gkern benchmark.

One run is a closed loop: a single client in a single process, no threads,
one ``gkern compute`` call at a time through ``gkern.cli.main``.  A round
makes every call of the workload once; rounds repeat until the run's
seconds are spent, and each Gram time is the mean over rounds.  After
every round the exported Grams are checked (see :mod:`checks`).

With tracing on, untraced and traced rounds alternate: the traced ones give
the per-layer metrics and the difference of the two kinds is the tracing
overhead.  Set-up time is measured in fresh processes (``run.py
--setup-probe``), because importing gkern happens once per process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import gkern
from gkern.cli import main as gkern_main

import checks
from spans import Tracer, pair_latencies_us, percentile, span_times
from workloads import REGIMES, WORKLOADS, Workload

END_TO_END = {
    "setup_s": "s",
    "implicit_gram_s": "s",
    "explicit_gram_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "walks.build_wdpg_s": "s",
    "walks.product_vertices": "count",
    "walks.product_edges": "count",
    "walks.recursion_s": "s",
    "walks.feature_map_s": "s",
    "walks.stored_features": "count",
    "walks.distinct_features": "count",
    "features.dot_s": "s",
    "features.dot_calls": "count",
    "gram.pairs": "count",
    "gram.pair_p50_us": "us",
    "gram.pair_p999_us": "us",
    "gram.seconds_pairs": "s",
    "gram.seconds_feature_maps": "s",
    "gram.seconds_dot": "s",
    "gram.stored_features": "count",
    "gram.export_s": "s",
    "gram.normalize_s": "s",
    "gram.min_eigenvalue_s": "s",
    "gram.min_eigenvalue_capped": "count",
    "graphs.generate_s": "s",
    "graphs.write_tu_s": "s",
    "graphs.load_tu_s": "s",
    "graphs.apsp_s": "s",
    "shortest_paths.transform_s": "s",
    "shortest_paths.transform_edges": "count",
    "shortest_paths.feature_map_s": "s",
    "wl.refine_s": "s",
    "wl.total_colors": "count",
    "weighted.weight_maps_s": "s",
    "weighted.pair_s": "s",
    "weighted.feature_map_s": "s",
    "subgraphs.matching_pair_s": "s",
    "subgraphs.graphlet_map_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

# per-layer second metrics read as self time of one span name
SELF_TIMES = {
    "walks.build_wdpg_s": "walks.build_wdpg",
    "walks.recursion_s": "walks.walk_kernel_implicit",
    "walks.feature_map_s": "walks.feature_map",
    # gram_explicit's own time is its dot phase: feature maps are child spans
    "features.dot_s": "gram.explicit",
    "gram.export_s": "gram.export",
    "gram.normalize_s": "gram.normalize",
    "gram.min_eigenvalue_s": "gram.min_eigenvalue",
    "graphs.load_tu_s": "graphs.load_tu",
    "graphs.apsp_s": "graphs.apsp",
    "shortest_paths.transform_s": "shortest_paths.transform",
    "shortest_paths.feature_map_s": "shortest_paths.feature_map",
    "wl.refine_s": "wl.refine",
    "weighted.weight_maps_s": "weighted.weight_maps",
    "weighted.pair_s": "weighted.pair",
    "weighted.feature_map_s": "weighted.feature_map",
    "subgraphs.matching_pair_s": "subgraphs.matching_pair",
    "subgraphs.graphlet_map_s": "subgraphs.graphlet_map",
}
SETUP_TIMES = {"graphs.generate_s": "graphs.generate", "graphs.write_tu_s": "graphs.write_tu"}
TIMING_FIELDS = ("seconds_pairs", "seconds_feature_maps", "seconds_dot", "stored_features")

SETUP_PROBES = 5
POOL = 4
MIN_ROUNDS = 3


def clock() -> float:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- set-up ----------------------------------------------------------------


def generate(workload: Workload, seed: int, count: int) -> gkern.Dataset:
    """Draw ``POOL`` times the graphs and keep the middle one of every ``POOL`` by size.

    The seed draws every graph; keeping one per stratum of the edge-count
    distribution makes the dataset's total size follow the larger pool, which
    halves the seed-to-seed spread of the work a Gram does.
    """
    make = (
        gkern.generate_synthetic_labeled
        if workload.generator == "labeled"
        else gkern.generate_synthetic_alphabet
    )
    pool = make(count * POOL, seed=seed, name=workload.name, **workload.params).graphs
    by_size = sorted(range(len(pool)), key=lambda i: (pool[i].m, pool[i].n, i))
    keep = sorted(by_size[POOL // 2 :: POOL])
    return gkern.Dataset(workload.name, [pool[i] for i in keep], np.arange(count) % 2)


def set_up(workload: Workload, seed: int, count: int, target: Path) -> str:
    """Write the workload's dataset under ``target``; returns its ``--data`` spec."""
    gkern.write_tu_dataset(generate(workload, seed, count), str(target))
    return f"tu:{target}:{workload.name}"


def probe_setup(workload: str, seed: int, smoke: bool, target: Path) -> float:
    """Seconds from spawning a fresh process to its first possible compute call."""
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe", str(target),
            "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    if smoke:
        argv.append("--smoke")
    start = clock()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


# -- rounds ----------------------------------------------------------------


def invoke(argv: List[str]) -> int:
    """One ``gkern compute`` call; its standard output is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return gkern_main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash fails this call only; the run goes on
        traceback.print_exc()
        return 1


def post_gram_steps(tracer: Tracer) -> None:
    """Normalize each Gram the call produced and estimate its least eigenvalue."""
    for gram in tracer.grams:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            gkern.min_eigenvalue_estimate(gkern.normalize(gram).values)
        tracer.counts["gram.min_eigenvalue_capped"] += sum(
            issubclass(w.category, RuntimeWarning) for w in caught
        )
    tracer.grams.clear()


def run_round(workload: Workload, spec: str, n: int, out: Path,
              tracer: Optional[Tracer]) -> dict:
    calls = []
    for call in workload.calls:
        for regime in call.regimes:
            stem = out / f"{call.label}.{regime}"
            argv = ["compute", "--data", spec, *call.args, "--regime", regime, "--out", str(stem)]
            if tracer is None:
                start = time.perf_counter()
                code = invoke(argv)
                wall = time.perf_counter() - start
            else:
                tracer.begin_call(len(calls))
                with tracer.installed():
                    start = time.perf_counter()
                    code = invoke(argv)
                    wall = time.perf_counter() - start
                    if code == 0:
                        post_gram_steps(tracer)
            calls.append({"label": call.label, "regime": regime, "code": code,
                          "wall": wall, "stem": stem})
    failed, messages = check_round(workload, calls, n)
    result = {
        "walls": {f"{c['label']}/{c['regime']}": c["wall"] for c in calls},
        "ops": checks.entry_count(n) * len(calls),
        "failed": failed,
        "messages": messages,
    }
    if tracer is not None:
        result["layers"], result["spans"] = traced_layers(tracer, calls)
    return result


def check_round(workload: Workload, calls: List[dict], n: int) -> tuple:
    failed, messages, cells = 0, [], {}
    for c in calls:
        label = f"{c['label']}/{c['regime']}"
        if c["code"] != 0:
            failed += checks.entry_count(n)
            messages.append(f"{label}: gkern compute exited with {c['code']}")
            continue
        grid = checks.read_cells(Path(f"{c['stem']}.csv"))
        bad, why = checks.check_gram(grid, n, label)
        failed += bad
        messages += why
        cells[c["label"], c["regime"]] = grid
    for call in workload.calls:
        pair = [cells.get((call.label, r)) for r in ("implicit", "explicit")]
        if call.compare and None not in pair:
            bad, why = checks.compare_schemes(*pair, n, call.label)
            failed += bad
            messages += why
    return failed, messages


def traced_layers(tracer: Tracer, calls: List[dict]) -> dict:
    spans, counts = tracer.take_round()
    times = span_times(spans)
    layers = {metric: times[name]["self"] if name in times else 0.0
              for metric, name in SELF_TIMES.items()}
    layers.update(counts)
    for field in TIMING_FIELDS:
        layers[f"gram.{field}"] = 0
    overhead = 0.0
    for c in calls:
        if c["code"] != 0:
            continue
        with open(f"{c['stem']}.timing.json") as fh:
            timing = json.load(fh)
        for field in TIMING_FIELDS:
            layers[f"gram.{field}"] += timing.get(field, 0)
        overhead += c["wall"] - timing["seconds_total"]
    layers["cli.overhead_s"] = overhead
    layers["_pairs_us"] = pair_latencies_us(spans)
    return layers, spans


# -- a whole run -------------------------------------------------------------


def measure(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path) -> dict:
    """Run one workload for ``seconds`` and return its metrics and findings."""
    workload = WORKLOADS[workload_name]
    n = workload.smoke_count if smoke else workload.count
    wanted = 0 if trace else 1 if smoke else SETUP_PROBES
    probes: List[float] = []

    def probe() -> None:
        probes.append(probe_setup(workload_name, seed, smoke, workdir / f"probe{len(probes)}"))

    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        spec = set_up(workload, seed, n, workdir / "data")
    setup_layers = {}
    if tracer:
        times = span_times(tracer.take_round()[0])
        setup_layers = {m: times[s]["total"] for m, s in SETUP_TIMES.items()}

    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    rounds: List[dict] = []
    spans: List[list] = []  # of the last traced round
    measured = 0.0
    while True:
        if len(probes) < wanted:  # spread over the run, so they meet the host as the rounds do
            probe()
        traced = tracer is not None and len(rounds) % 2 == 1
        started = time.perf_counter()
        result = run_round(workload, spec, n, out, tracer if traced else None)
        result["traced"] = traced
        result["seconds"] = time.perf_counter() - started
        spans = result.pop("spans", spans)
        rounds.append(result)
        measured += result["seconds"]
        need = MIN_ROUNDS if tracer is None else 2
        if len(rounds) >= need and measured + max(r["seconds"] for r in rounds[-2:]) > seconds:
            break
    while len(probes) < wanted:
        probe()

    plain = [r for r in rounds if not r["traced"]]
    implicit = scheme_seconds(plain, "implicit")
    explicit = scheme_seconds(plain, "explicit")
    report = {
        "workload": workload_name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "graphs": n,
        "rounds": len(rounds),
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "messages": [m for r in rounds for m in r["messages"]],
        "crossover": {
            "winner": "implicit" if implicit < explicit else "explicit",
            "explicit_over_implicit": explicit / implicit,
        },
        "per_round": [{k: r[k] for k in ("traced", "seconds", "walls")} for r in rounds],
    }
    if tracer is None:
        report["metrics"] = {
            "setup_s": statistics.median(probes),
            "implicit_gram_s": implicit,
            "explicit_gram_s": explicit,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        layered = [r for r in rounds if r["traced"]]
        report["metrics"], mismatch = per_layer(layered, plain, setup_layers)
        report["messages"] += mismatch
        report["spans"] = spans
    return report


def scheme_seconds(rounds: List[dict], regime: str) -> float:
    """Wall seconds of one scheme's calls per round, averaged over the rounds.

    Each call does the same work in every round; on a shared host the round
    times are bimodal (the CPU's neighbours come and go), and the mean moves
    with the mix of fast and slow rounds where the median jumps between them.
    """
    return sum(
        statistics.fmean(r["walls"][key] for r in rounds)
        for key in rounds[0]["walls"]
        if key.endswith("/" + regime)
    )


def per_layer(traced: List[dict], plain: List[dict], setup_layers: dict) -> tuple:
    layers = [r["layers"] for r in traced]
    metrics = dict(setup_layers)
    messages = []
    for name, unit in PER_LAYER.items():
        if name in metrics or name.startswith(("gram.pair_", "trace.")):
            continue
        values = [layer.get(name, 0) for layer in layers]
        if unit == "count":
            if len(set(values)) > 1:
                messages.append(f"{name} differs between rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    samples = [us for layer in layers for us in layer["_pairs_us"]]
    metrics["gram.pair_p50_us"] = percentile(samples, 0.5) if samples else 0.0
    metrics["gram.pair_p999_us"] = percentile(samples, 0.999) if samples else 0.0
    metrics["trace.overhead_s"] = sum(
        scheme_seconds(traced, regime) - scheme_seconds(plain, regime) for regime in REGIMES
    )
    return metrics, messages


# -- environment -------------------------------------------------------------


def environment(root: Path, seed: int) -> Dict[str, object]:
    sources = sorted((root / "src" / "gkern").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(root),
        "seed": seed,
        "src_gkern_py_lines": lines,
        "src_gkern_sha256": digest.hexdigest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
