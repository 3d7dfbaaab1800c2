"""Span tracing of gkern's public functions, recorded from outside the package.

While a :class:`Tracer` is installed, every module of the ``gkern`` package
that holds one of the functions in :data:`TRACED` (all of them names from
``gkern.__all__``) holds a recording wrapper instead.  That catches the
CLI's calls as well as the calls gkern modules make into one another, e.g.
``walk_kernel_implicit`` calling ``build_wdpg``, so nested spans give each
layer its self time.  Nothing inside the package changes, and
uninstalling puts every original back.

A span is ``[span_id, parent_id, name, call_id, start_ns, end_ns]``; spans
of one ``gkern compute`` call share ``call_id``.  Counts are taken at the
same boundaries, from the values the traced functions return.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import gkern

# public function -> span name, "<gkern module>.<layer>"
TRACED: Dict[str, str] = {
    "generate_synthetic_labeled": "graphs.generate",
    "generate_synthetic_alphabet": "graphs.generate",
    "write_tu_dataset": "graphs.write_tu",
    "load_tu_dataset": "graphs.load_tu",
    "all_pairs_shortest_paths": "graphs.apsp",
    "build_wdpg": "walks.build_wdpg",
    "walk_kernel_implicit": "walks.walk_kernel_implicit",
    "walk_features_explicit": "walks.feature_map",
    "sp_transform": "shortest_paths.transform",
    "sp_features_explicit": "shortest_paths.feature_map",
    "wl_refine_dataset": "wl.refine",
    "graph_invariant_weight_maps": "weighted.weight_maps",
    "graphhopper_weight_maps": "weighted.weight_maps",
    "wv_kernel_implicit": "weighted.pair",
    "wv_features_explicit": "weighted.feature_map",
    "subgraph_matching_kernel": "subgraphs.matching_pair",
    "graphlet_features": "subgraphs.graphlet_map",
    "gram_implicit": "gram.implicit",
    "gram_explicit": "gram.explicit",
    "export_gram": "gram.export",
    "normalize": "gram.normalize",
    "min_eigenvalue_estimate": "gram.min_eigenvalue",
}

PAIR_SPAN = "gram.pair"


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.call = -1
        self.grams: List[gkern.GramMatrix] = []
        self._walk_keys: Dict[int, set] = defaultdict(set)
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def begin_call(self, call_id: int) -> None:
        """Attribute the following spans to one ``gkern compute`` call."""
        self.call = call_id

    def take_round(self) -> tuple:
        """Hand over the spans and counts recorded so far and start afresh."""
        counts = dict(self.counts)
        counts["walks.distinct_features"] = sum(len(k) for k in self._walk_keys.values())
        spans = self.spans
        self.spans, self.grams = [], []
        self.counts = defaultdict(int)
        self._walk_keys = defaultdict(set)
        return spans, counts

    # -- wrappers ---------------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            spans = self.spans
            record = [len(spans), stack[-1] if stack else -1, name, self.call, 0, 0]
            spans.append(record)
            stack.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _after(self, fname: str) -> Optional[Callable]:
        if fname == "build_wdpg":
            def after(pg):
                self._count("walks.product_vertices", pg.num_vertices)
                self._count("walks.product_edges", pg.num_edges)
            return after
        if fname == "walk_features_explicit":
            def after(vector):
                self._count("walks.stored_features", len(vector))
                self._walk_keys[self.call].update(vector)
            return after
        if fname == "sp_transform":
            return lambda g: self._count("shortest_paths.transform_edges", g.m)
        if fname == "wl_refine_dataset":
            return lambda colors: self._count("wl.total_colors", colors.total_colors)
        if fname == "gram_explicit":
            def after(gram):
                self._count("features.dot_calls", gram.n * (gram.n + 1) // 2)
                self.grams.append(gram)
            return after
        if fname == "gram_implicit":
            def after(gram):
                self._count("gram.pairs", gram.n * (gram.n + 1) // 2)
                self.grams.append(gram)
            return after
        return None

    def _before(self, fname: str) -> Optional[Callable]:
        if fname != "gram_implicit":
            return None

        def before(args, kwargs):
            # time every pair callback: gram_implicit(ds, pair_kernel, name)
            if "pair_kernel" in kwargs:
                kwargs = dict(kwargs, pair_kernel=self._wrap(PAIR_SPAN, kwargs["pair_kernel"]))
            else:
                args = (args[0], self._wrap(PAIR_SPAN, args[1])) + tuple(args[2:])
            return args, kwargs

        return before

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for fname, span in TRACED.items():
            fn = getattr(gkern, fname)
            wrappers[id(fn)] = (fn, self._wrap(span, fn, self._after(fname), self._before(fname)))
        modules = [m for n, m in list(sys.modules.items()) if n == "gkern" or n.startswith("gkern.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def span_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children, so layer times add up instead of double counting.
    """
    children = defaultdict(int)
    for record in spans:
        if record[1] >= 0:
            children[record[1]] += record[5] - record[4]
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0})
    for record in spans:
        duration = record[5] - record[4]
        entry = out[record[2]]
        entry["total"] += duration / 1e9
        entry["self"] += (duration - children[record[0]]) / 1e9
    return out


def pair_latencies_us(spans: List[list]) -> List[float]:
    return [(r[5] - r[4]) / 1e3 for r in spans if r[2] == PAIR_SPAN]


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]
