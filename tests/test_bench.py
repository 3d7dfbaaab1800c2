"""Kernel plans and sweep machinery: scheme agreement, discrepancy
measure, the axis table's recorded calls, rows, CSV output."""

import functools
import inspect
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkern.bench
from gkern import (
    Dataset,
    Graph,
    GramMatrix,
    ParameterError,
    generate_synthetic_alphabet,
    generate_synthetic_labeled,
)
from gkern.bench import (
    AXES,
    KernelPlan,
    kernel_plan,
    max_relative_discrepancy,
    sweep,
    write_sweep_csv,
)
from gkern.cli import main
from gkern.graphs import DisjointUnion
from conftest import graphs
from oracles import oracle_graphlet_kernel


class TestKernelPlanSchemes:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(graphs(), max_size=4))
    def test_dirac_plans_agree_bit_for_bit_on_mixed_labels(self, members):
        # some graphs carry edge labels and some do not; both schemes read
        # an unlabeled edge as label 0
        ds = Dataset("mixed", members)
        for kernel in (
            "walk",
            "maxwalk",
            "sp",
            "subgraph-matching",
            "graph-invariant",
            "graphhopper",
        ):
            implicit, explicit = kernel_plan(kernel, ds, length=2).grams(
                ("implicit", "explicit")
            )
            assert implicit.values.tobytes() == explicit.values.tobytes(), kernel

    def test_labeled_and_unlabeled_edges_are_compared_as_label_zero(self):
        p3 = [(0, 1), (1, 2)]
        ds = Dataset("p3", [Graph(3, p3, edge_labels=[1, 1]), Graph(3, p3)])
        # no edge matches, so only the 3 x 3 length-0 walks of maxwalk count
        for kernel, value in (("walk", 0.0), ("maxwalk", 9.0)):
            implicit, explicit = kernel_plan(kernel, ds, length=2).grams(
                ("implicit", "explicit")
            )
            assert implicit.values[0, 1] == explicit.values[0, 1] == value, kernel

    def test_attribute_only_graphs_read_as_label_zero(self):
        # continuous attributes and no labels: every Dirac map, like every
        # implicit scheme, reads the graph as unlabeled (label 0)
        g = Graph(3, [(0, 1), (1, 2)], vertex_attributes=[[0.5], [1.0], [0.2]])
        ds = Dataset("attributes", [g])
        for kernel in ("walk", "sp", "subgraph-matching"):
            implicit, explicit = kernel_plan(kernel, ds, length=2).grams(
                ("implicit", "explicit")
            )
            assert implicit.values.tobytes() == explicit.values.tobytes(), kernel
        # graphlet counts have no implicit scheme; the oracle stands in
        graphlet = kernel_plan("graphlet", ds).builder("explicit")()
        assert graphlet.values[0, 0] == oracle_graphlet_kernel(g, g) == 1

    @pytest.mark.parametrize(
        "kernel, traced",
        [
            ("walk", "walk_kernel_implicit"),
            ("maxwalk", "walk_kernel_implicit"),
            ("sp", "walk_kernel_implicit"),
            ("subgraph-matching", "subgraph_matching_kernel"),
            ("graph-invariant", "wv_kernel_implicit"),
            ("graphhopper", "wv_kernel_implicit"),
        ],
    )
    def test_implicit_builders_call_the_public_kernel(self, monkeypatch, kernel, traced):
        # a tracer times a layer by replacing its public function on every
        # gkern module, so each plan must call that function by its name
        public = getattr(gkern.bench, traced)
        assert public is getattr(gkern, traced)
        calls = []

        def recorder(g, hs, *args, **kwargs):
            calls.append((len(g) if isinstance(g, DisjointUnion) else 1, len(hs)))
            return public(g, hs, *args, **kwargs)

        monkeypatch.setattr(gkern.bench, traced, recorder)
        ds = Dataset("p3", [Graph(3, [(0, 1), (1, 2)]), Graph(2, [(0, 1)])])
        kernel_plan(kernel, ds, length=2).builder("implicit")()
        # the walk-kernel plans take both rows in one run (walks.GRAM_ROWS),
        # the others a call per row
        runs = kernel in ("walk", "maxwalk", "sp")
        assert calls == ([(2, 2)] if runs else [(1, 2), (1, 1)])


class TestDiscrepancy:
    def test_zero_for_identical(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert max_relative_discrepancy(a, a.copy()) == 0.0

    def test_absolute_below_one_relative_above(self):
        # |a| < 1 uses the absolute difference, larger entries the relative
        a = np.array([[0.5, 100.0]])
        b = np.array([[0.6, 101.0]])
        got = max_relative_discrepancy(a, b)
        assert got == pytest.approx(0.1)
        a = np.array([[100.0]])
        b = np.array([[103.0]])
        assert max_relative_discrepancy(a, b) == pytest.approx(0.03)

    def test_rejects_bad_reps_through_sweeps(self):
        with pytest.raises(ParameterError):
            sweep("length", sizes=(3,), grid=(1,), reps=0)


class TestSweepRows:
    def test_length_sweep_row_schema(self):
        rows = sweep("length", sizes=(4,), grid=(1, 3), reps=1, seed=5)
        assert len(rows) == 2
        for row, expected_length in zip(rows, (1, 3)):
            assert row["axis"] == "length"
            assert row["value"] == expected_length
            assert row["size"] == 4
            assert row["winner"] in ("implicit", "explicit")
            faster = min(row["implicit_seconds"], row["explicit_seconds"])
            chosen = row[f"{row['winner']}_seconds"]
            assert chosen == faster
            # one rep has no spread
            assert row["implicit_iqr_seconds"] == row["explicit_iqr_seconds"] == 0.0
            assert row["max_rel_discrepancy"] < 1e-10

    def test_rows_carry_the_quartile_distance_of_their_reps(self, monkeypatch):
        # a clock whose builds take 1, 2, 3, 10 s (implicit) and then
        # 4, 4, 4, 4 s (explicit): the inclusive quartiles of the first
        # are 1.75 and 4.75, and the medians name the winner as before
        durations = iter([1, 2, 3, 10, 4, 4, 4, 4])
        readings = iter(
            reading for d in durations for reading in (0.0, float(d))
        )
        monkeypatch.setattr(
            gkern.bench, "time", types.SimpleNamespace(perf_counter=lambda: next(readings))
        )
        (row,) = sweep("length", sizes=(3,), grid=(1,), reps=4, seed=5)
        assert row["implicit_seconds"] == 2.5 and row["implicit_iqr_seconds"] == 3.0
        assert row["explicit_seconds"] == 4.0 and row["explicit_iqr_seconds"] == 0.0
        assert row["winner"] == "implicit"

    def test_alphabet_axis_runs_small(self):
        rows = sweep(
            "alphabet", sizes=(4,), grid=(1, 2), mean_vertices=6.0, reps=1, seed=3
        )
        assert [row["value"] for row in rows] == [1, 2]
        assert all(row["axis"] == "alphabet" for row in rows)
        # one kernel timed two ways: the Grams agree exactly
        assert all(row["max_rel_discrepancy"] == 0.0 for row in rows)

    def test_csv_round_trip(self, tmp_path):
        rows = sweep("length", sizes=(4,), grid=(2,), reps=1, seed=7)
        path = str(tmp_path / "rows.csv")
        assert write_sweep_csv(rows, path) == path
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("axis,value,size,")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "length"


# What every axis draws and times, written out as literals: its generator,
# whether a dataset is drawn per grid value (from seed + step) or once (from
# seed), the keyword a grid value sets, the kernel with its fixed plan
# keywords, and per scale the sizes, the grid and the fixed generator
# keywords.  A change to gkern.bench.AXES that moves any of them shows here.
PINNED = {
    "pv": (
        "labeled", True, "p_vertex", "walk", {"length": 7},
        {
            "desk": ((50, 100, 150), (0.0, 0.3, 0.6, 0.9),
                     {"mean_vertices": 20.0, "edge_prob": 0.1}),
            "full": ((100, 120, 140, 160, 180, 200, 220, 240, 260, 280, 300),
                     (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                     {"mean_vertices": 20.0, "edge_prob": 0.1}),
        },
    ),
    "length": (
        "labeled", False, "length", "walk", {},
        {
            "desk": ((50, 100), (1, 2, 3, 5, 7),
                     {"p_vertex": 0.4, "mean_vertices": 20.0, "edge_prob": 0.1}),
            "full": ((100, 200, 300), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                     {"p_vertex": 0.4, "mean_vertices": 20.0, "edge_prob": 0.1}),
        },
    ),
    "alphabet": (
        "alphabet", True, "alphabet_size", "subgraph-matching",
        {"max_size": 3, "connected_only": True},
        {
            "desk": ((20, 40), (1, 2, 4, 8, 16), {"mean_vertices": 15.0, "edge_prob": 0.3}),
            "full": ((100, 200, 300), (1, 2, 3, 4, 5, 10, 15, 20, 30, 45, 65),
                     {"mean_vertices": 60.0, "edge_prob": 0.5}),
        },
    ),
    "walk-alphabet": (
        "alphabet", True, "alphabet_size", "walk", {"length": 4},
        {
            "desk": ((20, 40), (1, 2, 4, 8, 16), {"mean_vertices": 15.0, "edge_prob": 0.3}),
            "full": ((100, 200, 300), (1, 2, 3, 4, 5, 10, 15, 20, 30, 45, 65),
                     {"mean_vertices": 15.0, "edge_prob": 0.3}),
        },
    ),
    "size": (
        "alphabet", False, "max_size", "subgraph-matching", {"connected_only": True},
        {
            "desk": ((20, 40), (1, 2, 3, 4, 5),
                     {"alphabet_size": 20, "mean_vertices": 15.0, "edge_prob": 0.3}),
            "full": ((100, 200, 300), (1, 2, 3, 4, 5),
                     {"alphabet_size": 20, "mean_vertices": 15.0, "edge_prob": 0.3}),
        },
    ),
}
GENERATORS = {"labeled": generate_synthetic_labeled, "alphabet": generate_synthetic_alphabet}


def _bound(fn, args, kwargs):
    """The arguments of a call of ``fn``, defaults filled in, by name."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _expected(axis, scale, *, reps, seed, sizes=None, grid=None, dataset=(), plan=()):
    """The calls a sweep along ``axis`` makes, in order, from PINNED;
    ``dataset`` and ``plan`` replace fixed generator and plan keywords."""
    generator, per_value, keyword, kernel, plan_kw, scales = PINNED[axis]
    default_sizes, default_grid, data_kw = scales[scale]
    sizes = sorted(sizes or default_sizes)
    data_kw, plan_kw = {**data_kw, **dict(dataset)}, {**plan_kw, **dict(plan)}
    calls = []
    for step, value in enumerate(grid or default_grid):
        if per_value or step == 0:
            setting = {keyword: value} if per_value else {}
            args = {"count": sizes[-1], **data_kw, **setting, "seed": seed + step}
            calls.append(("generate", generator, _bound(GENERATORS[generator], (), args)))
        draw = step if per_value else 0
        for size in sizes:
            setting = {} if per_value else {keyword: value}
            args = {"kernel": kernel, "ds": None, **plan_kw, **setting}
            arguments = _bound(kernel_plan, (), args)
            del arguments["ds"]
            calls.append(("plan", f"draw{draw}[:{size}]", arguments))
            calls += [("build", "implicit")] * reps + [("build", "explicit")] * reps
    return calls


@pytest.fixture
def recorded(monkeypatch):
    """Record every generator, kernel_plan and Gram-builder call of the
    sweep driver, in order, instead of computing anything."""
    calls = []
    point = Graph(1, [])

    def recording(kind, real):
        @functools.wraps(real)
        def generate(*args, **kwargs):
            arguments = _bound(real, args, kwargs)
            draw = sum(call[0] == "generate" for call in calls)
            calls.append(("generate", kind, arguments))
            return Dataset(f"draw{draw}", [point] * arguments["count"])

        return generate

    def plan(*args, **kwargs):
        arguments = _bound(kernel_plan, args, kwargs)
        ds = arguments.pop("ds")
        calls.append(("plan", ds.name, arguments))

        def build(regime):
            def gram():
                calls.append(("build", regime))
                return GramMatrix(np.zeros((len(ds), len(ds))), regime, [])

            return gram

        return KernelPlan(build("implicit"), build("explicit"))

    for kind, real in GENERATORS.items():
        monkeypatch.setattr(gkern.bench, real.__name__, recording(kind, real))
    monkeypatch.setattr(gkern.bench, "kernel_plan", plan)
    return calls


class TestSweepTable:
    @pytest.mark.parametrize("scale", ("desk", "full"))
    @pytest.mark.parametrize("axis", tuple(PINNED))
    def test_every_axis_draws_and_plans_as_pinned(self, axis, scale, recorded):
        assert set(AXES) == set(PINNED)
        rows = sweep(axis, full_scale=scale == "full", reps=2, seed=7)
        assert recorded == _expected(axis, scale, reps=2, seed=7)
        assert len(rows) == sum(call[0] == "plan" for call in recorded)

    @pytest.mark.parametrize(
        "flags, keywords, expected",
        (
            # gkern sweep's defaults: the pv axis, desk scale, seed 0, 5 runs
            ([], {}, ("pv", "desk", {})),
            (["--axis", "length"], {"axis": "length"}, ("length", "desk", {})),
            (
                ["--axis", "alphabet", "--full-scale"],
                {"axis": "alphabet", "full_scale": True},
                ("alphabet", "full", {}),
            ),
            (
                ["--axis", "pv", "--sizes", "6,3", "--grid", "0.5,0.1", "--length", "3",
                 "--seed", "4", "--reps", "2"],
                {"axis": "pv", "sizes": (6, 3), "grid": (0.5, 0.1), "length": 3, "seed": 4,
                 "reps": 2},
                ("pv", "desk", {"sizes": (6, 3), "grid": (0.5, 0.1), "plan": {"length": 3},
                                "seed": 4, "reps": 2}),
            ),
            (
                ["--axis", "length", "--full-scale", "--sizes", "5", "--grid", "4,2"],
                {"axis": "length", "full_scale": True, "sizes": (5,), "grid": (4, 2)},
                ("length", "full", {"sizes": (5,), "grid": (4, 2)}),
            ),
        ),
    )
    def test_gkern_sweep_and_the_driver_make_the_same_calls(
        self, flags, keywords, expected, recorded, capsys
    ):
        assert main(["sweep", *flags, "--quiet"]) == 0
        from_cli = list(recorded)
        recorded.clear()
        sweep(keywords.pop("axis", "pv"), **keywords)
        assert recorded == from_cli
        axis, scale, overrides = expected
        overrides = {"reps": 5, "seed": 0, **overrides}
        assert from_cli == _expected(axis, scale, **overrides)

    def test_empty_sizes_are_a_parameter_error(self):
        with pytest.raises(ParameterError, match="sizes"):
            sweep("length", sizes=(), grid=(1,))

    @pytest.mark.parametrize(
        "axis, keyword", (("length", "length"), ("alphabet", "length"), ("pv", "p_vertex"))
    )
    def test_a_keyword_the_axis_does_not_fix_is_a_parameter_error(self, axis, keyword):
        with pytest.raises(ParameterError, match=f"the {axis} axis takes no {keyword}"):
            sweep(axis, sizes=(2,), grid=(1,), reps=1, **{keyword: 1})
