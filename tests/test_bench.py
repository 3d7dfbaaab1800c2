"""Kernel plans and sweep machinery: scheme agreement, discrepancy
measure, rows, CSV output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkern import Dataset, Graph, ParameterError
from gkern.bench import (
    alphabet_sweep,
    kernel_plan,
    max_relative_discrepancy,
    walk_length_sweep,
    write_sweep_csv,
)
from conftest import graphs


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
            walk_length_sweep(sizes=(3,), grid=(1,), reps=0)


class TestSweepRows:
    def test_length_sweep_row_schema(self):
        rows = walk_length_sweep(sizes=(4,), grid=(1, 3), reps=1, seed=5)
        assert len(rows) == 2
        for row, expected_length in zip(rows, (1, 3)):
            assert row["axis"] == "length"
            assert row["value"] == expected_length
            assert row["size"] == 4
            assert row["winner"] in ("implicit", "explicit")
            faster = min(row["implicit_seconds"], row["explicit_seconds"])
            chosen = row[f"{row['winner']}_seconds"]
            assert chosen == faster
            assert row["max_rel_discrepancy"] < 1e-10

    def test_alphabet_sweep_runs_small(self):
        rows = alphabet_sweep(
            sizes=(4,), grid=(1, 2), mean_vertices=6.0, reps=1, seed=3
        )
        assert [row["value"] for row in rows] == [1, 2]
        assert all(row["axis"] == "alphabet" for row in rows)
        # one kernel timed two ways: the Grams agree exactly
        assert all(row["max_rel_discrepancy"] == 0.0 for row in rows)

    def test_csv_round_trip(self, tmp_path):
        rows = walk_length_sweep(sizes=(4,), grid=(2,), reps=1, seed=7)
        path = str(tmp_path / "rows.csv")
        assert write_sweep_csv(rows, path) == path
        lines = open(path).read().splitlines()
        assert lines[0].startswith("axis,value,size,")
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "length"
