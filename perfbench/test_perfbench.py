"""Self-tests of the gkern benchmark; they use its smoke sizes and run in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import gkern  # noqa: E402
import harness  # noqa: E402
from spans import TRACED  # noqa: E402

HERE = Path(__file__).resolve().parent


def benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_imports_only_the_public_api():
    public = set(gkern.__all__)
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gkern":
                        assert alias.name == "gkern", f"{where}: import {alias.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gkern":
                names = {alias.name for alias in node.names}
                if node.module == "gkern.cli":
                    assert names == {"main"}, f"{where}: from gkern.cli import {names}"
                else:
                    assert node.module == "gkern", f"{where}: from {node.module} import ..."
                    assert names <= public, f"{where}: {names - public} not in gkern.__all__"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "gkern"):
                assert node.attr in public | {"__all__", "__file__"}, f"{where}: gkern.{node.attr}"
    assert set(TRACED) <= public
    assert not any(name.startswith("_") for name in TRACED)


def test_metrics_and_workloads_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    report = harness.measure(workload, seed=3, seconds=0, trace=False, smoke=True,
                             workdir=tmp_path)
    assert report["failed"] == 0 and report["messages"] == []
    assert report["attempted"] > 0
    assert set(report["metrics"]) == set(harness.END_TO_END)
    assert all(value > 0 for value in report["metrics"].values())
    assert report["crossover"]["winner"] in ("implicit", "explicit")


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_and_repeats_counts(workload, tmp_path):
    first, second = (
        harness.measure(workload, seed=3, seconds=0, trace=True, smoke=True,
                        workdir=tmp_path / str(i))
        for i in range(2)
    )
    for report in (first, second):
        assert report["failed"] == 0 and report["messages"] == []
        assert set(report["metrics"]) == set(harness.PER_LAYER)
        assert report["spans"]
    counts = [name for name, unit in harness.PER_LAYER.items() if unit == "count"]
    assert {c: first["metrics"][c] for c in counts} == {c: second["metrics"][c] for c in counts}
    assert first["metrics"]["gram.pairs"] > 0


def smoke_round(tmp_path):
    workload = harness.WORKLOADS["walk-diverse"]
    n = workload.smoke_count
    spec = harness.set_up(workload, 5, n, tmp_path / "data")
    (tmp_path / "out").mkdir()
    result = harness.run_round(workload, spec, n, tmp_path / "out", None)
    assert result["failed"] == 0
    return workload, n


def test_perturbed_csv_shows_in_failed_ops(tmp_path):
    workload, n = smoke_round(tmp_path)
    calls = [{"label": "walk", "regime": r, "code": 0, "stem": tmp_path / "out" / f"walk.{r}"}
             for r in ("implicit", "explicit")]
    assert harness.check_round(workload, calls, n) == (0, [])

    path = tmp_path / "out" / "walk.explicit.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[0][1] = rows[1][0] = repr(float(rows[0][1]) + 1.0)  # still symmetric
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    failed, messages = harness.check_round(workload, calls, n)
    assert failed == 1
    assert "differ between schemes" in messages[0]

    rows[2][3] = "nan"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert harness.check_round(workload, calls, n)[0] == 3  # the nan, and two entries that differ


def test_failed_call_counts_all_its_entries(tmp_path):
    workload, n = smoke_round(tmp_path)
    calls = [{"label": "walk", "regime": "implicit", "code": 3, "stem": tmp_path / "missing"},
             {"label": "walk", "regime": "explicit", "code": 0,
              "stem": tmp_path / "out" / "walk.explicit"}]
    failed, messages = harness.check_round(workload, calls, n)
    assert failed == n * (n + 1) // 2
    assert "exited with 3" in messages[0]


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "walk-uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
