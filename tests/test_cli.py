"""Command line interface: argument handling, outputs, exit codes."""

import json

import numpy as np
import pytest

import gkern.bench
from gkern import load_gram_csv, load_tu_dataset
from gkern.bench import KERNELS, kernel_plan
from gkern.features import TAG_GRAPHLET, FeatureVector, feature_key
from gkern.cli import load_data_spec, main


DATA = "labeled:count=6,mean=8,edge-prob=0.2,pv=0.5"


class TestDataSpecs:
    def test_synthetic_specs(self):
        ds = load_data_spec(DATA, seed=3)
        assert len(ds) == 6
        again = load_data_spec(DATA, seed=3)
        assert [g.n for g in ds] == [g.n for g in again]
        alpha = load_data_spec("alphabet:count=4,mean=10,alphabet=3", seed=1)
        assert len(alpha) == 4

    def test_bad_specs_are_usage_errors(self):
        from gkern import ParameterError

        for spec in (
            "labeled:mean=8",            # missing count
            "labeled:count=4,shape=9",   # unknown parameter
            "labeled:count",             # not key=value
            "mystery:count=4",           # unknown kind
            "tu:only-a-name",            # malformed tu spec
        ):
            with pytest.raises(ParameterError):
                load_data_spec(spec, seed=0)


class TestCompute:
    def test_both_regimes_agree_and_write_files(self, tmp_path, capsys):
        out = str(tmp_path / "walk")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "walk",
                "--length", "3",
                "--out", out,
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "max relative discrepancy between schemes: 0.000e+00" in stdout
        implicit = load_gram_csv(f"{out}.implicit.csv")
        explicit = load_gram_csv(f"{out}.explicit.csv")
        assert (implicit == explicit).all()
        assert implicit.shape == (6, 6)
        timing = json.loads(open(f"{out}.implicit.timing.json").read())
        assert timing["scheme"] == "implicit"
        assert timing["seconds_total"] == timing["seconds_pairs"] >= 0
        assert float(open(f"{out}.discrepancy.txt").read()) == 0.0

    def test_maxwalk_regimes_agree(self, tmp_path, capsys):
        out = str(tmp_path / "maxwalk")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "maxwalk",
                "--length", "4",
                "--out", out,
            ]
        )
        assert code == 0
        assert "max relative discrepancy between schemes: 0.000e+00" in capsys.readouterr().out
        implicit = load_gram_csv(f"{out}.implicit.csv")
        assert (implicit == load_gram_csv(f"{out}.explicit.csv")).all()

    def test_single_regime_single_file(self, tmp_path):
        out = str(tmp_path / "one")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "sp",
                "--regime", "implicit",
                "--out", out,
            ]
        )
        assert code == 0
        gram = load_gram_csv(f"{out}.csv")
        assert gram.shape == (6, 6)
        assert (gram == gram.T).all()

    def test_svm_precomputed_format(self, tmp_path):
        out = str(tmp_path / "svm")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "graphlet",
                "--regime", "explicit",
                "--format", "svm-precomputed",
                "--out", out,
            ]
        )
        assert code == 0
        lines = open(f"{out}.svm").read().splitlines()
        assert len(lines) == 6
        assert lines[0].split()[1] == "0:1"

    def test_normalize_flag(self, tmp_path):
        out = str(tmp_path / "norm")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "walk",
                "--regime", "implicit",
                "--length", "2",
                "--normalize",
                "--out", out,
            ]
        )
        assert code == 0
        gram = load_gram_csv(f"{out}.csv")
        diag = np.diag(gram)
        # sqrt(x) * sqrt(x) may be one ulp off x, so the diagonal is 1
        # only to float precision
        assert (np.isclose(diag, 1.0, rtol=1e-12) | (diag == 0.0)).all()

    def test_weighted_kernels_both_regimes(self, capsys):
        for kernel in ("graph-invariant", "graphhopper"):
            code = main(
                [
                    "compute",
                    "--data", "labeled:count=4,mean=6,edge-prob=0.3",
                    "--kernel", kernel,
                ]
            )
            assert code == 0
            assert "0.000e+00" in capsys.readouterr().out

    def test_bridge_length_kernel_is_implicit_only(self, capsys):
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "sp",
                "--length-kernel", "brownian-bridge",
            ]
        )
        assert code == 2
        assert "implicit-only" in capsys.readouterr().err

    def test_subgraph_matching_explicit_regime_matches_implicit(self, tmp_path, capsys):
        out = str(tmp_path / "sm")
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "subgraph-matching",
                "--max-size", "4",
                "--connected-only",
                "--out", out,
            ]
        )
        assert code == 0
        assert "max relative discrepancy between schemes: 0.000e+00" in capsys.readouterr().out
        assert open(f"{out}.implicit.csv").read() == open(f"{out}.explicit.csv").read()

    def test_explicit_subgraph_matching_stops_at_size_five(self, capsys):
        code = main(
            [
                "compute",
                "--data", DATA,
                "--kernel", "subgraph-matching",
                "--max-size", "6",
                "--regime", "explicit",
            ]
        )
        assert code == 2
        assert "max_size 5" in capsys.readouterr().err

    def test_subgraph_matching_implicit_works(self, capsys):
        code = main(
            [
                "compute",
                "--data", "labeled:count=3,mean=5,edge-prob=0.3",
                "--kernel", "subgraph-matching",
                "--regime", "implicit",
                "--max-size", "2",
            ]
        )
        assert code == 0


class TestStats:
    def test_summary_line(self, capsys):
        code = main(["stats", "--data", DATA])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "6 graphs" in line
        assert "vertex labels +" in line
        assert "edge labels +" in line
        assert "attributes -" in line

    def test_missing_dataset_is_a_data_error(self, capsys):
        code = main(["stats", "--data", "tu:/nonexistent/dir:NOPE"])
        assert code == 3
        assert "error:" in capsys.readouterr().err


class TestGenerate:
    def test_round_trip_through_disk(self, tmp_path, capsys):
        out = str(tmp_path)
        code = main(
            [
                "generate",
                "--generator", "labeled",
                "--count", "5",
                "--mean", "7",
                "--name", "TINY",
                "--out", out,
                "--seed", "11",
            ]
        )
        assert code == 0
        assert "wrote 5 graphs" in capsys.readouterr().out
        ds = load_tu_dataset(out, "TINY")
        assert len(ds) == 5
        # the CLI can consume what it wrote
        assert main(["stats", "--data", f"tu:{out}:TINY"]) == 0

    def test_alphabet_generator(self, tmp_path):
        code = main(
            [
                "generate",
                "--generator", "alphabet",
                "--count", "3",
                "--mean", "6",
                "--edge-prob", "0.4",
                "--alphabet", "3",
                "--name", "ALPHA",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        ds = load_tu_dataset(str(tmp_path), "ALPHA")
        assert ds.has_edge_labels


class TestSweep:
    def test_tiny_pv_sweep_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                "--axis", "pv",
                "--sizes", "4,6",
                "--grid", "0.0,0.5",
                "--length", "3",
                "--reps", "1",
                "--quiet",
                "--out", out,
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        header = lines[0].split(",")
        assert header == [
            "axis",
            "value",
            "size",
            "implicit_seconds",
            "explicit_seconds",
            "winner",
            "max_rel_discrepancy",
        ]
        assert len(lines) == 1 + 4  # 2 sizes x 2 grid values
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            assert cells["axis"] == "pv"
            assert cells["winner"] in ("implicit", "explicit")
            assert float(cells["max_rel_discrepancy"]) < 1e-10

    def test_progress_lines_unless_quiet(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--axis", "length",
                "--sizes", "4",
                "--grid", "1,2",
                "--reps", "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()


class TestConfig:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(
            json.dumps(
                {
                    "data": DATA,
                    "kernel": "walk",
                    "regime": "implicit",
                    "length": 2,
                }
            )
        )
        code = main(["compute", "--config", str(config)])
        assert code == 0
        assert "walk(l=2)" in capsys.readouterr().out
        code = main(["compute", "--config", str(config), "--length", "5"])
        assert code == 0
        assert "walk(l=5)" in capsys.readouterr().out

    def test_missing_and_malformed_config(self, tmp_path, capsys):
        code = main(["compute", "--config", str(tmp_path / "none.json")])
        assert code == 3
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["compute", "--config", str(bad)]) == 3
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        assert main(["compute", "--config", str(listy)]) == 3

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["compute", "--data", DATA, "--kernel", "walk", "--frobnicate"])
        assert info.value.code == 2


# -- kernel plans ----------------------------------------------------------

TINY = "labeled:count=4,mean=6,edge-prob=0.3,pv=0.5"


@pytest.mark.parametrize("regime", ("implicit", "explicit", "both"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kernel_and_regime(kernel, regime, tmp_path, capsys):
    plan = kernel_plan(kernel, load_data_spec(TINY, seed=0))
    regimes = ("implicit", "explicit") if regime == "both" else (regime,)
    reasons = [getattr(plan, r) for r in regimes if isinstance(getattr(plan, r), str)]
    out = str(tmp_path / "gram")
    code = main(
        ["compute", "--data", TINY, "--kernel", kernel, "--regime", regime, "--out", out]
    )
    if reasons:
        assert code == 2
        assert reasons[0] in capsys.readouterr().err
        return
    assert code == 0
    if regime == "both":
        # Dirac defaults: the two schemes export the same text
        assert open(f"{out}.implicit.csv").read() == open(f"{out}.explicit.csv").read()
    else:
        assert load_gram_csv(f"{out}.csv").shape == (4, 4)


def test_missing_scheme_is_rejected_before_any_gram(monkeypatch, capsys):
    import sys

    import gkern

    calls = []
    real = gkern.gram_implicit
    counting = lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("gkern.") and getattr(module, "gram_implicit", None) is real:
            monkeypatch.setattr(module, "gram_implicit", counting)
    code = main(
        ["compute", "--data", DATA, "--kernel", "sp", "--length-kernel", "brownian-bridge"]
    )
    assert code == 2
    assert "implicit-only" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("regime", ("implicit", "explicit"))
def test_gram_failure_exits_with_its_cause_code(regime, capsys):
    # one uniformly labelled K20-like pair: ~8.3e35 walks of length 12,
    # past the exact float64 integers on either scheme
    code = main(
        [
            "compute",
            "--data", "labeled:count=2,mean=20,edge-prob=1.0,pv=0.0",
            "--kernel", "walk",
            "--length", "12",
            "--regime", regime,
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert f"walk(l=12)/{regime}: pair (0, 0) failed" in err
    assert "2**53" in err


@pytest.mark.parametrize("axis", ("length", "alphabet"))
def test_sweep_length_only_on_pv_axis(axis, capsys):
    code = main(
        ["sweep", "--axis", axis, "--sizes", "3", "--grid", "1", "--reps", "1", "--length", "3"]
    )
    assert code == 2
    assert "--length" in capsys.readouterr().err


def test_empty_dataset_writes_empty_grams(tmp_path):
    out = str(tmp_path / "empty")
    code = main(["compute", "--data", "labeled:count=0", "--kernel", "walk", "--out", out])
    assert code == 0
    for scheme in ("implicit", "explicit"):
        assert open(f"{out}.{scheme}.csv").read() == ""
        assert load_gram_csv(f"{out}.{scheme}.csv").size == 0
    assert float(open(f"{out}.discrepancy.txt").read()) == 0.0


def test_explicit_timing_json_counts_distinct_features(tmp_path):
    out = str(tmp_path / "walk")
    code = main(
        ["compute", "--data", DATA, "--kernel", "walk", "--length", "2",
         "--regime", "explicit", "--out", out]
    )
    assert code == 0
    timing = json.loads(open(f"{out}.timing.json").read())
    assert 0 < timing["distinct_features"] <= timing["stored_features"]
    assert timing["seconds_total"] == pytest.approx(
        timing["seconds_feature_maps"] + timing["seconds_dot"], abs=2e-6
    )


@pytest.mark.parametrize("generator", ("labeled", "alphabet"))
def test_generate_writes_the_spec_dataset(generator, tmp_path):
    # flags left unset keep the generator's own defaults, as in a --data spec
    out = str(tmp_path)
    args = ["generate", "--generator", generator, "--count", "3", "--seed", "1"]
    assert main([*args, "--name", "GEN", "--out", out]) == 0
    written = load_data_spec(f"tu:{out}:GEN", seed=0)
    drawn = load_data_spec(f"{generator}:count=3", seed=1)
    assert len(written) == len(drawn) == 3
    for a, b in zip(written, drawn):
        assert a.n == b.n
        assert a.edges.tolist() == b.edges.tolist()
        assert a.vertex_labels.tolist() == b.vertex_labels.tolist()
        assert a.edge_labels.tolist() == b.edge_labels.tolist()


def test_generate_rejects_a_flag_its_generator_lacks(tmp_path, capsys):
    args = ["generate", "--generator", "alphabet", "--count", "2", "--pv", "0.3"]
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert "pv" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ("explicit",))
def test_graphlet_dots_past_2_53_fail_their_pair(regime, monkeypatch, capsys):
    # one class counted 2**27 times: its self-dot is 2**54
    heavy = FeatureVector({feature_key(TAG_GRAPHLET, (0,)): 2**27})
    monkeypatch.setattr(gkern.bench, "graphlet_features", lambda g: heavy)
    code = main(["compute", "--data", DATA, "--kernel", "graphlet", "--regime", regime])
    assert code == 4
    err = capsys.readouterr().err
    assert f"graphlet(3)/{regime}: pair (0, 0) failed" in err
    assert "2**53" in err


@pytest.mark.parametrize("count", (4, 0))
@pytest.mark.parametrize(
    "kernel, flag, value",
    (("walk", "--length", "-1"), ("subgraph-matching", "--max-size", "0")),
)
def test_out_of_range_sizes_are_usage_errors(kernel, flag, value, count, tmp_path, capsys):
    out = str(tmp_path / "gram")
    argv = ["compute", "--data", f"labeled:count={count}", "--kernel", kernel]
    assert main([*argv, flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert value in err
    assert "pair" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, value",
    (
        (["compute", "--data", "labeled:count=abc", "--kernel", "walk"], "'abc'"),
        (["sweep", "--sizes", "x"], "'x'"),
        (["sweep", "--axis", "length", "--grid", "2.5"], "'2.5'"),
    ),
)
def test_malformed_numbers_are_usage_errors_naming_the_value(argv, value, capsys):
    assert main(argv) == 2
    assert value in capsys.readouterr().err
