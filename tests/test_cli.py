import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hazardnet
from hazardnet import npglm
from hazardnet.cli import ExperimentConfig, _run_cell, env_threads, main
from hazardnet.datasets import load_dataset
from hazardnet.graph import load_graph_file, load_schema
from hazardnet.metapaths import metapath_counts, parse_metapath, read_metapath_file
from hazardnet.npglm import HazardModel

from conftest import EXPECTED_ROWS, METAPATH_FILE, SCHEMA_DOC, WINDOW, dense


def run(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = tmp_path / "synth"
        assert run("synth", "--dist", "rayleigh", "--n-observed", 40,
                   "--n-censored", 10, "--dim", 3, "--seed", 7, "--out", out) == 0
        ds = load_dataset(out / "dataset.csv")
        assert ds.n == 50 and ds.n_observed == 40 and ds.d == 3
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["w"]) == 3 and truth["seed"] == 7

    def test_deterministic_output_bytes(self, tmp_path):
        args = ("synth", "--dist", "gompertz", "--n-observed", 25,
                "--dim", 2, "--seed", 3)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == \
            (tmp_path / "b" / "dataset.csv").read_bytes()

    def test_bad_dimension_exits_2(self, tmp_path):
        assert run("synth", "--dist", "rayleigh", "--n-observed", 10,
                   "--dim", 0, "--out", tmp_path) == 2

    def test_unknown_dist_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--dist", "lognormal", "--n-observed", 10,
                "--dim", 2, "--out", tmp_path)
        assert exc.value.code == 2


class TestFeatures:
    def feature_args(self, fixture_dir, out):
        return ("features",
                "--graph", fixture_dir / "edges.tsv",
                "--schema", fixture_dir / "schema.json",
                "--metapaths", fixture_dir / "paths.txt",
                "--t0", WINDOW["t0"], "--delta", WINDOW["delta"],
                "--snapshots", WINDOW["k"], "--omega", WINDOW["omega"],
                "--out", out)

    def test_matches_hand_computed_fixture(self, fixture_dir, tmp_path):
        out = tmp_path / "features.csv"
        assert run(*self.feature_args(fixture_dir, out)) == 0
        ds = load_dataset(out)
        got = [(src, dst, int(y), float(t)) + tuple(map(float, row))
               for (src, dst), y, t, row in zip(ds.pairs, ds.y, ds.t, ds.x)]
        assert got == EXPECTED_ROWS

    def test_expsmooth_is_ewma_of_boundary_count_increments(self, fixture_dir, tmp_path):
        out = tmp_path / "features.csv"
        assert run(*self.feature_args(fixture_dir, out), "--aggregator", "expsmooth",
                   "--alpha", 0.5) == 0
        ds = load_dataset(out)
        assert ds.pairs == [row[:2] for row in EXPECTED_ROWS]
        schema = load_schema(fixture_dir / "schema.json")
        graph = load_graph_file(schema, fixture_dir / "edges.tsv")
        _, exprs = read_metapath_file(fixture_dir / "paths.txt")
        taus = [WINDOW["t0"] + i * WINDOW["delta"] for i in range(WINDOW["k"] + 1)]
        counts = [[dense(metapath_counts(graph, parse_metapath(e, schema), tau)) for tau in taus]
                  for e in exprs]
        for pair, row in zip(ds.pairs, ds.x):
            want = []
            for per_tau in counts:
                c = [int(m[pair]) for m in per_tau]
                f = float(c[1] - c[0])
                for i in range(2, len(c)):
                    f = 0.5 * (c[i] - c[i - 1]) + 0.5 * f
                want.append(f)
            assert row.tolist() == want

    def test_expsmooth_alpha_out_of_range_exits_2(self, fixture_dir, tmp_path, caplog):
        # checked before any graph work: the graph file does not exist
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index("--graph") + 1] = tmp_path / "absent.tsv"
        assert run(*args, "--aggregator", "expsmooth", "--alpha", 1.5) == 2
        assert "smoothing factor alpha must be in (0, 1), got 1.5" in caplog.text

    def test_schema_entry_missing_key_exits_2(self, fixture_dir, tmp_path, caplog):
        schema = json.loads((fixture_dir / "schema.json").read_text())
        del schema["link_types"][1]["src"]
        (fixture_dir / "schema.json").write_text(json.dumps(schema))
        assert run(*self.feature_args(fixture_dir, tmp_path / "f.csv")) == 2
        assert "schema link type #1 lacks key 'src'" in caplog.text

    def test_schema_node_types_not_a_list_exits_2(self, fixture_dir, tmp_path, caplog):
        schema = json.loads((fixture_dir / "schema.json").read_text())
        schema["node_types"] = "APV"
        (fixture_dir / "schema.json").write_text(json.dumps(schema))
        assert run(*self.feature_args(fixture_dir, tmp_path / "f.csv")) == 2
        assert "schema key 'node_types' must be a JSON list of strings, got 'APV'" in caplog.text

    def test_malformed_graph_line_names_file(self, fixture_dir, tmp_path, caplog):
        edges = fixture_dir / "edges.tsv"
        edges.write_text("write\ta0\tp0\tnotanumber\n" + edges.read_text())
        assert run(*self.feature_args(fixture_dir, tmp_path / "f.csv")) == 2
        assert f"{edges}: line 1: malformed birth timestamp 'notanumber'" in caplog.text

    @pytest.mark.parametrize("use_target", [False, True])
    def test_metapath_error_names_file_and_expression(self, fixture_dir, tmp_path, caplog,
                                                      use_target):
        paths = fixture_dir / "paths.txt"
        args = self.feature_args(fixture_dir, tmp_path / "f.csv")
        if use_target:
            args, where = args + ("--target", "bogus> <write"), "--target"
        else:
            paths.write_text(paths.read_text() + "bogus> <write\n")
            where = paths
        assert run(*args) == 2
        assert f"{where}: meta-path 'bogus> <write': unknown link type 'bogus'" in caplog.text

    def test_second_target_line_exits_2(self, fixture_dir, tmp_path, caplog):
        paths = fixture_dir / "paths.txt"
        paths.write_text(paths.read_text() + "target: write> <write\n")
        out = tmp_path / "f.csv"
        assert run(*self.feature_args(fixture_dir, out)) == 2
        assert f"{paths}: line 6: a second 'target:' line" in caplog.text
        assert not out.exists()

    def test_missing_target_exits_2(self, fixture_dir, tmp_path):
        naked = fixture_dir / "no-target.txt"
        naked.write_text("write> <write\n")
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index("--metapaths") + 1] = naked
        assert run(*args) == 2

    @pytest.mark.parametrize("target, joins", [("write> cite>", "A->P"),
                                               ("write> <publish", "A->V")])
    def test_target_endpoint_types_must_match_features(self, fixture_dir, tmp_path,
                                                       caplog, target, joins):
        out = tmp_path / "f.csv"
        assert run(*self.feature_args(fixture_dir, out), "--target", target) == 2
        assert f"joins {joins}, but the feature paths join A->A" in caplog.text
        assert not out.exists()

    def test_window_beyond_history_exits_2(self, fixture_dir, tmp_path):
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index("--t0") + 1] = 100.0
        assert run(*args) == 2

    @pytest.mark.parametrize("files, options, message", [
        ({"paths.txt": "target: write> <write\n"}, {},
         "the meta-path file lists no feature paths"),
        ({"edges.tsv": "# no links\n"}, {}, "graph has no links"),
        ({"schema.json": "{"}, {}, "schema document is not valid JSON"),
        ({}, {"--t0": -4.0}, "no candidate pairs reachable by the feature paths"),
        ({}, {"--snapshots": 0}, "k must be a whole number >= 1, got 0"),
        ({}, {"--delta": 0}, "delta must be positive, got 0.0"),
        ({}, {"--delta": -1}, "delta must be positive, got -1.0"),
    ], ids=["no-feature-paths", "no-links", "schema-not-json", "no-candidates",
            "no-snapshots", "zero-delta", "negative-delta"])
    def test_bad_input_exits_2(self, fixture_dir, tmp_path, caplog, files, options, message):
        for name, text in files.items():
            (fixture_dir / name).write_text(text)
        out = tmp_path / "f.csv"
        args = list(self.feature_args(fixture_dir, out))
        for option, value in options.items():
            args[args.index(option) + 1] = value
        assert run(*args) == 2
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--t0", "nan"), ("--omega", "inf"),
                                               ("--delta", "inf")])
    def test_non_finite_window_exits_2(self, fixture_dir, tmp_path, caplog, option, value):
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index(option) + 1] = value
        assert run(*args) == 2
        assert f"{option[2:]} must be finite, got {float(value)!r}" in caplog.text


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--dist", "rayleigh", "--n-observed", 150,
               "--n-censored", 50, "--dim", 3, "--seed", 11, "--out", out) == 0
    return out


class TestMalformedDataset:
    GOOD = "src,dst,y,t,x_0\n0,1,1,1.0,0.5\n1,2,0,3.0,-0.5\n"

    @pytest.mark.parametrize("row, column", [
        ("2,3,1,2.0", None),  # 4 fields
        ("2,x,1,2.0,0.5", "dst"),
        ("2,3,1,2.0,abc", "x_0"),
        ("2,3,1,nan,0.5", "t"),
        ("2,3,1,2.0,inf", "x_0"),
    ])
    def test_fit_names_file_line_and_column(self, tmp_path, caplog, row, column):
        path = tmp_path / "bad.csv"
        path.write_text(self.GOOD + row + "\n")
        assert run("fit", "--model", "npglm", "--input", path,
                   "--out", tmp_path / "m.json") == 2
        where = f"{path}: line 4" + (f", column {column}:" if column else ":")
        assert where in caplog.text

    # a column whose mean or std overflows: not a RuntimeWarning, and not
    # blamed on the model's std or on the loss
    @pytest.mark.parametrize("model", ["npglm", "expglm", "wblglm"])
    @pytest.mark.parametrize("rows", [
        "0,1,1,1.0,0,2e154\n1,2,1,2.0,0,0\n2,3,0,3.0,0,1\n",
        "0,1,1,1.0,0,1e308\n1,2,1,2.0,0,1e308\n2,3,0,3.0,0,0\n",
        # numpy's pairwise sum of 16 values adds inf to -inf: the mean is NaN
        "".join(f"{i},{i + 1},1,{i + 1}.0,0,{v}\n"
                for i, v in enumerate(2 * ([1e308, -1e308] + [0] * 6))),
    ], ids=["std-overflows", "mean-overflows", "mean-nan"])
    def test_fit_names_column_too_large_to_standardize(self, tmp_path, caplog, model, rows):
        path = tmp_path / "big.csv"
        path.write_text("src,dst,y,t,x_0,x_1\n" + rows)
        out = tmp_path / "m.json"
        assert run("fit", "--model", model, "--input", path, "--out", out) == 2
        assert f"{path}: column x_1: values too large to standardize" in caplog.text
        assert not out.exists()

    # a time whose t**shape overflows the parametric derivatives: not a
    # RuntimeWarning, and not a LAPACK message from the Newton step
    @pytest.mark.parametrize("model", ["expglm", "wblglm"])
    def test_parametric_fit_names_time_too_large(self, tmp_path, capfd, caplog, model):
        assert run("synth", "--dist", "rayleigh", "--n-observed", 40, "--n-censored", 10,
                   "--dim", 2, "--seed", 1, "--out", tmp_path) == 0
        lines = (tmp_path / "dataset.csv").read_text().splitlines()
        last = lines[-1].split(",")
        last[3] = "1e308"
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
        out = tmp_path / "m.json"
        assert run("fit", "--model", model, "--input", path, "--out", out) == 2
        assert f"{path}: column t: times too large to fit" in caplog.text
        assert "DLASCL" not in "".join(capfd.readouterr())
        assert not out.exists()


class TestFitRowOrder:
    @pytest.mark.parametrize("rows", [
        "0,0,0,2.0,1.0\n1,1,1,2.0,0.5\n",  # censored before observed at equal t
        "0,0,1,3.0,1.0\n1,1,1,2.0,0.5\n",  # t decreases
    ], ids=["censored-first", "t-decreases"])
    def test_npglm_fit_names_file_and_rows(self, tmp_path, caplog, rows):
        path = tmp_path / "unsorted.csv"
        path.write_text("src,dst,y,t,x_0\n" + rows)
        assert run("fit", "--model", "npglm", "--input", path,
                   "--out", tmp_path / "m.json") == 2
        assert f"{path}: rows 0 and 1 are out of order" in caplog.text
        assert not (tmp_path / "m.json").exists()


def integer_birth_edges(rng, n_authors=30, n_papers=120, years=12):
    """(link type, src, dst, birth) records of a small author-paper-venue
    graph with papers born in whole years, so many pairs first co-author
    in the same year."""
    edges = []
    for p, birth in enumerate(np.sort(rng.integers(1, years + 1, size=n_papers))):
        for a in rng.choice(n_authors, size=int(rng.integers(1, 4)), replace=False):
            edges.append(("write", f"a{a}", f"p{p}", birth))
        edges.append(("publish", f"v{rng.integers(3)}", f"p{p}", birth))
        for q in rng.choice(p, size=min(p, int(rng.integers(0, 3))), replace=False):
            edges.append(("cite", f"p{p}", f"p{q}", birth))
    return edges


def relabeled(edges, rng):
    """An isomorphic copy: node numbers permuted within each type, records shuffled."""
    numbers = {}
    for _, *nodes, _ in edges:
        for node in nodes:
            numbers.setdefault(node[0], set()).add(int(node[1:]))
    new = {kind: dict(zip(sorted(ids), rng.permutation(len(ids)))) for kind, ids in numbers.items()}

    def rename(node):
        return f"{node[0]}{new[node[0]][int(node[1:])]}"

    out = [(link, rename(src), rename(dst), birth) for link, src, dst, birth in edges]
    return [out[i] for i in rng.permutation(len(out))]


def test_npglm_fit_invariant_to_node_labels(tmp_path):
    # Observed times are whole years, so events tie and build_dataset orders
    # tied rows by pair id, which the node numbering sets.  Breslow's ties
    # have no order, so both copies fit the same model up to rounding.
    rng = np.random.default_rng(5)
    edges = integer_birth_edges(rng)
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA_DOC))
    (tmp_path / "paths.txt").write_text(METAPATH_FILE)
    models = []
    for i, copy in enumerate((edges, relabeled(edges, rng))):
        graph, features, model = (tmp_path / f"{i}-{name}"
                                  for name in ("edges.tsv", "features.csv", "model.json"))
        graph.write_text("".join("\t".join(map(str, edge)) + "\n" for edge in copy))
        assert run("features", "--graph", graph, "--schema", tmp_path / "schema.json",
                   "--metapaths", tmp_path / "paths.txt", "--t0", 0, "--delta", 2,
                   "--snapshots", 3, "--omega", 6, "--out", features) == 0
        assert run("fit", "--model", "npglm", "--input", features, "--out", model) == 0
        models.append(HazardModel.load(model))
    ds = load_dataset(features)
    assert ds.n_observed > len(np.unique(ds.t[ds.y == 1])) > 1  # tied events
    first, second = models
    assert len(first.event_times) == len(np.unique(ds.t))
    for key in ("w", "event_times", "H"):
        assert_allclose(getattr(second, key), getattr(first, key), rtol=0, atol=1e-12)


class TestFitPredictQuery:
    @pytest.mark.parametrize("model_name", ["npglm", "expglm", "wblglm"])
    def test_fit_predict_round_trip(self, tmp_path, synth_dir, model_name):
        model_file = tmp_path / f"{model_name}.json"
        pred_file = tmp_path / f"{model_name}-pred.csv"
        assert run("fit", "--model", model_name, "--input",
                   synth_dir / "dataset.csv", "--out", model_file) == 0
        assert run("predict", "--model-file", model_file, "--input",
                   synth_dir / "dataset.csv", "--out", pred_file) == 0
        with open(pred_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert all(float(r["t_pred"]) > 0 for r in rows)
        if model_name != "npglm":
            assert all(r["horizon_exceeded"] == "0" for r in rows)

    @pytest.mark.parametrize("model_name", ["expglm", "wblglm"])
    def test_parametric_fit_at_iteration_cap_warns(self, tmp_path, synth_dir, caplog,
                                                   monkeypatch, model_name):
        real = npglm.FitConfig  # the patched name must not call itself
        monkeypatch.setattr(npglm, "FitConfig", lambda: real(max_outer=1))
        model_file = tmp_path / f"{model_name}.json"
        assert run("fit", "--model", model_name, "--input",
                   synth_dir / "dataset.csv", "--out", model_file) == 0
        assert "without converging" in caplog.text
        doc = json.loads(model_file.read_text())
        assert doc["converged"] is False and len(doc["loss_trace"]) == 1

    def test_query_quantile_matches_predictions(self, tmp_path, synth_dir, capsys):
        model_file = tmp_path / "m.json"
        pred_file = tmp_path / "p.csv"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        run("predict", "--model-file", model_file, "--input",
            synth_dir / "dataset.csv", "--out", pred_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--input",
                   synth_dir / "dataset.csv", "--x", "row:0",
                   "--op", "quantile", 0.5) == 0
        answer = json.loads(capsys.readouterr().out)
        with open(pred_file) as fh:
            first = next(csv.DictReader(fh))
        assert_allclose(answer["time"], float(first["t_pred"]), rtol=1e-12)

    def test_query_ranged(self, tmp_path, synth_dir, capsys):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "wblglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", "0.1,-0.2,0.3",
                   "--op", "ranged", 0.5, 2.0) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["op"] == "ranged"
        assert 0.0 <= answer["probability"] <= 1.0

    def test_query_sample_deterministic(self, tmp_path, synth_dir, capsys):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", "0,0,0",
                   "--op", "sample", 5, 42) == 0
        first = json.loads(capsys.readouterr().out)
        assert run("query", "--model-file", model_file, "--x", "0,0,0",
                   "--op", "sample", 5, 42) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["times"] == second["times"]
        assert len(first["times"]) == 5

    def test_query_validation_exit_codes(self, tmp_path, synth_dir):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        base = ("query", "--model-file", model_file)
        assert run(*base, "--x", "0,0,0", "--op", "warp", 1) == 2
        assert run(*base, "--x", "0,0,0", "--op", "ranged", 1) == 2
        assert run(*base, "--x", "0,0,0", "--op", "ranged", 2, 1) == 2
        assert run(*base, "--x", "0,0", "--op", "quantile", 0.5) == 2
        assert run(*base, "--x", "row:0", "--op", "quantile", 0.5) == 2

    @pytest.mark.parametrize("x, bad", [("nan,1,0", "x_0: 'nan'"), ("0,inf,0", "x_1: 'inf'"),
                                        ("0,0,-1e999", "x_2: '-1e999'")])
    def test_query_non_finite_feature_exits_2(self, tmp_path, synth_dir, capsys, caplog,
                                              x, bad):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", x,
                   "--op", "quantile", 0.5) == 2
        assert f"--x feature {bad} is not finite" in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("x, message", [
        ("1,abc,0", "--x feature x_1: 'abc' is not a number"),
        ("row:zz", "--x row:zz: the row index is not an integer"),
    ])
    def test_query_unparsable_x_exits_2(self, tmp_path, synth_dir, capsys, caplog, x, message):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", x, "--input",
                   synth_dir / "dataset.csv", "--op", "quantile", 0.5) == 2
        assert message in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("op, message", [
        (("ranged", "abc", 2.0), "--op ranged: t_a 'abc' is not a number"),
        (("ranged", 0.5, "2,0"), "--op ranged: t_b '2,0' is not a number"),
        (("quantile", "abc"), "--op quantile: alpha 'abc' is not a number"),
        (("sample", "x", 42), "--op sample: n 'x' is not an integer"),
        (("sample", 5, "4.2"), "--op sample: seed '4.2' is not an integer"),
        (("ranged", 0, "inf"), "--op ranged: t_b 'inf' is not finite"),
        (("ranged", "nan", 1), "--op ranged: t_a 'nan' is not finite"),
        (("ranged", 0, "nan"), "--op ranged: t_b 'nan' is not finite"),
        (("quantile", "nan"), "--op quantile: alpha 'nan' is not finite"),
        (("quantile", "inf"), "--op quantile: alpha 'inf' is not finite"),
    ])
    def test_query_unparsable_op_argument_names_op_and_argument(self, tmp_path, synth_dir,
                                                                capsys, caplog, op, message):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", "0,0,0", "--op", *op) == 2
        assert message in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args, message", [
        (("--x", "row:200", "--input", "DATASET"), "row 200 outside dataset of 200 rows"),
        (("--x", "0,0,0", "--op", "sample", 0, 42), "sample count must be >= 1"),
        (("--x", "0,0"), "model expects 3 features, got 2"),
        (("--x", "0,0,0,0"), "model expects 3 features, got 4"),
        (("--x", ""), "model expects 3 features, got 0"),
    ], ids=["row-outside", "no-samples", "too-few-features", "too-many-features",
            "no-features"])
    def test_query_bad_input_exits_2(self, tmp_path, synth_dir, capsys, caplog, args, message):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        capsys.readouterr()
        args = [synth_dir / "dataset.csv" if a == "DATASET" else a for a in args]
        if "--op" not in args:
            args += ["--op", "quantile", 0.5]
        assert run("query", "--model-file", model_file, *args) == 2
        assert message in caplog.text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("x", ["-0.5,1,2", "-1e-3,2,0"])
    def test_query_x_may_start_with_minus(self, tmp_path, synth_dir, capsys, x):
        # argparse alone reads "--x -0.5,1,2" as an option without its value
        model_file = tmp_path / "m.json"
        run("fit", "--model", "wblglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        answers = []
        for given in (["--x", x], [f"--x={x}"]):
            capsys.readouterr()
            assert run("query", "--model-file", model_file, *given, "--op", "quantile", 0.5) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]
        assert json.loads(answers[0])["time"] > 0

    def test_query_trailing_x_without_value_is_a_usage_error(self, tmp_path, synth_dir, capsys):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "wblglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        with pytest.raises(SystemExit) as exc:
            run("query", "--model-file", model_file, "--op", "quantile", 0.5, "--x")
        assert exc.value.code == 2
        assert "argument --x: expected one argument" in capsys.readouterr().err

    def test_query_empty_x_is_the_row_with_no_features(self, tmp_path, capsys):
        data = tmp_path / "bare.csv"
        data.write_text("src,dst,y,t\n0,1,1,0.5\n2,3,1,1.0\n4,5,0,2.0\n")
        model_file = tmp_path / "m.json"
        assert run("fit", "--model", "npglm", "--input", data, "--out", model_file) == 0
        answers = []
        for x in (["--x", ""], ["--x", "row:0", "--input", data]):
            capsys.readouterr()
            assert run("query", "--model-file", model_file, *x, "--op", "quantile", 0.5) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]
        assert json.loads(answers[0])["time"] > 0

    def test_predict_saved_bytes(self, tmp_path):
        # a score of 0 gives the median target H = ln 2 exactly, between the
        # knots (1.0, 0.5) and (3.0, 1.0); a score of -100 passes the last knot
        model_file = tmp_path / "m.json"
        model_file.write_text(json.dumps({
            "family": "npglm", "w": [1.0, 0.0], "event_times": [1.0, 3.0], "H": [0.5, 1.0],
            "standardization": {"mean": [0.0], "std": [1.0]}}))
        data = tmp_path / "d.csv"
        data.write_text("src,dst,y,t,x_0\n0,1,1,1.0,0\n2,3,1,2.0,-100\n10,4,0,3.0,0.0\n")
        out = tmp_path / "p.csv"
        assert run("predict", "--model-file", model_file, "--input", data, "--out", out) == 0
        assert out.read_bytes() == (b"src,dst,t_pred,horizon_exceeded\r\n"
                                    b"0,1,1.7725887222397811,0\r\n"
                                    b"2,3,3.0,1\r\n"
                                    b"10,4,1.7725887222397811,0\r\n")

    def test_predict_narrower_dataset_exits_2(self, tmp_path, synth_dir, caplog):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("src,dst,y,t,x_0\n0,1,1,1.0,0.5\n1,2,0,3.0,-0.5\n")
        out = tmp_path / "p.csv"
        assert run("predict", "--model-file", model_file, "--input", narrow,
                   "--out", out) == 2
        assert f"{narrow}: model expects 3 features, got 1" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("op", [("ranged", 0.5, 2.0), ("quantile", 0.5), ("sample", 3, 42)])
    def test_query_narrower_row_names_model_and_dataset(self, tmp_path, synth_dir, capsys,
                                                        caplog, op):
        model_file = tmp_path / "m.json"
        run("fit", "--model", "npglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("src,dst,y,t,x_0\n0,1,1,1.0,0.5\n")
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", "row:0", "--input", narrow,
                   "--op", *op) == 2
        assert f"{model_file} and {narrow}: model expects 3 features, got 1" in caplog.text
        assert capsys.readouterr().out == ""

    def test_missing_model_file_exits_1(self, tmp_path):
        assert run("predict", "--model-file", tmp_path / "absent.json",
                   "--input", tmp_path / "absent.csv",
                   "--out", tmp_path / "p.csv") == 1

    def test_load_model_rejects_unknown_family(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"family": "gamma"}))
        with pytest.raises(ValueError):
            HazardModel.load(path)


# Model files in the format written before the model types were merged:
# every score below is exact in floating point, x = (1, 2) standardizes to
# (0.5, 1.0) and scores 0.125.
STATS = {"mean": [0.0, 1.0], "std": [2.0, 1.0]}
W = [0.5, -0.25, 0.125]
X = "1,2"
KNOTS_T = [0.5, 1.0, 2.0, 3.5]
KNOTS_H = [0.1, 0.4, 0.4, 1.2]
PARENT_DOCS = {
    "npglm": {"family": "npglm", "w": W, "event_times": KNOTS_T, "H": KNOTS_H,
              "standardization": STATS, "unit": "days",
              "loss_trace": [12.5, 12.25], "converged": True},
    "exponential": {"family": "exponential", "w": W, "shape": 1.0,
                    "standardization": STATS, "unit": ""},
    "weibull": {"family": "weibull", "w": W, "shape": 1.7,
                "standardization": STATS, "unit": ""},
}
G = np.exp(np.array([0.125]))[0]  # link_g of the score, as the models compute it


def parametric_ranged(shape, t_a, t_b):
    p = np.exp(-G * t_a ** shape) - np.exp(-G * t_b ** shape)
    return float(min(max(p, 0.0), 1.0))


def knot_H(t):
    return float(np.interp(t, [0.0] + KNOTS_T, [0.0] + KNOTS_H))


def knot_ranged(t_a, t_b):
    p = np.exp(-G * knot_H(t_a)) - np.exp(-G * knot_H(t_b))
    return float(min(max(p, 0.0), 1.0))


def knot_quantile(alpha):
    """Hand inversion of the knots (0, 0), (0.5, 0.1), (1, 0.4), (2, 0.4), (3.5, 1.2)."""
    h = -np.log1p(-alpha) / G
    if h > 1.2:
        return 3.5, True
    if h <= 0.1:
        return 0.5 * h / 0.1, False
    assert h > 0.4, "probe alphas avoid the other segments"
    return 2.0 + (h - 0.4) / 0.8 * 1.5, False


class TestParentFormatModels:
    RANGES = [(0.0, 0.0), (0.25, 3.0), (1.2, 10.0)]
    ALPHAS = [0.1, 0.5, 0.9]

    @pytest.fixture
    def model_file(self, tmp_path, request):
        path = tmp_path / f"{request.param}.json"
        path.write_text(json.dumps(PARENT_DOCS[request.param]))
        return request.param, path

    def query(self, capsys, path, *op):
        capsys.readouterr()
        assert run("query", "--model-file", path, "--x", X, "--op", *op) == 0
        return json.loads(capsys.readouterr().out)

    def expected(self, family):
        if family == "npglm":
            ranged = [knot_ranged(a, b) for a, b in self.RANGES]
            quantiles = [knot_quantile(alpha) for alpha in self.ALPHAS]
        else:
            shape = PARENT_DOCS[family]["shape"]
            ranged = [parametric_ranged(shape, a, b) for a, b in self.RANGES]
            quantiles = [(float((-np.log1p(-alpha) / G) ** (1.0 / shape)), False)
                         for alpha in self.ALPHAS]
        return ranged, quantiles

    def check(self, family, ranged, quantiles):
        want_ranged, want_quantiles = self.expected(family)
        assert ranged == want_ranged
        for (time, flag), (want_time, want_flag) in zip(quantiles, want_quantiles):
            assert flag == want_flag
            if family == "npglm":
                assert abs(time - want_time) <= 1e-12
            else:
                assert time == want_time

    @pytest.mark.parametrize("model_file", list(PARENT_DOCS), indirect=True)
    def test_cli_query(self, capsys, model_file):
        family, path = model_file
        ranged = [self.query(capsys, path, "ranged", a, b)["probability"]
                  for a, b in self.RANGES]
        quantiles = []
        for alpha in self.ALPHAS:
            answer = self.query(capsys, path, "quantile", alpha)
            quantiles.append((answer["time"], answer["horizon_exceeded"]))
        self.check(family, ranged, quantiles)

    @pytest.mark.parametrize("model_file", list(PARENT_DOCS), indirect=True)
    def test_library(self, model_file):
        family, path = model_file
        model = HazardModel.load(path)
        assert model.family == family
        assert model.to_json() == PARENT_DOCS[family]
        x = np.array([1.0, 2.0])
        ranged = [npglm.ranged_probability(model, x, a, b) for a, b in self.RANGES]
        quantiles = [tuple(npglm.quantile(model, x, alpha)) for alpha in self.ALPHAS]
        self.check(family, ranged, quantiles)

    @pytest.mark.parametrize("model_file", ["exponential", "weibull"], indirect=True)
    def test_parametric_samples_never_flagged(self, capsys, model_file):
        family, path = model_file
        answer = self.query(capsys, path, "sample", 50, 3)
        u = np.random.default_rng(3).uniform(size=50)
        want = (-np.log(u) / G) ** (1.0 / PARENT_DOCS[family]["shape"])
        assert_allclose(answer["times"], want, rtol=1e-12)
        assert answer["horizon_exceeded"] == [False] * 50

    @pytest.mark.parametrize("model_file", list(PARENT_DOCS), indirect=True)
    def test_samples_match_per_draw_loop(self, capsys, model_file):
        family, path = model_file
        answer = self.query(capsys, path, "sample", 200, 11)
        model, rng = HazardModel.load(path), np.random.default_rng(11)
        draws = [npglm.sample_time(model, np.array([1.0, 2.0]), rng) for _ in range(200)]
        # one array power over all draws may round differently from scalar powers
        assert_allclose(answer["times"], [e.time for e in draws], rtol=1e-12)
        assert answer["horizon_exceeded"] == [e.horizon_exceeded for e in draws]

    @pytest.mark.parametrize("model_file", ["npglm"], indirect=True)
    def test_sample_redraws_zero(self, capsys, monkeypatch, model_file):
        stream = [0.0, 0.25, 0.0, 0.0, 0.5, 0.75, 0.0, 0.125, 0.9, 0.6]

        class Replay:
            """A generator that replays ``stream``."""

            def __init__(self, seed):
                self.values = list(stream)

            def uniform(self, size=None):
                if size is None:
                    return self.values.pop(0)
                drawn, self.values = self.values[:size], self.values[size:]
                return np.array(drawn)

        _, path = model_file
        monkeypatch.setattr(np.random, "default_rng", Replay)
        answer = self.query(capsys, path, "sample", 5, 0)
        model, rng = HazardModel.load(path), Replay(0)
        draws = [npglm.sample_time(model, np.array([1.0, 2.0]), rng) for _ in range(5)]
        assert rng.values == [0.6]
        assert_allclose(answer["times"], [e.time for e in draws], rtol=1e-12)
        assert answer["horizon_exceeded"] == [e.horizon_exceeded for e in draws]

    @pytest.mark.parametrize("w", [0.5, [], [0.5, "-0.25", 0.125]])
    def test_w_not_a_list_of_numbers_exits_2(self, tmp_path, caplog, w):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(PARENT_DOCS["npglm"], w=w)))
        data = tmp_path / "data.csv"
        data.write_text("src,dst,y,t,x_0,x_1\n0,1,1,1.5,1.0,2.0\n")
        assert run("query", "--model-file", path, "--x", X, "--op", "quantile", 0.5) == 2
        assert run("predict", "--model-file", path, "--input", data,
                   "--out", tmp_path / "p.csv") == 2
        message = f"{path}: model key 'w' must be a non-empty list of numbers, got {w!r}"
        assert caplog.text.count(message) == 2

    @pytest.mark.parametrize("family, key, value, message", [
        ("weibull", "shape", None, "model key 'shape' must be a number, got None"),
        ("npglm", "loss_trace", [None], "model key 'loss_trace' must be a list of numbers"),
        ("npglm", "loss_trace", 5, "model key 'loss_trace' must be a list of numbers, got 5"),
        ("npglm", "standardization", {"mean": [None, 1.0], "std": [2.0, 1.0]},
         "model key 'standardization.mean' must hold 2 values"),
        ("npglm", "event_times", [0.5, None, 2.0, 3.5],
         "model key 'event_times' must be a strictly increasing list of numbers"),
        ("npglm", "event_times", [0.5, True, 2.0, 3.5],
         "model key 'event_times' must be a strictly increasing list of numbers"),
        ("npglm", "H", [0.1, None, 0.4, 1.2], "model key 'H' must hold 4 non-decreasing values"),
        ("npglm", "H", [0.1, 0.4, True, 1.2], "model key 'H' must hold 4 non-decreasing values"),
        ("npglm", "unit", 5, "model key 'unit' must be a string, got 5"),
        ("npglm", "converged", "false", "model key 'converged' must be true or false, got 'false'"),
        ("npglm", "standardization", {"mean": [0.0, 1.0], "std": [2.0, 0.0]},
         "model key 'standardization.std' must hold 2 values, one per feature of 'w', each > 0"),
        ("exponential", "shape", 2.5, "model key 'shape' must be 1 for exponential, got 2.5"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, caplog, family, key, value, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(PARENT_DOCS[family], **{key: value})))
        data = tmp_path / "data.csv"
        data.write_text("src,dst,y,t,x_0,x_1\n0,1,1,1.5,1.0,2.0\n")
        assert run("query", "--model-file", path, "--x", X, "--op", "quantile", 0.5) == 2
        assert run("predict", "--model-file", path, "--input", data,
                   "--out", tmp_path / "p.csv") == 2
        assert caplog.text.count(f"{path}: {message}") == 2

    @staticmethod
    def without(family, key):
        doc = json.loads(json.dumps(PARENT_DOCS[family]))
        *parents, last = key.split(".")
        inner = doc
        for name in parents:
            inner = inner[name]
        del inner[last]
        return doc

    @pytest.mark.parametrize("family, key", [("npglm", "w"), ("npglm", "standardization"),
                                             ("npglm", "event_times"), ("npglm", "H"),
                                             ("weibull", "shape"),
                                             ("npglm", "standardization.mean"),
                                             ("weibull", "standardization.std"),
                                             ("list", None)])
    def test_missing_key_names_file_and_key(self, tmp_path, caplog, family, key):
        path = tmp_path / "model.json"
        if family == "list":
            doc, message = [], "model is a JSON list, not an object"
        else:
            doc, message = self.without(family, key), f"model lacks key {key!r}"
        path.write_text(json.dumps(doc))
        data = tmp_path / "data.csv"
        data.write_text("src,dst,y,t,x_0,x_1\n0,1,1,1.5,1.0,2.0\n")
        assert run("query", "--model-file", path, "--x", X, "--op", "quantile", 0.5) == 2
        assert run("predict", "--model-file", path, "--input", data,
                   "--out", tmp_path / "p.csv") == 2
        assert caplog.text.count(f"{path}: {message}") == 2

    def test_standardization_not_an_object_exits_2(self, tmp_path, caplog):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(PARENT_DOCS["npglm"], standardization=[1.0])))
        assert run("query", "--model-file", path, "--x", X, "--op", "quantile", 0.5) == 2
        assert f"{path}: model key 'standardization' is not an object" in caplog.text

    @pytest.mark.parametrize("key", ["mean", "std"])
    def test_standardization_length_mismatch_exits_2(self, tmp_path, caplog, key):
        doc = json.loads(json.dumps(PARENT_DOCS["npglm"]))
        doc["standardization"][key] = [0.0, 1.0, 2.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run("query", "--model-file", path, "--x", X, "--op", "quantile", 0.5) == 2
        assert f"{path}: model key 'standardization.{key}' must hold 2 values" in caplog.text

    def test_unknown_family_exits_2(self, tmp_path):
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(dict(PARENT_DOCS["weibull"], family="gamma")))
        assert run("query", "--model-file", path, "--x", X,
                   "--op", "quantile", 0.5) == 2


# std 0.5 doubles a feature, so 1.7e308 overflows its term of w.x to inf
OVERFLOW_DOC = {"family": "npglm", "w": [1.0, 1.0, 0.0], "event_times": KNOTS_T, "H": KNOTS_H,
                "standardization": {"mean": [0.0, 0.0], "std": [0.5, 0.5]}}
NAN_ROW = "1.7e308,-1.7e308"  # inf - inf
QUERY_OPS = [("ranged", 0.5, 2.0), ("quantile", 0.5), ("sample", 3, 42)]
OP_NAMES = [op[0] for op in QUERY_OPS]


class TestScoreOverflow:
    """Finite features whose score w.x overflows: an infinite score answers as
    a clamped finite one, without a warning (pytest makes one an error, so
    exit 1); a NaN score exits 2 naming the input and the row."""

    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(OVERFLOW_DOC))
        return path

    def dataset(self, tmp_path, *rows):
        path = tmp_path / "rows.csv"
        path.write_text("src,dst,y,t,x_0,x_1\n"
                        + "".join(f"{i},{i},1,1.0,{row}\n" for i, row in enumerate(rows)))
        return path

    def test_predict_nan_score_names_input_and_row(self, tmp_path, model_file, caplog):
        data = self.dataset(tmp_path, "0,0", NAN_ROW)
        out = tmp_path / "p.csv"
        assert run("predict", "--model-file", model_file, "--input", data, "--out", out) == 2
        assert f"{data}: row 1's score w.x is NaN: its terms overflow" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("op", QUERY_OPS, ids=OP_NAMES)
    def test_query_nan_score_names_input_and_row(self, model_file, capsys, caplog, op):
        capsys.readouterr()
        assert run("query", "--model-file", model_file, "--x", NAN_ROW, "--op", *op) == 2
        assert (f"{model_file} and --x: the feature row's score w.x is NaN: its terms overflow"
                in caplog.text)
        assert capsys.readouterr().out == ""

    def test_predict_infinite_score_answers_as_clamped(self, tmp_path, model_file):
        # 1e300 doubles to a finite score past link_g's clamp
        data = self.dataset(tmp_path, "1.7e308,0", "1e300,0", "-1.7e308,0", "-1e300,0")
        out = tmp_path / "p.csv"
        assert run("predict", "--model-file", model_file, "--input", data, "--out", out) == 0
        with open(out) as fh:
            rows = [(r["t_pred"], r["horizon_exceeded"]) for r in csv.DictReader(fh)]
        assert rows[0] == rows[1] and rows[2] == rows[3]
        assert rows[0][1] == "0" and rows[2] == ("3.5", "1")

    @pytest.mark.parametrize("op", QUERY_OPS, ids=OP_NAMES)
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_query_infinite_score_answers_as_clamped(self, model_file, capsys, op, sign):
        answers = []
        for x in (f"{sign}1.7e308,0", f"{sign}1e300,0"):
            capsys.readouterr()
            assert run("query", "--model-file", model_file, f"--x={x}", "--op", *op) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]

    @pytest.mark.parametrize("op", QUERY_OPS[1:], ids=OP_NAMES[1:])
    def test_query_time_past_float_range_exits_2(self, tmp_path, capsys, caplog, op):
        # g = exp(-50) and shape 0.05 put every quantile near (3.6e21)**20
        path = tmp_path / "weibull.json"
        path.write_text(json.dumps({**PARENT_DOCS["weibull"], "shape": 0.05}))
        capsys.readouterr()
        assert run("query", "--model-file", path, "--x=-1e300,0", "--op", *op) == 2
        assert f"{path} and --x: the answer is not finite: " in caplog.text
        assert capsys.readouterr().out == ""

    def test_predict_time_past_float_range_exits_2(self, tmp_path, caplog):
        path = tmp_path / "weibull.json"
        path.write_text(json.dumps({**PARENT_DOCS["weibull"], "shape": 0.05}))
        data = self.dataset(tmp_path, "0,0", "-1e300,0", "-1e300,0")
        out = tmp_path / "p.csv"
        assert run("predict", "--model-file", path, "--input", data, "--out", out) == 2
        assert (f"{path} and {data}: row 1's predicted time is not finite: inf"
                in caplog.text)
        assert not out.exists()

    def test_weibull_ranged_past_power_overflow(self, tmp_path, capsys):
        path = tmp_path / "weibull.json"
        path.write_text(json.dumps(PARENT_DOCS["weibull"]))
        capsys.readouterr()
        assert run("query", "--model-file", path, "--x", X, "--op", "ranged", 0, 1e308) == 0
        assert json.loads(capsys.readouterr().out)["probability"] == 1.0


class TestEval:
    def test_report_and_csv(self, tmp_path, synth_dir):
        model_file = tmp_path / "m.json"
        pred_file = tmp_path / "p.csv"
        report_file = tmp_path / "report.json"
        csv_file = tmp_path / "rows.csv"
        run("fit", "--model", "expglm", "--input", synth_dir / "dataset.csv",
            "--out", model_file)
        run("predict", "--model-file", model_file, "--input",
            synth_dir / "dataset.csv", "--out", pred_file)
        for _ in range(2):
            assert run("eval", "--pred", pred_file,
                       "--truth", synth_dir / "dataset.csv",
                       "--thresholds", 0.5, 1.0,
                       "--out", report_file, "--csv-out", csv_file) == 0
        report = json.loads(report_file.read_text())
        assert set(report) >= {"mae", "mre", "rmse", "msle", "mdae", "ci"}
        assert set(report["acc_at"]) == {"0.5", "1.0"}
        lines = csv_file.read_text().strip().splitlines()
        assert len(lines) == 3  # header written once, then one row per run
        assert lines[1] == lines[2]

    @pytest.mark.parametrize("value", ["abc", "nan", ""])
    def test_bad_prediction_names_line_and_column(self, tmp_path, synth_dir, caplog, value):
        pred = tmp_path / "bad.csv"
        pred.write_text(f"src,dst,t_pred\n0,0,1.0\n1,1,{value}\n")
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", tmp_path / "r.json") == 2
        assert f"{pred}: line 3, column t_pred: {value!r} is not a number" in caplog.text

    @pytest.mark.parametrize("value", ["-2", "-1e-300", "inf", "-inf", "1e999"])
    def test_prediction_outside_finite_times_exits_2(self, tmp_path, synth_dir, caplog,
                                                     value):
        # as many rows as the truth, so only the bad value can fail the run
        n = load_dataset(synth_dir / "dataset.csv").n
        pred = tmp_path / "bad.csv"
        out = tmp_path / "r.json"
        pred.write_text("src,dst,t_pred\n0,0,1.0\n" + f"1,1,{value}\n"
                        + "2,2,1.0\n" * (n - 2))
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", out) == 2
        assert (f"{pred}: line 3, column t_pred: {value!r} is not a finite time >= 0"
                in caplog.text)
        assert not out.exists()

    @pytest.mark.parametrize("row, fields", [("0,0", 2), ("0,0,1.0,9,9", 5)],
                             ids=["short", "long"])
    def test_prediction_row_with_wrong_field_count_exits_2(self, tmp_path, synth_dir, caplog,
                                                           row, fields):
        # a parse of the used columns alone would take the long row
        pred = tmp_path / "bad.csv"
        out = tmp_path / "r.json"
        pred.write_text(f"src,dst,t_pred\n{row}\n")
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", out) == 2
        assert f"{pred}: line 2: row with {fields} fields, expected 3" in caplog.text
        assert not out.exists()

    def test_predictions_take_quoted_fields_blank_lines_and_any_column_order(
            self, tmp_path, synth_dir):
        truth = synth_dir / "dataset.csv"
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        run("fit", "--model", "expglm", "--input", truth, "--out", tmp_path / "m.json")
        run("predict", "--model-file", tmp_path / "m.json", "--input", truth, "--out", plain)
        rows = [row.split(",") for row in plain.read_text().splitlines()]
        other.write_text("\r\n\r\n".join(f'"{t}",{hx},{src},"{dst}"'
                                           for src, dst, t, hx in rows) + "\r\n")
        reports = []
        for pred in (plain, other):
            out = tmp_path / f"{pred.stem}.json"
            assert run("eval", "--pred", pred, "--truth", truth, "--out", out) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_pairs_are_compared_as_64_bit_integers(self, tmp_path, caplog):
        # 2**53 + 1 and 2**53 are the same double
        truth = tmp_path / "truth.csv"
        truth.write_text(f"src,dst,y,t\n{2**53 + 1},0,1,1.0\n1,2,1,2.0\n3,4,0,3.0\n")
        pred = tmp_path / "p.csv"
        pred.write_text(f"src,dst,t_pred\n{2**53},0,1.0\n1,2,2.0\n3,4,3.0\n")
        out = tmp_path / "r.json"
        assert run("eval", "--pred", pred, "--truth", truth, "--out", out) == 2
        assert (f"{pred}: line 2: pair ({2**53}, 0) is not truth row 0's pair ({2**53 + 1}, 0)"
                in caplog.text)
        assert not out.exists()

    @pytest.mark.parametrize("rows, where", [
        # the first row with a fault is named, whatever its kind
        (["0,0,1.0", "1,1,-2", "2,2,abc"], "line 3, column t_pred: '-2' is not a finite"),
        (["0,0,1.0", "1,1,abc", "2,2,-2"], "line 3, column t_pred: 'abc' is not a number"),
        (["0,0,1.0", "1,1,1.0", "2,2"], "line 4: row with 2 fields, expected 3"),
        # a blank line is no row, but counts as a line
        (["0,0,1.0", "", "1,1,-2"], "line 4, column t_pred: '-2' is not a finite"),
        # within a row, the pair before the time
        (["0,0,1.0", "1,7,-2"], "line 3: pair (1, 7) is not truth row 1's pair (1, 1)"),
    ], ids=["time-before-parse", "parse-before-time", "field-count", "after-blank-line",
                            "pair-before-time"])
    def test_first_of_several_faults_is_named(self, tmp_path, synth_dir, caplog, rows, where):
        pred = tmp_path / "bad.csv"
        pred.write_text("src,dst,t_pred\n" + "\n".join(rows) + "\n3,3,-1\n")
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", tmp_path / "r.json") == 2
        assert f"{pred}: {where}" in caplog.text

    @pytest.mark.parametrize("thresholds", [("nan", 1.0), (1.0, "nan")])
    def test_nan_threshold_exits_2(self, tmp_path, synth_dir, caplog, thresholds):
        # sorted() is no total order with NaN, so the csv header would follow the argument order
        pred = tmp_path / "p.csv"
        pred.write_text("t_pred\n" + "1.0\n" * load_dataset(synth_dir / "dataset.csv").n)
        out, rows = tmp_path / "r.json", tmp_path / "rows.csv"
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--thresholds", *thresholds, "--out", out, "--csv-out", rows) == 2
        assert "--thresholds: nan is not a number" in caplog.text
        assert not out.exists() and not rows.exists()

    def test_length_mismatch_exits_2(self, tmp_path, synth_dir, caplog):
        # the error spans both files, so it names both
        truth = synth_dir / "dataset.csv"
        pred = tmp_path / "short.csv"
        pred.write_text("t_pred\n1.0\n")
        out = tmp_path / "r.json"
        assert run("eval", "--pred", pred, "--truth", truth, "--out", out) == 2
        assert (f"{pred} and {truth}: truth and prediction lengths differ: 200 true times, "
                "200 event flags, 1 predictions" in caplog.text)
        assert not out.exists()

    def test_no_t_pred_column_exits_2(self, tmp_path, synth_dir, caplog):
        pred = tmp_path / "p.csv"
        pred.write_text("src,dst,time\n0,0,1.0\n")
        out = tmp_path / "r.json"
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", out) == 2
        assert f"{pred} lacks a t_pred column" in caplog.text
        assert not out.exists()

    def test_csv_out_with_other_header_exits_2(self, tmp_path, synth_dir, caplog):
        truth = synth_dir / "dataset.csv"
        pred = tmp_path / "p.csv"
        pred.write_text("t_pred\n" + "1.0\n" * load_dataset(truth).n)
        rows = tmp_path / "rows.csv"
        rows.write_text("")  # an empty file counts as new
        assert run("eval", "--pred", pred, "--truth", truth, "--out", tmp_path / "a.json",
                   "--csv-out", rows) == 0
        before = rows.read_text()
        assert before.splitlines()[0] == "mae,mre,rmse,msle,mdae,ci"
        out = tmp_path / "b.json"
        assert run("eval", "--pred", pred, "--truth", truth, "--thresholds", 1, 2,
                   "--out", out, "--csv-out", rows) == 2
        assert (f"{rows}: header mae,mre,rmse,msle,mdae,ci differs from this report's "
                "header mae,mre,rmse,msle,mdae,acc@1,acc@2,ci" in caplog.text)
        assert rows.read_text() == before and not out.exists()

    def test_prediction_for_another_pair_exits_2(self, tmp_path, synth_dir, caplog):
        truth = synth_dir / "dataset.csv"
        pairs = load_dataset(truth).pairs
        pred = tmp_path / "p.csv"
        lines = [f"{a},{b},1.0" for a, b in pairs]
        lines[3], lines[5] = lines[5], lines[3]
        pred.write_text("src,dst,t_pred\n" + "\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        assert run("eval", "--pred", pred, "--truth", truth, "--out", out) == 2
        assert (f"{pred}: line 5: pair {pairs[5]} is not truth row 3's pair {pairs[3]}"
                in caplog.text)
        assert not out.exists()
        # without src and dst the rows are paired by position, as before
        pred.write_text("t_pred\n" + "1.0\n" * len(pairs))
        assert run("eval", "--pred", pred, "--truth", truth, "--out", out) == 0


class TestSweep:
    def config_doc(self, tmp_path, **over):
        doc = {
            "dist": "rayleigh",
            "models": ["npglm", "expglm"],
            "n_grid": [60],
            "censoring_grid": [0.0, 0.4],
            "repetitions": 2,
            "seed": 0,
            "dim": 2,
            "test_n": 30,
            "save_traces": True,
            "out_dir": str(tmp_path / "sweep-out"),
        }
        doc.update(over)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_grid_aggregates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAZARDNET_THREADS", "1")
        config = self.config_doc(tmp_path)
        assert run("sweep", "--config", config) == 0
        with open(tmp_path / "sweep-out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 models x 1 N x 2 ratios
        assert all(r["failed"] == "0" for r in rows)
        assert all(float(r["w_mae_mean"]) < 1.0 for r in rows)
        assert all(r["repetitions"] == "2" for r in rows)
        assert "test_mae_mean" in rows[0]
        assert all(float(r["iterations_mean"]) >= 1 for r in rows)
        traces = json.loads((tmp_path / "sweep-out" / "traces.json").read_text())
        assert len(traces) == 8  # every cell of every model records its fit
        assert all(t["loss_trace"] and "avg_log_likelihood" in t for t in traces)
        assert sorted(t["model"] for t in traces) == ["expglm"] * 4 + ["npglm"] * 4

    def test_two_workers_match_one(self, tmp_path, monkeypatch):
        # the process pool runs the same cells as the in-process loop
        rows = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HAZARDNET_THREADS", workers)
            out = tmp_path / f"out-{workers}"
            assert run("sweep", "--config", self.config_doc(tmp_path, out_dir=str(out))) == 0
            with open(out / "results.csv") as fh:
                rows.append([{k: v for k, v in r.items() if not k.startswith("fit_seconds")}
                             for r in csv.DictReader(fh)])
        assert rows[0] == rows[1] and len(rows[0]) == 4

    def test_repetition_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAZARDNET_THREADS", "1")
        config = self.config_doc(tmp_path, models=["expglm"],
                                 censoring_grid=[0.0], save_traces=False)
        assert run("sweep", "--config", config, "--repetitions", 1) == 0
        with open(tmp_path / "sweep-out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["repetitions"] == "1"

    def test_repetition_override_below_one_exits_2(self, tmp_path, caplog):
        config = self.config_doc(tmp_path)
        assert run("sweep", "--config", config, "--repetitions", 0) == 2
        assert "repetitions must be >= 1" in caplog.text
        assert not (tmp_path / "sweep-out").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        config = self.config_doc(tmp_path, models=["mlp"])
        assert run("sweep", "--config", config) == 2

    @pytest.mark.parametrize("over, message", [
        ({"dist": "raylegh"}, "dist must be one of"),
        ({"dim": 0}, "dim must be >= 1"),
        ({"n_grid": [60, 0]}, "n_grid must be >= 1"),
        ({"test_n": -1}, "test_n must be >= 0"),
        ({"dim": None}, "bad value for 'dim': None"),
        ({"repetitions": "x"}, "bad value for 'repetitions': 'x'"),
        (5, "config is a JSON int, not an object"),
        ({"out_dir": None}, "bad value for 'out_dir': None"),
        ({"out_dir": 5}, "bad value for 'out_dir': 5"),
        ({"save_traces": "false"}, "bad value for 'save_traces': 'false'"),
        ({"n_grid": [60.9, 80]}, "bad value for 'n_grid': [60.9, 80] (60.9 is not a whole "),
        ({"n_grid": [60, "80"]}, "bad value for 'n_grid': [60, '80'] ('80' is not a whole "),
        ({"dim": True}, "bad value for 'dim': True (True is not a whole number)"),
        ({"repetitions": 2.5}, "bad value for 'repetitions': 2.5 (2.5 is not a whole number)"),
        ({"seed": "3"}, "bad value for 'seed': '3' ('3' is not a whole number)"),
        ({"test_n": 1e999}, "bad value for 'test_n': inf (inf is not a whole number)"),
        ({"censoring_grid": [0.0, "0.5"]}, "bad value for 'censoring_grid': [0.0, '0.5'] "
                                           "('0.5' is not a number)"),
        ({"censoring_grid": [False]}, "bad value for 'censoring_grid': [False] "
                                      "(False is not a number)"),
        ({"n_grid": []}, "model, N, and censoring grids must be non-empty"),
        ({"models": []}, "model, N, and censoring grids must be non-empty"),
        ({"n_grid": [60, 2], "censoring_grid": [0.0, 0.9]},
         "cell N=2, censoring 0.9: n_observed must be >= 1"),
    ])
    def test_bad_field_exits_2_before_any_cell(self, tmp_path, caplog, over, message):
        config = self.config_doc(tmp_path, **(over if isinstance(over, dict) else {}))
        if not isinstance(over, dict):
            config.write_text(json.dumps(over))
        assert run("sweep", "--config", config) == 2
        assert message in caplog.text and f"{config}: " in caplog.text
        assert not (tmp_path / "sweep-out").exists()

    @pytest.mark.parametrize("key, value", [("n_grid", 60), ("censoring_grid", 0.2),
                                            ("models", "npglm")])
    def test_non_list_grid_names_file_and_key(self, tmp_path, caplog, key, value):
        config = self.config_doc(tmp_path, **{key: value})
        assert run("sweep", "--config", config) == 2
        assert f"{config}: {key!r} must be a JSON list, got {value!r}" in caplog.text
        assert not (tmp_path / "sweep-out").exists()

    @pytest.mark.parametrize("key", ["dist", "n_grid", "censoring_grid"])
    def test_missing_required_key_names_file_and_key(self, tmp_path, caplog, key):
        config = self.config_doc(tmp_path)
        doc = json.loads(config.read_text())
        del doc[key]
        config.write_text(json.dumps(doc))
        assert run("sweep", "--config", config) == 2
        assert f"{config}: missing required key {key!r}" in caplog.text

    def test_failed_cell_is_marked_not_fatal(self):
        job = {"model": "npglm", "n": 1, "censoring": 0.9, "rep": 0,
               "dim": 2, "dist": "rayleigh", "seed": 0, "test_n": 0,
               "save_traces": False}
        out = _run_cell(job)
        assert out["failed"] == 1
        assert "error" in out and out["model"] == "npglm"

    def test_code_built_config_gets_the_defaults(self):
        config = ExperimentConfig(dist="rayleigh", n_grid=[10], censoring_grid=[0.0])
        assert config == ExperimentConfig(
            dist="rayleigh", n_grid=(10,), censoring_grid=(0.0,), models=("npglm",),
            repetitions=20, seed=0, out_dir="sweep-out", dim=10, test_n=0, save_traces=False)
        assert isinstance(config.n_grid, tuple) and isinstance(config.censoring_grid, tuple)

    def test_whole_numbers_of_any_json_type_accepted(self):
        config = ExperimentConfig(dist="rayleigh", n_grid=[60.0, np.int64(80)],
                                  censoring_grid=[0, np.float64(0.5)], dim=3.0, seed=-1)
        assert config.n_grid == (60, 80) and config.censoring_grid == (0.0, 0.5)
        assert all(type(n) is int for n in config.n_grid + (config.dim, config.seed))
        assert all(type(c) is float for c in config.censoring_grid)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dist="rayleigh", models=("npglm",), n_grid=(10,),
                             censoring_grid=(1.0,), repetitions=1,
                             seed=0, out_dir="x")


class TestEnvThreads:
    def test_unset(self, monkeypatch):
        monkeypatch.delenv("HAZARDNET_THREADS", raising=False)
        assert env_threads() is None

    def test_valid(self, monkeypatch):
        monkeypatch.setenv("HAZARDNET_THREADS", "4")
        assert env_threads() == 4

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", ""])
    def test_invalid_ignored(self, monkeypatch, raw):
        monkeypatch.setenv("HAZARDNET_THREADS", raw)
        assert env_threads() is None


ENTRY_POINT = "hazardnet.cli:main"


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("hazardnet") is None,
                        reason="no hazardnet executable on PATH: package not installed")
    def test_installed_entry_point(self):
        proc = subprocess.run(["hazardnet", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "sweep" in proc.stdout

    def test_pyproject_declares_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert doc["project"]["scripts"] == {"hazardnet": ENTRY_POINT}

    def test_entry_point_target_runs_like_the_wrapper(self):
        # what the generated console-script wrapper executes
        module, func = ENTRY_POINT.split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        src = str(Path(hazardnet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "synth" in proc.stdout and "sweep" in proc.stdout


def test_import_leaves_scipy_optimize_unloaded(fixture_dir, tmp_path):
    # Every fit runs the shared Newton loop and every meta-path count is a
    # numpy product, so no command needs scipy, whose import alone costs
    # about 0.2 s and 22 MB.  With scipy blocked, the whole pipeline runs
    # through the CLI and leaves numpy.ma, which scipy used to load, unloaded.
    # Only sweep starts a process pool, so no other command loads one.
    features, model, pred, report = (tmp_path / name for name in
                                     ("features.csv", "model.json", "pred.csv", "eval.json"))
    commands = [
        ["features", "--graph", fixture_dir / "edges.tsv",
         "--schema", fixture_dir / "schema.json", "--metapaths", fixture_dir / "paths.txt",
         "--t0", WINDOW["t0"], "--delta", WINDOW["delta"], "--snapshots", WINDOW["k"],
         "--omega", WINDOW["omega"], "--out", features],
        ["fit", "--model", "npglm", "--input", features, "--out", model],
        ["predict", "--model-file", model, "--input", features, "--out", pred],
        ["eval", "--pred", pred, "--truth", features, "--thresholds", 1.0, "--out", report],
    ]
    code = "\n".join([
        "import json, sys",
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError",
        "import hazardnet, hazardnet.cli",
        f"rcs = [hazardnet.cli.main(argv) for argv in {[[str(a) for a in c] for c in commands]!r}]",
        "print(json.dumps({'rcs': rcs, 'numpy.ma': 'numpy.ma' in sys.modules,",
        "                  'scipy': sorted(m for m in sys.modules if m.startswith('scipy.')),",
        "                  'pool': [m for m in ('concurrent.futures.process', 'multiprocessing')",
        "                           if m in sys.modules]}))",
    ])
    src = str(Path(hazardnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "rcs": [0, 0, 0, 0], "numpy.ma": False, "scipy": [], "pool": []}
    assert load_dataset(features).n == len(EXPECTED_ROWS)
    assert set(json.loads(report.read_text())) >= {"mae", "mdae", "ci"}
