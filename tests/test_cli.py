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
from hazardnet.npglm import HazardModel

from conftest import EXPECTED_ROWS, WINDOW


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

    def test_expsmooth_alpha_out_of_range_exits_2(self, fixture_dir, tmp_path):
        args = self.feature_args(fixture_dir, tmp_path / "f.csv")
        assert run(*args, "--aggregator", "expsmooth", "--alpha", 1.5) == 2

    def test_missing_target_exits_2(self, fixture_dir, tmp_path):
        naked = fixture_dir / "no-target.txt"
        naked.write_text("write> <write\n")
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index("--metapaths") + 1] = naked
        assert run(*args) == 2

    def test_window_beyond_history_exits_2(self, fixture_dir, tmp_path):
        args = list(self.feature_args(fixture_dir, tmp_path / "f.csv"))
        args[args.index("--t0") + 1] = 100.0
        assert run(*args) == 2


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

    def test_unknown_family_exits_2(self, tmp_path):
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(dict(PARENT_DOCS["weibull"], family="gamma")))
        assert run("query", "--model-file", path, "--x", X,
                   "--op", "quantile", 0.5) == 2


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

    def test_length_mismatch_exits_2(self, tmp_path, synth_dir):
        pred = tmp_path / "short.csv"
        pred.write_text("t_pred\n1.0\n")
        assert run("eval", "--pred", pred, "--truth", synth_dir / "dataset.csv",
                   "--out", tmp_path / "r.json") == 2


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
        traces = json.loads((tmp_path / "sweep-out" / "traces.json").read_text())
        assert traces and all("avg_log_likelihood" in t for t in traces)
        assert all(t["model"] == "npglm" for t in traces)

    def test_repetition_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAZARDNET_THREADS", "1")
        config = self.config_doc(tmp_path, models=["expglm"],
                                 censoring_grid=[0.0], save_traces=False)
        assert run("sweep", "--config", config, "--repetitions", 1) == 0
        with open(tmp_path / "sweep-out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["repetitions"] == "1"

    def test_invalid_config_exits_2(self, tmp_path):
        config = self.config_doc(tmp_path, models=["mlp"])
        assert run("sweep", "--config", config) == 2

    def test_failed_cell_is_marked_not_fatal(self):
        job = {"model": "npglm", "n": 1, "censoring": 0.9, "rep": 0,
               "dim": 2, "dist": "rayleigh", "seed": 0, "test_n": 0,
               "save_traces": False}
        out = _run_cell(job)
        assert out["failed"] == 1
        assert "error" in out and out["model"] == "npglm"

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
