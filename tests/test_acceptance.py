"""Acceptance gate: ten numbered end-to-end checks.

Each test prints (and registers) one PASS/FAIL line with the measured
numbers; the lines are echoed in the terminal summary.  Criteria 2-4
share cached per-seed fits.  The brute-force references and their random
inputs come from ``brute_force.py``, which the unit suites share; the gate
and the unit suites do not import each other.
"""

import csv
import json
import time
from functools import lru_cache

import numpy as np
from numpy.testing import assert_array_equal

from hazardnet import npglm
from hazardnet.cli import main as cli_main
from hazardnet.datasets import Dataset, load_dataset
from hazardnet.metapaths import metapath_counts
from hazardnet.metrics import concordance_index
from hazardnet.npglm import FitConfig, _negative_ll, compute_H, fit_parametric, link_g, quantile_times
from hazardnet.synthetic import SynthConfig, generate

from brute_force import (ci_oracle, compute_H_oracle, dfs_count_oracle, exponential_dataset,
                         link_stamps, random_dataset, random_graph_and_path)
from conftest import ACCEPTANCE_LINES, EXPECTED_ROWS, WINDOW, dense


def report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@lru_cache(maxsize=None)
def rayleigh_w_mae(n_observed: int, n_censored: int, seed: int) -> float:
    """Coefficient MAE of one seeded npglm fit on Rayleigh data, d=10."""
    out = generate(SynthConfig(n_observed=n_observed, n_censored=n_censored,
                               d=10, dist="rayleigh", seed=seed))
    model = npglm.fit(out.dataset)
    w_hat, _ = model.raw_coefficients()
    return float(np.abs(w_hat - out.true_w).mean())


SEEDS_RECOVERY = tuple(range(3000, 3020))
SEEDS_CENSORED = tuple(range(4000, 4020))
SEEDS_BASELINE = tuple(range(900, 920))


def test_criterion_01_convergence():
    results = []
    ok = True
    for dist, cap in (("rayleigh", 200), ("gompertz", 60)):
        out = generate(SynthConfig(n_observed=1500, n_censored=1500, d=10,
                                   dist=dist, seed=101))
        start = time.perf_counter()
        model = npglm.fit(out.dataset, FitConfig(max_outer=cap))
        seconds = time.perf_counter() - start
        trace = np.asarray(model.loss_trace)
        slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        monotone = bool(np.all(np.diff(trace) <= slack))
        triggered = model.converged and len(trace) <= cap
        ok = ok and monotone and triggered and seconds < 120.0
        results.append(f"{dist} {len(trace)} iters/{seconds:.2f}s"
                       f" monotone={monotone}")
    report(1, ok, "loss trace non-increasing, 1e-4 stop within cap, "
           "< 2 min per fit (" + "; ".join(results) + ")")


def test_criterion_02_weight_recovery():
    by_n = {}
    for n in (100, 300, 900):
        maes = [rayleigh_w_mae(n, 0, s) for s in SEEDS_RECOVERY]
        by_n[n] = (float(np.mean(maes)),
                   float(np.std(maes, ddof=1) / np.sqrt(len(maes))))
    mean900 = by_n[900][0]
    ok = mean900 <= 0.15
    steps = []
    for a, b in ((100, 300), (300, 900)):
        pooled = float(np.hypot(by_n[a][1], by_n[b][1]))
        step_ok = by_n[b][0] <= by_n[a][0] + pooled
        ok = ok and step_ok
        steps.append(f"{a}->{b} {by_n[a][0]:.4f}->{by_n[b][0]:.4f}"
                     f" (pooled se {pooled:.4f})")
    report(2, ok, f"MAE(w) at N=900 = {mean900:.4f} <= 0.15 over 20 seeds; "
           "non-increasing in N: " + "; ".join(steps))


def test_criterion_03_censoring_ordering():
    wins = sum(
        1 for s in SEEDS_RECOVERY
        if rayleigh_w_mae(450, 450, s) >= rayleigh_w_mae(900, 0, s)
    )
    ok = wins >= 16
    report(3, ok, f"at N=900, MAE(50% censoring) >= MAE(0%) in {wins}/20 "
           "paired seeds (need >= 16)")


def test_criterion_04_censored_informative():
    mae_with = float(np.mean([rayleigh_w_mae(200, 200, s) for s in SEEDS_CENSORED]))
    mae_without = float(np.mean([rayleigh_w_mae(200, 0, s) for s in SEEDS_CENSORED]))
    ok = mae_with < mae_without
    report(4, ok, f"N_o=200: mean MAE {mae_with:.4f} with 200 censored "
           f"< {mae_without:.4f} with none (20 seeds)")


def test_criterion_05_runtime_scaling():
    def best_fit_seconds(n_observed, n_censored, repeats=3):
        out = generate(SynthConfig(n_observed=n_observed, n_censored=n_censored,
                                   d=10, dist="rayleigh", seed=501))
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            npglm.fit(out.dataset)
            best = min(best, time.perf_counter() - start)
        return best

    t_small = best_fit_seconds(5000, 5000)
    t_large = best_fit_seconds(50000, 50000)
    ratio = t_large / t_small
    ok = ratio <= 15.0
    report(5, ok, f"fit(1e5)/fit(1e4) = {t_large:.2f}s/{t_small:.2f}s "
           f"= {ratio:.1f} <= 15")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(601)

    # (a) closed-form cumulative hazard vs the literal double loop
    for _ in range(40):
        ds = random_dataset(rng, int(rng.integers(1, 201)), int(rng.integers(0, 4)))
        w = rng.normal(size=ds.d + 1)
        assert_array_equal(compute_H(w, ds), compute_H_oracle(w, ds))

    # (b) w = 0, all observed: the classical cumulative-hazard steps
    n = 200
    ds = Dataset(x=np.zeros((n, 0)), y=np.ones(n, dtype=np.int64),
                 t=np.arange(1.0, n + 1), pairs=[(i, i) for i in range(n)])
    assert_array_equal(compute_H(np.zeros(1), ds),
                       np.cumsum(1.0 / np.arange(n, 0, -1)))

    # (c) meta-path counts vs typed-walk DFS enumeration, at a random time
    # and at each link stamp
    for _ in range(200):
        g, p = random_graph_and_path(rng, max_nodes=9, max_links=15)
        for tau in (float(rng.uniform(0, 12)), *link_stamps(g, p)):
            assert_array_equal(dense(metapath_counts(g, p, tau)),
                               dfs_count_oracle(g, p, tau))

    # (d) concordance index vs O(N^2) pair enumeration
    for _ in range(50):
        n = int(rng.integers(2, 80))
        t = rng.uniform(0.1, 5.0, size=n)
        y = (rng.uniform(size=n) > 0.4).astype(int)
        p = rng.uniform(0.1, 5.0, size=n)
        if rng.uniform() < 0.3:
            p = np.round(p)
        want = ci_oracle(t, y, p)
        if want is not None:
            assert concordance_index(t, y, p) == want

    report(6, True, "closed-form H = double loop (40 cases), w=0 reduction "
           "exact, meta-path counts = DFS enumeration (200 graphs), "
           "CI = pair enumeration (50 cases)")


def test_criterion_07_gradients():
    rng = np.random.default_rng(701)
    worst = 0.0

    def check(value_and_grad, theta, *args):
        nonlocal worst
        _, grad = value_and_grad(theta, *args)
        eps = 1e-6
        for j in range(len(theta)):
            step = np.zeros(len(theta))
            step[j] = eps
            fp, _ = value_and_grad(theta + step, *args)
            fm, _ = value_and_grad(theta - step, *args)
            fd = (fp - fm) / (2 * eps)
            rel = abs(grad[j] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5, f"gradient off by {rel:.2e}"

    for _ in range(50):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        ds = random_dataset(rng, n, d)
        xa = np.hstack([ds.x, np.ones((n, 1))])
        y = ds.y.astype(float)
        H = compute_H(rng.normal(size=d + 1), ds)
        check(npglm._w_objective, rng.normal(size=d + 1) * 0.5, xa, y, H)

    for learn_shape in (False, True):
        for _ in range(50):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
            xa = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
            y = (rng.uniform(size=n) > 0.3).astype(float)
            t = rng.uniform(0.1, 4.0, size=n)
            theta = rng.normal(size=d + 1 + (1 if learn_shape else 0)) * 0.5
            check(_negative_ll, theta, xa, y, t, np.log(t), learn_shape)

    report(7, True, "coefficient-step and parametric log-likelihood "
           f"gradients match central differences (worst rel err {worst:.1e} "
           "<= 1e-5, 50 instances each)")


def test_criterion_08_inference_consistency():
    out = generate(SynthConfig(n_observed=420, n_censored=180, d=3,
                               dist="rayleigh", seed=801))
    model = npglm.fit(out.dataset)
    x_rows = out.dataset.raw_x

    worst_rt = 0.0
    checked = 0
    for i in range(0, 60, 2):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            est = npglm.quantile(model, x_rows[i], alpha)
            if est.horizon_exceeded:
                continue
            p = npglm.ranged_probability(model, x_rows[i], 0.0, est.time)
            worst_rt = max(worst_rt, abs(p - alpha))
            checked += 1
    round_trip_ok = worst_rt <= 1e-9 and checked > 50

    x0 = x_rows[0]
    g = link_g(model.score(x0))[0]
    rng = np.random.default_rng(802)
    n_draws = 100000
    draws = np.empty(n_draws)
    for i in range(n_draws):
        est = npglm.sample_time(model, x0, rng)
        draws[i] = np.inf if est.horizon_exceeded else est.time
    model_cdf = 1.0 - np.exp(-g * model.H)
    ecdf = np.searchsorted(np.sort(draws), model.event_times, side="right") / n_draws
    ks = float(np.max(np.abs(ecdf - model_cdf)))
    ks_ok = ks < 0.01

    report(8, round_trip_ok and ks_ok,
           f"quantile/ranged round-trip worst |p - alpha| = {worst_rt:.1e} "
           f"<= 1e-9 ({checked} probes); 1e5-draw Kolmogorov distance "
           f"{ks:.4f} < 0.01")


def test_criterion_09_baseline_sanity():
    maes, ci_exp, ci_np = [], [], []
    for seed in SEEDS_BASELINE:
        ds, w_true, _ = exponential_dataset(2000, 10, seed)
        exp_model = fit_parametric(ds, family="exponential")
        w_raw, _ = exp_model.raw_coefficients()
        maes.append(float(np.abs(w_raw - w_true).mean()))

        np_model = npglm.fit(ds)
        x = ds.raw_x
        exp_medians = np.log(2.0) / link_g(exp_model.score(x))
        np_medians, _ = quantile_times(np_model, x, 0.5)
        ci_exp.append(concordance_index(ds.t, ds.y, exp_medians))
        ci_np.append(concordance_index(ds.t, ds.y, np_medians))

    mae = float(np.mean(maes))
    gap = abs(float(np.mean(ci_np)) - float(np.mean(ci_exp)))
    ok = mae <= 0.1 and gap <= 0.05
    report(9, ok, f"Exp-GLM own-process MAE(w) = {mae:.4f} <= 0.1 (20 seeds); "
           f"median-prediction CI gap |{np.mean(ci_np):.4f} - "
           f"{np.mean(ci_exp):.4f}| = {gap:.4f} <= 0.05")


def test_criterion_10_pipeline_fixture(fixture_dir, tmp_path):
    features_csv = tmp_path / "features.csv"
    model_file = tmp_path / "model.json"
    pred_csv = tmp_path / "pred.csv"

    rc_features = cli_main([
        "features",
        "--graph", str(fixture_dir / "edges.tsv"),
        "--schema", str(fixture_dir / "schema.json"),
        "--metapaths", str(fixture_dir / "paths.txt"),
        "--t0", str(WINDOW["t0"]), "--delta", str(WINDOW["delta"]),
        "--snapshots", str(WINDOW["k"]), "--omega", str(WINDOW["omega"]),
        "--out", str(features_csv),
    ])
    ds = load_dataset(features_csv)
    got = [(src, dst, int(y), float(t)) + tuple(map(float, row))
           for (src, dst), y, t, row in zip(ds.pairs, ds.y, ds.t, ds.x)]
    features_exact = got == EXPECTED_ROWS

    rc_fit = cli_main(["fit", "--model", "npglm",
                       "--input", str(features_csv), "--out", str(model_file)])
    rc_pred = cli_main(["predict", "--model-file", str(model_file),
                        "--input", str(features_csv), "--out", str(pred_csv)])
    with open(pred_csv) as fh:
        n_preds = sum(1 for _ in csv.DictReader(fh))
    model_doc = json.loads(model_file.read_text())

    ok = (rc_features == rc_fit == rc_pred == 0 and features_exact
          and len(model_doc["w"]) == 4 and n_preds == len(EXPECTED_ROWS))
    report(10, ok, "12-node fixture through the CLI: features match the "
           f"hand computation exactly ({len(EXPECTED_ROWS)} rows), fit and "
           "predictions complete")
