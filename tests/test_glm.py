import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hazardnet.datasets import Dataset
from hazardnet.npglm import (
    FitConfig,
    HazardModel,
    _descend,
    _fit_features,
    _gram,
    _linear,
    _negative_ll,
    _w_objective,
    augment,
    fit_parametric,
    TimeEstimate,
    quantile,
    ranged_probability,
    sample_time,
)
from hazardnet import npglm
from hazardnet.synthetic import SynthConfig, generate

from brute_force import exponential_dataset, make_dataset, tied_rows

X0 = np.zeros((1, 0))


def toy(family="weibull", bias=0.0, shape=1.0):
    return HazardModel(w=np.array([bias]), mean=np.zeros(0), std=np.ones(0),
                       family=family, shape=shape)


class TestGradients:
    @pytest.mark.parametrize("learn_shape", [False, True])
    def test_matches_finite_differences(self, learn_shape):
        rng = np.random.default_rng(19)
        for _ in range(8):
            n, d = 30, 3
            xa = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
            y = (rng.uniform(size=n) > 0.3).astype(float)
            t = rng.uniform(0.1, 4.0, size=n)
            theta = rng.normal(size=d + 1 + (1 if learn_shape else 0)) * 0.5
            counts = rng.integers(1, 6, size=n)  # of merged rows
            for weights in ((), (counts.astype(float),)):
                args = (xa, y, t, np.log(t), learn_shape, *weights)
                _, grad = _negative_ll(theta, *args)
                eps = 1e-6
                for j in range(len(theta)):
                    step = np.zeros(len(theta))
                    step[j] = eps
                    fp, _ = _negative_ll(theta + step, *args)
                    fm, _ = _negative_ll(theta - step, *args)
                    assert_allclose(grad[j], (fp - fm) / (2 * eps),
                                    rtol=1e-5, atol=1e-7)
            # weighted rows give what the rows repeated would give
            value, _ = _negative_ll(theta, *args)
            xr, yr, tr = (np.repeat(a, counts, axis=0) for a in (xa, y, t))
            assert_allclose(value, _negative_ll(theta, xr, yr, tr, np.log(tr), learn_shape)[0],
                            rtol=1e-12)


class TestRecovery:
    def test_exponential_on_own_process(self):
        ds, w, b = exponential_dataset(2000, 3, seed=0)
        model = fit_parametric(ds, family="exponential")
        assert model.shape == 1.0
        w_raw, b_raw = model.raw_coefficients()
        assert np.mean(np.abs(w_raw - w)) < 0.1
        assert abs(b_raw - b) < 0.1

    def test_weibull_learns_quadratic_shape(self):
        # S = exp(-alpha t^2 / 2) is a shape-2 law with rate alpha / 2
        out = generate(SynthConfig(n_observed=2000, n_censored=0, d=3,
                                   dist="rayleigh", seed=1))
        model = fit_parametric(out.dataset, family="weibull")
        assert abs(model.shape - 2.0) < 0.1
        w_raw, b_raw = model.raw_coefficients()
        assert np.mean(np.abs(w_raw - out.true_w)) < 0.1
        assert abs(b_raw - (out.true_b - np.log(2.0))) < 0.1

    def test_censoring_tolerated(self):
        # censored records keep their drawn times, which damps the apparent
        # hazard growth; the fit must still complete with increasing hazard
        out = generate(SynthConfig(n_observed=800, n_censored=800, d=2,
                                   dist="rayleigh", seed=2))
        model = fit_parametric(out.dataset, family="weibull")
        assert np.all(np.isfinite(model.w))
        assert model.shape > 1.0

    def test_deterministic(self):
        ds, _, _ = exponential_dataset(300, 2, seed=3)
        m1 = fit_parametric(ds, family="weibull")
        m2 = fit_parametric(ds, family="weibull")
        assert_array_equal(m1.w, m2.w)
        assert m1.shape == m2.shape


def recomputing_fit(dataset, family):
    """The parametric fit as written before each evaluated point carried
    exp(z) t**shape to the Hessian: both are recomputed at every use.
    Returns (theta, loss trace, converged)."""
    x = _fit_features(dataset)[0]
    xa = augment(x)
    xat = np.ascontiguousarray(xa.T)
    y, t = dataset.y.astype(float), dataset.t
    log_t = np.log(t)
    learn_shape = family == "weibull"

    def evaluate(theta):
        w, log_a = (theta[:-1], theta[-1]) if learn_shape else (theta, 0.0)
        a = np.exp(log_a)
        ta = t ** a
        value, grad = _w_objective(w, xa, y, ta)
        value -= float(np.sum(y * (log_a + (a - 1.0) * log_t)))
        if learn_shape:
            r = a * log_t
            grad = np.append(grad, np.sum((_linear(xa, w)[1] * ta - y) * r) - np.sum(y))
        return value, (theta, grad)

    def derivatives(state):
        theta, grad = state
        w, a = theta[:xa.shape[1]], (np.exp(theta[-1]) if learn_shape else 1.0)
        s = _linear(xa, w)[1] * t ** a
        hess = np.zeros((len(theta), len(theta)))
        _gram(xat, s, hess[:len(w), :len(w)])
        if learn_shape:
            r = a * log_t
            hess[-1, :-1] = hess[:-1, -1] = xat @ (s * r)
            hess[-1, -1] = np.sum(s * r * (1.0 + r) - y * r)
        return grad, hess

    theta0 = np.zeros(xa.shape[1] + learn_shape)
    theta, _, trace, converged = _descend(theta0, evaluate, derivatives, FitConfig())
    return theta, trace, converged


class TestFitMatchesRecomputingFit:
    """Carrying exp(z) t**shape from each evaluated point to its Hessian
    leaves every fitted number bit-identical."""

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    @pytest.mark.parametrize("dist", ["rayleigh", "gompertz"])
    def test_bit_identical(self, family, dist):
        ds = generate(SynthConfig(n_observed=400, n_censored=150, d=4, dist=dist,
                                  seed=29), policy="random").dataset
        model = fit_parametric(ds, family=family)
        theta, trace, converged = recomputing_fit(ds, family)
        d = ds.d + 1
        assert_array_equal(model.w, theta[:d])
        assert model.shape == (float(np.exp(theta[-1])) if family == "weibull" else 1.0)
        assert model.loss_trace == trace
        assert model.converged == converged
        assert len(trace) > 2


class TestParametricFitOnCountedRows:
    """On heavily duplicated rows the parametric fits descend on counted
    rows and then take one per-row pass for the last loss-trace entry."""

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    def test_matches_per_row_fit(self, family, monkeypatch):
        rng = np.random.default_rng(109)
        cases = []
        for _ in range(6):
            n, d = int(rng.integers(2000, 4000)), int(rng.integers(1, 4))
            t, y, x = tied_rows(rng, n, d, 3, events=0.3)
            y[0] = 1
            rows, _ = npglm._counted(t, y.astype(float), np.ascontiguousarray(x.T))
            assert len(rows) < n / 4
            cases.append(make_dataset(t, y, x))
        descents = []
        real = npglm._descend
        monkeypatch.setattr(npglm, "_descend",
                            lambda *a: descents.append(real(*a)) or descents[-1])
        models = [fit_parametric(ds, family=family) for ds in cases]
        thetas = [theta for theta, *_ in descents]
        monkeypatch.setattr(npglm, "_counted", lambda t, y, xt: None)
        for ds, model, theta in zip(cases, models, thetas):
            per_row = fit_parametric(ds, family=family)
            assert_allclose(model.w, per_row.w, rtol=0, atol=1e-10)
            assert_allclose(model.shape, per_row.shape, rtol=1e-10)
            assert len(model.loss_trace) == len(per_row.loss_trace)
            assert model.converged == per_row.converged
            # the last entry is the per-row loss at the descent's theta
            xa = augment(_fit_features(ds)[0])
            value, _ = _negative_ll(theta, xa, ds.y.astype(float), ds.t, np.log(ds.t),
                                    family == "weibull")
            assert model.loss_trace[-1] == value
            assert_array_equal(model.w, theta[:ds.d + 1])

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    def test_untied_rows_take_no_merge(self, family, monkeypatch):
        calls = []
        real = npglm._counted
        monkeypatch.setattr(npglm, "_counted", lambda *a: calls.append(real(*a)) or calls[-1])
        fit_parametric(exponential_dataset(300, 3, seed=11)[0], family=family)
        assert calls == [None]

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    def test_unsorted_rows(self, family):
        # reversed rows still form runs of equal (t, y), so they merge;
        # shuffled rows mostly do not
        rng = np.random.default_rng(113)
        t, y, x = tied_rows(rng, 2000, 2, 3, events=0.3)
        want = fit_parametric(make_dataset(t, y, x), family=family)
        for order in (np.arange(len(t))[::-1], rng.permutation(len(t))):
            model = fit_parametric(make_dataset(t[order], y[order], x[order]), family=family)
            assert model.converged
            assert_allclose(model.w, want.w, rtol=0, atol=1e-10)
            assert_allclose(model.shape, want.shape, rtol=1e-10)


def lbfgs_reference(dataset, family):
    """Minimum of ``_negative_ll`` found by scipy's L-BFGS-B, the optimizer
    the parametric fit used before it shared the Newton loop.  Skips the
    calling test where scipy is not installed."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    x = _fit_features(dataset)[0]
    xa = np.hstack([x, np.ones((len(x), 1))])
    learn_shape = family == "weibull"
    args = (xa, dataset.y.astype(float), dataset.t, np.log(dataset.t), learn_shape)
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(_negative_ll, np.zeros(xa.shape[1] + learn_shape), args=args,
                       jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "gtol": 1e-8, "ftol": 1e-14})
    return float(res.fun), args


def oracle_cases():
    """Seeded (n_observed, n_censored, d, dist, seed, policy) draws over
    n = 30..4000, d = 1..7, both laws and both censoring policies."""
    rng = np.random.default_rng(7)
    cases = []
    for seed in range(16):
        n = int(rng.choice([30, 100, 300, 1000, 4000]))
        n_censored = int(n * rng.choice([0.0, 0.2, 0.5]))
        cases.append((n - n_censored, n_censored, int(rng.integers(1, 8)),
                      ("rayleigh", "gompertz")[seed % 2], 500 + seed,
                      ("tail", "random")[seed // 2 % 2]))
    return cases


# 30-row Weibull fits on which Newton in log-shape stalls at a point where
# the least-squares step is not a descent direction; L-BFGS-B finds
# shapes 1.79, 1.16, 2.46 and 1.80.
STALL_CASES = [(30, 0, 3, "gompertz", 101, "tail"), (30, 0, 7, "gompertz", 350, "tail"),
               (30, 0, 7, "rayleigh", 392, "tail"), (30, 0, 5, "gompertz", 411, "tail")]


class TestNewtonMatchesLBFGSB:
    """The shared Newton loop reaches L-BFGS-B's minimum (or a lower one),
    reports convergence and raises no floating-point warning."""

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    @pytest.mark.parametrize(
        "case", oracle_cases() + STALL_CASES,
        ids=lambda c: f"{c[3]}-n{c[0] + c[1]}-d{c[2]}-s{c[4]}-{c[5]}")
    def test_loss_at_least_as_low(self, case, family):
        n_observed, n_censored, d, dist, seed, policy = case
        ds = generate(SynthConfig(n_observed=n_observed, n_censored=n_censored,
                                  d=d, dist=dist, seed=seed), policy=policy).dataset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_parametric(ds, family=family)
        want, args = lbfgs_reference(ds, family)
        theta = model.w
        if family == "weibull":
            theta = np.append(theta, np.log(model.shape))
        got = _negative_ll(theta, *args)[0]
        assert model.converged
        assert got - want <= 1e-9 * abs(want)
        assert model.loss_trace[-1] == pytest.approx(got, rel=1e-12)


def exp_minus_2x(theta):
    """sum(exp(theta) - 2 theta): minimum at log 2, Newton needs several steps."""
    return float(np.sum(np.exp(theta) - 2.0 * theta)), theta


def exp_minus_2x_derivatives(theta):
    return np.exp(theta) - 2.0, np.diag(np.exp(theta))


class TestDescend:
    def test_iteration_cap_reports_unconverged(self):
        _, _, trace, converged = _descend(np.zeros(2), exp_minus_2x,
                                          exp_minus_2x_derivatives, FitConfig(max_outer=1))
        assert not converged and len(trace) == 1

    def test_converges_without_cap(self):
        theta, _, trace, converged = _descend(np.zeros(2), exp_minus_2x,
                                              exp_minus_2x_derivatives, FitConfig())
        assert converged and 1 < len(trace) < 10
        assert_allclose(theta, np.log(2.0), atol=1e-4)

    def test_ascent_step_replaced_by_negative_gradient(self):
        # cos has negative curvature near 0, so Newton would climb to the
        # maximum at 0; the negative gradient leads to the minimum at pi
        theta, _, trace, converged = _descend(
            np.array([0.3]), lambda v: (float(np.cos(v[0])), v),
            lambda v: (-np.sin(v), -np.cos(v).reshape(1, 1)), FitConfig(threshold=1e-12))
        assert converged and trace[-1] < trace[0]
        assert_allclose(theta, [np.pi], atol=1e-4)

    def test_nonfinite_trial_fails_the_step(self):
        # a Hessian 1e6 times too small sends the first trial to exp(1e6),
        # which overflows; backtracking must reject it without a warning
        theta, _, _, converged = _descend(
            np.zeros(1), exp_minus_2x,
            lambda v: (np.exp(v) - 2.0, np.diag(1e-6 * np.exp(v))), FitConfig())
        assert converged
        assert_allclose(theta, np.log(2.0), atol=1e-2)


class TestQueries:
    """Parametric models answer through the shared npglm query functions;
    a parametric baseline has no horizon, so nothing is ever flagged."""

    def test_median_formula(self):
        m = toy(bias=np.log(2.0), shape=2.0)  # g = 2
        est = quantile(m, X0, 0.5)
        assert_allclose(est.time, np.sqrt(np.log(2.0) / 2.0), rtol=1e-14)
        assert not est.horizon_exceeded

    def test_quantile_round_trip(self):
        m = toy(bias=-0.3, shape=2.5)
        for alpha in (0.05, 0.5, 0.95):
            est = quantile(m, X0, alpha)
            assert not est.horizon_exceeded
            assert_allclose(ranged_probability(m, X0, 0.0, est.time), alpha,
                            rtol=1e-12)

    def test_ranged_probability_bounds(self):
        m = toy(shape=1.0)
        assert ranged_probability(m, X0, 1.0, 1.0) == 0.0
        assert_allclose(ranged_probability(m, X0, 0.0, np.log(2.0)), 0.5,
                        rtol=1e-14)

    def test_invalid_arguments(self):
        m = toy()
        with pytest.raises(ValueError):
            quantile(m, X0, 1.0)
        with pytest.raises(ValueError):
            ranged_probability(m, X0, 2.0, 1.0)

    def test_sampling_matches_analytic_law(self):
        kstest = pytest.importorskip("scipy.stats").kstest
        m = toy(bias=0.5, shape=2.0)
        g = np.exp(0.5)
        rng = np.random.default_rng(4)
        draws = [sample_time(m, X0, rng) for _ in range(10000)]
        assert all(isinstance(e, TimeEstimate) and not e.horizon_exceeded
                   for e in draws)
        draws = np.array([e.time for e in draws])
        stat = kstest(draws, lambda t: 1 - np.exp(-g * t ** 2)).statistic
        assert stat < 0.02

    def test_sampling_deterministic(self):
        m = toy()
        assert sample_time(m, X0, np.random.default_rng(5)) == \
            sample_time(m, X0, np.random.default_rng(5))


class TestValidationAndSerialization:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            toy(family="gamma")
        ds, _, _ = exponential_dataset(20, 1, seed=6)
        with pytest.raises(ValueError):
            fit_parametric(ds, family="gamma")

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            toy(shape=0.0)

    def test_exponential_shape_must_be_one(self):
        with pytest.raises(ValueError, match="model key 'shape' must be 1 for exponential"):
            toy(family="exponential", shape=2.5)
        assert toy(family="exponential", shape=1).shape == 1.0

    def test_all_censored_rejected(self):
        ds = Dataset(x=np.zeros((2, 1)), y=np.zeros(2, dtype=np.int64),
                     t=np.array([1.0, 2.0]), pairs=[(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            fit_parametric(ds)

    def test_json_round_trip(self):
        ds, _, _ = exponential_dataset(100, 2, seed=7)
        model = fit_parametric(ds, family="weibull", unit="weeks")
        back = HazardModel.from_json(model.to_json())
        assert back.family == "weibull" and back.unit == "weeks"
        assert_array_equal(back.w, model.w)
        assert back.shape == model.shape

    @pytest.mark.parametrize("family", ["exponential", "weibull"])
    def test_fit_report_round_trip(self, family):
        ds, _, _ = exponential_dataset(100, 2, seed=7)
        model = fit_parametric(ds, family=family)
        doc = model.to_json()
        assert doc["loss_trace"] == model.loss_trace and doc["converged"] is True
        back = HazardModel.from_json(doc)
        assert back.loss_trace == model.loss_trace and back.converged

    def test_file_round_trip(self, tmp_path):
        ds, _, _ = exponential_dataset(80, 1, seed=8)
        model = fit_parametric(ds, family="exponential")
        path = tmp_path / "baseline.json"
        model.save(path)
        back = HazardModel.load(path)
        x = ds.x[:5]
        assert_array_equal(back.score(x), model.score(x))

    def test_raw_coefficients_preserve_scores(self):
        ds, _, _ = exponential_dataset(150, 3, seed=9)
        model = fit_parametric(ds, family="weibull")
        w_raw, b_raw = model.raw_coefficients()
        x = ds.x[:10]
        assert_allclose(x @ w_raw + b_raw, model.score(x), rtol=1e-10)
