import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from hazardnet.datasets import Dataset
from hazardnet.npglm import (
    FitConfig,
    HazardModel,
    compute_H,
    fit,
    fit_parametric,
    link_g,
    loss,
    quantile,
    quantile_times,
    ranged_probability,
    sample_time,
)
from hazardnet import npglm
from hazardnet.npglm import (_counted, _fit_features, _gradient, _hazard, _hessian, _runs,
                             _w_objective, augment)
from hazardnet.synthetic import SynthConfig, generate


def make_dataset(t, y, x=None):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if x is None:
        x = np.zeros((len(t), 0))
    return Dataset(x=np.asarray(x, dtype=float), y=y, t=t,
                   pairs=[(i, i) for i in range(len(t))])


def random_dataset(rng, n, d, censor=0.3):
    x = rng.normal(size=(n, d))
    t = np.sort(rng.uniform(0.1, 5.0, size=n))
    y = (rng.uniform(size=n) > censor).astype(np.int64)
    if y.sum() == 0:
        y[0] = 1
    order = np.lexsort((-y, t))
    return make_dataset(t[order], y[order], x[order])


def compute_H_oracle(w, dataset):
    """Literal double loop; inner risk sum descends so the additions happen
    in the same order as a reversed cumulative sum."""
    xa = np.hstack([dataset.x, np.ones((dataset.n, 1))])
    e = np.exp(np.clip(xa @ np.asarray(w, dtype=float), -50, 50))
    n = dataset.n
    H = np.empty(n)
    acc = 0.0
    for j in range(n):
        risk = 0.0
        for k in range(n - 1, j - 1, -1):
            risk += e[k]
        acc += dataset.y[j] / risk
        H[j] = acc
    return H


def partial_likelihood_oracle(w, x, y, t):
    """Negative Cox partial log-likelihood and its gradient, summed event
    by event over the risk set {k : t_k >= t_i}."""
    z = x @ w
    e = np.exp(z)
    value, grad = 0.0, np.zeros(len(w))
    for i in np.flatnonzero(y):
        risk = t >= t[i]
        s0 = e[risk].sum()
        value -= z[i] - np.log(s0)
        grad -= x[i] - x[risk].T @ e[risk] / s0
    return value, grad


def fit_partial_likelihood_oracle(dataset):
    """Feature coefficients minimizing the partial likelihood, with
    Breslow's risk sets at tied times, by L-BFGS-B at tight tolerance."""
    if dataset.d == 0:
        return np.zeros(0)
    res = minimize(
        partial_likelihood_oracle, np.zeros(dataset.d),
        args=(dataset.x, dataset.y, dataset.t),
        jac=True, method="L-BFGS-B",
        options={"maxiter": 10000, "gtol": 1e-12, "ftol": 1e-16},
    )
    return res.x


class TestLink:
    def test_values(self):
        assert link_g(0.0) == 1.0
        assert_allclose(link_g(np.log(2.0)), 2.0, rtol=1e-15)

    def test_clamped(self):
        assert link_g(1000.0) == np.exp(50.0)
        assert link_g(-1000.0) == np.exp(-50.0)

    def test_nan_propagates(self):
        assert np.isnan(link_g(np.nan))
        assert np.isnan(link_g(np.array([np.nan, 0.0]))).tolist() == [True, False]

    def test_matches_clipped_exp(self):
        z = np.array([-np.inf, -1000.0, -50.0, -49.9, -0.0, 1e-300, 49.99, 50.0, 1000.0,
                      np.inf, np.nan])
        want = np.exp(np.clip(z, -50.0, 50.0))
        assert_array_equal(link_g(z), want)
        assert_array_equal([link_g(float(v)) for v in z], want)
        assert_array_equal([link_g(v) for v in z], want)  # numpy float64 scalars

    def test_vectorized(self):
        z = np.array([0.0, 1.0, -1.0])
        assert_allclose(link_g(z), np.exp(z))


class TestComputeH:
    def test_all_observed_example(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        H = compute_H(np.zeros(1), ds)
        assert_allclose(H, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1], rtol=1e-15)

    def test_censored_example(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1, 1, 0])
        H = compute_H(np.zeros(1), ds)
        assert_allclose(H, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2], rtol=1e-15)

    def test_matches_double_loop_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            d = int(rng.integers(0, 4))
            ds = random_dataset(rng, n, d)
            w = rng.normal(size=d + 1)
            assert_array_equal(compute_H(w, ds), compute_H_oracle(w, ds))

    def test_tied_example(self):
        # the two events at t = 2 share one jump, over the risk set of both
        ds = make_dataset([1.0, 2.0, 2.0, 3.0], [1, 1, 1, 0])
        H = compute_H(np.zeros(1), ds)
        assert_allclose(H, [1 / 4, 1 / 4 + 2 / 3, 1 / 4 + 2 / 3, 1 / 4 + 2 / 3], rtol=1e-15)

    def test_equal_within_runs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            t, y, x = tied_rows(rng, int(rng.integers(2, 200)), 2, 3)
            y[0] = 1
            H = compute_H(rng.normal(size=3), make_dataset(t, y, x))
            last = np.searchsorted(t, t, side="right") - 1  # each row's run's last row
            assert_array_equal(H, H[last])

    def test_nelson_aalen_reduction(self):
        # w = 0 and everything observed: the classic cumulative hazard steps
        n = 50
        ds = make_dataset(np.arange(1.0, n + 1), np.ones(n, dtype=np.int64))
        H = compute_H(np.zeros(1), ds)
        assert_array_equal(H, np.cumsum(1.0 / np.arange(n, 0, -1)))

    def test_nondecreasing(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 80, 3)
        H = compute_H(rng.normal(size=4), ds)
        assert np.all(np.diff(H) >= 0)

    def test_all_censored_rejected(self):
        ds = make_dataset([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError):
            compute_H(np.zeros(1), ds)

    def test_unsorted_rejected(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        ds.t = np.array([2.0, 1.0])
        with pytest.raises(ValueError):
            compute_H(np.zeros(1), ds)


class TestLoss:
    def test_single_observed(self):
        ds = make_dataset([2.0], [1])
        H = compute_H(np.zeros(1), ds)  # [1.0]
        # exp(0)*1 - (0 + log(h)), h = 1/2
        assert_allclose(loss(np.zeros(1), H, ds), 1.0 + np.log(2.0), rtol=1e-14)

    def test_censored_adds_survival_term(self):
        ds = make_dataset([1.0, 3.0], [1, 0])
        H = compute_H(np.zeros(1), ds)  # [1/2, 1/2]
        # observed: 1/2 - log((1/2)/1); censored: 1/2
        assert_allclose(loss(np.zeros(1), H, ds), 1.0 + np.log(2.0), rtol=1e-14)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(23)
        # distinct times, then tied ones: an event adds the log slope of H
        # since the previous distinct time
        for ds in (random_dataset(rng, 40, 2), make_dataset(*tied_rows(rng, 40, 2, 3, events=0.5))):
            w = rng.normal(size=3)
            H = compute_H(w, ds)
            xa = np.hstack([ds.x, np.ones((ds.n, 1))])
            z = xa @ w
            total = 0.0
            prev_H, prev_t = 0.0, 0.0
            for i in range(ds.n):
                if i and ds.t[i] != ds.t[i - 1]:
                    prev_H, prev_t = H[i - 1], ds.t[i - 1]
                total += np.exp(z[i]) * H[i] - ds.y[i] * z[i]
                if ds.y[i] == 1:
                    total -= np.log((H[i] - prev_H) / (ds.t[i] - prev_t))
            assert_allclose(loss(w, H, ds), total, rtol=1e-12)

    def test_zero_increment_rejected(self):
        ds = make_dataset([1.0, 2.0], [1, 1])
        with pytest.raises(ValueError):
            loss(np.zeros(1), np.array([0.5, 0.5]), ds)


class TestOptimizeW:
    """The loss over w at fixed H (``_w_objective``), whose gradient the
    fit uses."""

    def test_gradient_at_zero(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 30, 3)
        H = compute_H(rng.normal(size=4), ds)
        xa = np.hstack([ds.x, np.ones((ds.n, 1))])
        _, grad = _w_objective(np.zeros(4), xa, ds.y.astype(float), H)
        assert_allclose(grad, xa.T @ (H - ds.y), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            ds = random_dataset(rng, 25, 3)
            H = compute_H(rng.normal(size=4), ds)
            xa = np.hstack([ds.x, np.ones((ds.n, 1))])
            y = ds.y.astype(float)
            w = rng.normal(size=4)
            _, grad = _w_objective(w, xa, y, H)
            eps = 1e-6
            for j in range(4):
                step = np.zeros(4)
                step[j] = eps
                fp, _ = _w_objective(w + step, xa, y, H)
                fm, _ = _w_objective(w - step, xa, y, H)
                fd = (fp - fm) / (2 * eps)
                assert_allclose(grad[j], fd, rtol=1e-5, atol=1e-8)

    def test_objective_is_convex_along_segments(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 40, 2)
        H = compute_H(rng.normal(size=3), ds)
        xa = np.hstack([ds.x, np.ones((ds.n, 1))])
        y = ds.y.astype(float)
        for _ in range(20):
            w1, w2 = rng.normal(size=3), rng.normal(size=3)
            lam = rng.uniform()
            fm, _ = _w_objective(lam * w1 + (1 - lam) * w2, xa, y, H)
            f1, _ = _w_objective(w1, xa, y, H)
            f2, _ = _w_objective(w2, xa, y, H)
            assert fm <= lam * f1 + (1 - lam) * f2 + 1e-9 * max(1.0, abs(fm))


class TestProfile:
    """Pieces of the profile loss the Newton fit runs on."""

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        for case in range(40):  # distinct times, then tied ones
            n, d = int(rng.integers(5, 60)), int(rng.integers(1, 5))
            if case >= 20:
                t, y, x = tied_rows(rng, n, d, 3, events=0.5)
                y[0] = 1
                ds = make_dataset(t, y, x + rng.normal(size=x.shape))
            else:
                ds = random_dataset(rng, n, d)
            xt, y = ds.x.T.copy(), ds.y.astype(float)
            runs = _runs(ds.t, y)
            ev = np.flatnonzero(runs.y)

            def pieces(w):
                e = np.exp(ds.x @ w)
                risk, H = _hazard(e, runs.y)
                return e, risk[ev], H, _gradient(xt, e, H, y)

            w = rng.normal(size=d) * 0.5
            e, S0, H, _ = pieces(w)
            hess = _hessian(xt, e, H, ev, S0, runs.y[ev])
            eps = 1e-6
            for j in range(d):
                step = np.zeros(d)
                step[j] = eps
                fd = (pieces(w + step)[3] - pieces(w - step)[3]) / (2 * eps)
                assert_allclose(hess[:, j], fd, rtol=1e-5, atol=1e-7)


def per_event_row_loss(w, H, ds):
    """The loss summed per event row: each observed row adds the log slope
    of H at the first row of its run, through an n-length log_h array."""
    y = ds.y.astype(float)
    z = np.clip(np.hstack([ds.x, np.ones((ds.n, 1))]) @ w, -50, 50)
    new = np.append(True, ds.t[1:] != ds.t[:-1])
    obs = np.flatnonzero(y)
    first = np.flatnonzero(new)[np.cumsum(new)[obs] - 1]
    log_h = np.zeros(ds.n)
    log_h[obs] = np.log(np.diff(H, prepend=0.0)[first] / np.diff(ds.t, prepend=0.0)[first])
    return float(np.sum(np.exp(z) * H - y * (z + log_h)))


class TestEventRuns:
    """The loss and the Hessian read one event structure, ``_Runs.ev``."""

    def test_loss_matches_per_event_row_reference(self):
        rng = np.random.default_rng(211)
        for case in range(40):  # distinct times, then tied ones
            n, d = int(rng.integers(2, 80)), int(rng.integers(1, 4))
            if case < 20:
                ds = random_dataset(rng, n, d)
            else:
                t, y, x = tied_rows(rng, n, d, 3, events=0.5)
                y[0] = 1
                ds = make_dataset(t, y, x)
            w = rng.normal(size=d + 1)
            H = compute_H(w, ds)
            assert_allclose(loss(w, H, ds), per_event_row_loss(w, H, ds), rtol=1e-13)

    def test_counted_weights_match_expanded_rows(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            n, d = int(rng.integers(50, 400)), int(rng.integers(1, 3))
            t, y, x = tied_rows(rng, n, d, 2, events=0.3)
            y[0] = 1
            rows, c = _counted(t, y, np.ascontiguousarray(x.T))
            w = rng.normal(size=d + 1)
            values = []
            for weight, keep in ((1.0, slice(None)), (c, rows)):
                z, e = npglm._linear(augment(x[keep]), w)
                cy = weight * y[keep]
                runs = _runs(t[keep], cy)
                H = _hazard(weight * e, runs.y)[1]
                values.append(npglm._loss(z, weight * e, H, cy, runs))
            assert_allclose(values[1], values[0], rtol=1e-12)

    @pytest.mark.parametrize("t, y, ev", [
        ([1.0, 2.0, 2.0, 3.0], [1, 0, 0, 1], [0, 3]),  # event on row 0
        ([1.0, 1.0, 2.0, 2.0, 3.0], [0, 0, 0, 1, 1], [2, 4]),  # a run of censored rows only
        ([1.0, 2.0, 2.0], [0, 0, 0], []),  # no events
        ([1.0, 1.0, 1.0, 4.0], [0, 1, 1, 0], [0]),  # events off a run's first row
        ([1.0, 2.0, 2.0, 5.0], [2.0, 0.0, 3.0, 0.0], [0, 1]),  # counted weights
    ])
    def test_ev_is_the_first_row_of_each_run_with_events(self, t, y, ev):
        runs = _runs(np.asarray(t), np.asarray(y, dtype=float))
        assert_array_equal(runs.ev, ev)
        assert_array_equal(runs.ev, np.flatnonzero(runs.y))
        assert_array_equal(runs.dt, np.diff(t, prepend=0.0)[ev])

    def test_event_on_row_zero_takes_its_hazard_from_zero(self):
        ds = make_dataset([2.0, 3.0, 3.0], [1, 1, 0])
        H = compute_H(np.zeros(1), ds)  # [1/3, 1/3 + 1/2, 1/3 + 1/2]
        expected = np.sum(H) - np.log((1 / 3) / 2.0) - np.log((1 / 2) / 1.0)
        assert_allclose(loss(np.zeros(1), H, ds), expected, rtol=1e-14)


class TestBlockedProducts:
    """Products over the samples run in blocks of at most ``_BLOCK``
    elements, which OpenBLAS keeps on the calling thread."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 15])
    def test_match_whole_products(self, monkeypatch, block):
        monkeypatch.setattr(npglm, "_BLOCK", block)
        rng = np.random.default_rng(307)
        for n, d in ((1, 1), (50, 3), (1000, 0), (1000, 10)):
            xa = augment(rng.normal(size=(n, d)))
            w, r = rng.normal(size=d + 1), rng.normal(size=n)
            assert_allclose(npglm._linear(xa, w)[0], xa @ w, rtol=1e-12, atol=1e-12)
            assert_allclose(npglm._matvec(xa.T, r), xa.T @ r, rtol=1e-12, atol=1e-12)
            gram = npglm._gram(xa.T, r, np.zeros((d + 1, d + 1)))
            assert_allclose(gram, (xa.T * r) @ xa, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("width", [0, 1, 3, 11, 40])
    def test_blocks_cover_the_samples_once(self, width):
        blocks = npglm._blocks(100_000, width)
        covered = np.concatenate([np.arange(100_000)[b] for b in blocks])
        assert_array_equal(covered, np.arange(100_000))
        assert all((b.stop - b.start) * width <= npglm._BLOCK for b in blocks)


class TestFitMatchesPartialLikelihoodOracle:
    """The Newton fit lands where L-BFGS-B on the partial likelihood does."""

    def check(self, raw):
        model = fit(raw)
        # the exact design the fit runs on: the standardized raw features
        ds = Dataset(x=_fit_features(raw)[0], y=raw.y, t=raw.t, pairs=raw.pairs)
        w_ref = fit_partial_likelihood_oracle(ds)
        assert model.w[-1] == 0.0
        assert_allclose(model.w[:-1], w_ref, rtol=0, atol=1e-5)
        # the saved baseline and loss are compute_H's and loss's at model.w
        H = compute_H(model.w, ds)
        knots = np.append(np.diff(ds.t) > 0, True)
        assert_array_equal(model.H, H[knots])
        assert model.loss_trace[-1] == loss(model.w, H, ds)
        w_ref = np.append(w_ref, 0.0)
        ref_loss = loss(w_ref, compute_H(w_ref, ds), ds)
        # slack: at the optimum both losses agree to within the rounding
        # of their n-term sums
        assert model.loss_trace[-1] <= ref_loss + 1e-12 * max(1.0, abs(ref_loss))

    def test_random_datasets(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n, d = int(rng.integers(20, 400)), int(rng.integers(0, 6))
            self.check(random_dataset(rng, n, d))

    def test_tied_datasets(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            t, y, x = tied_rows(rng, 300, int(rng.integers(1, 4)), 3)
            y[0] = 1
            self.check(make_dataset(t, y, x))

    def test_zero_variance_column(self):
        # a constant feature standardizes to zeros: its gradient and its
        # Hessian row are exactly zero, so its coefficient never moves
        rng = np.random.default_rng(43)
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(20, 200)), 3)
            ds.x[:, 1] = 7.0
            model = fit(ds)
            assert model.w[1] == 0.0
            assert np.all(np.isfinite(model.w))

    def test_no_features_gives_nelson_aalen(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(1, 200)), 0)
            model = fit(ds)
            assert_array_equal(model.w, [0.0])
            assert_array_equal(model.H, np.cumsum(ds.y / np.arange(ds.n, 0, -1)))
            assert model.converged and len(model.loss_trace) == 1

    def test_separable_data_converges(self):
        # event order follows one feature exactly: the likelihood has no
        # finite maximizer, and the fit must still stop on the loss change
        rng = np.random.default_rng(53)
        for _ in range(30):
            x = rng.normal(size=(200, 3))
            t = np.argsort(np.argsort(-x[:, 0])) + 1.0
            y = (rng.uniform(size=200) > 0.3).astype(np.int64)
            order = np.argsort(t)
            model = fit(make_dataset(t[order], y[order], x[order]))
            trace = np.asarray(model.loss_trace)
            assert model.converged and len(trace) <= 50
            assert np.all(np.diff(trace) <= 0)
            assert np.all(np.isfinite(model.w)) and model.w[-1] == 0.0


def counted_oracle(t, y, x):
    """Group sizes by a dict over (t, y, tuple(x)); Python's float equality
    takes -0.0 for 0.0, as the merge does."""
    sizes = {}
    for key in zip(t.tolist(), y.tolist(), map(tuple, x.tolist())):
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def tied_rows(rng, n, d, levels, events=0.2):
    """Sorted (t, y, x) with integer times 1..5, most censored rows at 6,
    and features in 0..levels-1, so equal rows are common."""
    t = rng.integers(1, 6, size=n).astype(float)
    y = (rng.uniform(size=n) < events).astype(np.int64)
    t[(y == 0) & (rng.uniform(size=n) < 0.8)] = 6.0
    x = rng.integers(0, levels, size=(n, d)).astype(float)
    order = np.lexsort((-y, t))
    return t[order], y[order], x[order]


class TestCountedRows:
    """``_counted`` merges rows equal in (t, y, x) and nothing else."""

    def check(self, t, y, x):
        sizes = counted_oracle(t, y, x)
        counted = _counted(t, y, np.ascontiguousarray(x.T))
        if counted is None:
            assert len(sizes) == len(t)
            return np.arange(len(t)), np.ones(len(t))
        rows, counts = counted
        assert len(rows) < len(t)
        assert np.all(np.diff(rows) > 0)
        keys = list(zip(t[rows].tolist(), y[rows].tolist(), map(tuple, x[rows].tolist())))
        assert len(set(keys)) == len(keys) == len(sizes)
        assert {key: c for key, c in zip(keys, counts.tolist())} == sizes
        assert counts.dtype == float and counts.sum() == len(t)
        return rows, counts

    def test_matches_dict_on_small_integer_rows(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n, d = int(rng.integers(2, 400)), int(rng.integers(0, 4))
            self.check(*tied_rows(rng, n, d, int(rng.integers(1, 4))))

    def test_signed_zeros_merge(self):
        t = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
        y = np.array([1, 0, 0, 0, 0])
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
        _, counts = self.check(t, y, x)
        assert counts.tolist() == [1.0, 2.0, 2.0]

    def test_one_long_censored_run(self):
        rng = np.random.default_rng(73)
        n = 5000
        t = np.append(np.arange(1.0, 11.0), np.full(n - 10, 20.0))
        y = np.append(np.ones(10, dtype=np.int64), np.zeros(n - 10, dtype=np.int64))
        x = rng.integers(0, 3, size=(n, 3)).astype(float)
        rows, counts = self.check(t, y, x)
        assert rows[:10].tolist() == list(range(10)) and len(rows) <= 10 + 27

    def test_runs_of_length_one_skip(self):
        rng = np.random.default_rng(79)
        x = np.zeros((50, 2))  # equal x alone does not merge rows
        assert _counted(np.arange(1.0, 51.0), np.ones(50, dtype=np.int64), x.T) is None
        t = np.repeat(np.arange(1.0, 26.0), 2)
        y = np.tile([1, 0], 25)  # equal t, unequal y: runs of one
        assert _counted(t, y, rng.normal(size=(2, 50))) is None

    def test_all_rows_distinct(self):
        rng = np.random.default_rng(83)
        n = 3000
        t = np.append([1.0, 2.0], np.full(n - 2, 3.0))
        y = np.append([1, 1], np.zeros(n - 2, dtype=np.int64))
        assert _counted(t, y, rng.normal(size=(2, n))) is None

    def test_forced_collisions_never_merge_unequal_rows(self, monkeypatch):
        # every row hashes to one slot: each round merges one group only
        monkeypatch.setattr(npglm, "_hash",
                            lambda keys, bits, seed: np.zeros(keys.shape[1], dtype=np.uint64))
        rng = np.random.default_rng(89)
        for _ in range(10):
            self.check(*tied_rows(rng, int(rng.integers(2, 200)), 2, 2))
        # one bit of the last feature picks the slot: every run, and the
        # features 0.0 and 2.0, share one
        monkeypatch.setattr(npglm, "_hash",
                            lambda keys, bits, seed: (keys[-1] >> np.uint64(52)) % np.uint64(2))
        for _ in range(10):
            self.check(*tied_rows(rng, int(rng.integers(2, 200)), 3, 3))


class TestFitOnCountedRows:
    """On heavily duplicated rows the fit descends on counted rows and then
    takes one per-row pass."""

    def test_matches_per_row_descent(self, monkeypatch):
        rng = np.random.default_rng(97)
        cases = []
        for _ in range(8):
            n, d = int(rng.integers(500, 3000)), int(rng.integers(1, 4))
            t, y, x = tied_rows(rng, n, d, 3, events=0.05)
            y[0] = 1
            raw = make_dataset(t, y, x)
            rows, _ = _counted(*npglm._prepared(raw)[::-1], np.ascontiguousarray(x.T))
            assert len(rows) < n / 4
            cases.append((raw, fit(raw)))
        monkeypatch.setattr(npglm, "_counted", lambda t, y, xt: None)
        for raw, model in cases:
            per_row = fit(raw)
            assert_allclose(model.w, per_row.w, rtol=0, atol=1e-10)
            assert_array_equal(model.event_times, per_row.event_times)
            assert len(model.loss_trace) == len(per_row.loss_trace)
            assert model.converged == per_row.converged
            # the saved baseline and loss are compute_H's and loss's at model.w
            ds = Dataset(x=_fit_features(raw)[0], y=raw.y, t=raw.t, pairs=raw.pairs)
            H = compute_H(model.w, ds)
            knots = np.append(np.diff(ds.t) > 0, True)
            assert_array_equal(model.H, H[knots])
            assert model.loss_trace[-1] == loss(model.w, H, ds)

    def test_untied_rows_take_no_merge(self, monkeypatch):
        calls = []
        real = npglm._counted
        monkeypatch.setattr(npglm, "_counted", lambda *a: calls.append(real(*a)) or calls[-1])
        fit(random_dataset(np.random.default_rng(101), 300, 3))
        assert calls == [None]


class TestFit:
    def test_trace_nonincreasing_and_converged(self):
        out = generate(SynthConfig(n_observed=300, n_censored=100, d=3,
                                   dist="rayleigh", seed=1))
        model = fit(out.dataset)
        trace = np.asarray(model.loss_trace)
        assert model.converged
        slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)
        assert abs(trace[-1] - trace[-2]) < FitConfig().threshold

    def test_iteration_cap_flags_unconverged(self):
        out = generate(SynthConfig(n_observed=100, n_censored=0, d=2,
                                   dist="rayleigh", seed=2))
        model = fit(out.dataset, FitConfig(threshold=1e-300, max_outer=3))
        assert not model.converged
        assert len(model.loss_trace) == 3

    def test_recovers_coefficients(self):
        out = generate(SynthConfig(n_observed=400, n_censored=0, d=3,
                                   dist="rayleigh", seed=3))
        model = fit(out.dataset)
        w_raw, _ = model.raw_coefficients()
        assert np.mean(np.abs(w_raw - out.true_w)) < 0.25

    def test_duplicate_observed_times_handled(self):
        t = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 3.0])
        y = np.array([1, 1, 1, 0, 1, 0])
        x = np.random.default_rng(0).normal(size=(6, 2))
        model = fit(make_dataset(t, y, x))
        assert np.all(np.diff(model.event_times) > 0)
        assert np.all(np.diff(model.H) >= 0)

    def test_one_knot_per_distinct_time(self):
        # censored-only times (most censored rows sit at t = 6) keep a knot too
        rng = np.random.default_rng(109)
        for _ in range(10):
            t, y, x = tied_rows(rng, 300, 2, 3)
            y[0] = 1
            model = fit(make_dataset(t, y, x))
            assert_array_equal(model.event_times, t[np.append(True, np.diff(t) > 0)])

    def test_invariant_to_row_order_within_runs(self):
        # Breslow's ties have no order: shuffling the rows of each run of
        # equal (t, y) moves the fit by rounding only, with and without
        # rows to merge
        rng = np.random.default_rng(107)
        for case in range(10):
            n, d = int(rng.integers(100, 1500)), int(rng.integers(1, 4))
            t, y, x = tied_rows(rng, n, d, 3, events=0.3)
            y[0] = 1
            if case % 2:
                x = x + rng.normal(size=x.shape)
            model = fit(make_dataset(t, y, x))
            order = np.lexsort((rng.permutation(n), -y, t))
            shuffled = fit(make_dataset(t[order], y[order], x[order]))
            assert_allclose(shuffled.w, model.w, rtol=0, atol=1e-12)
            assert_array_equal(shuffled.event_times, model.event_times)
            assert_allclose(shuffled.H, model.H, rtol=0, atol=1e-12)

    def test_deterministic(self):
        out = generate(SynthConfig(n_observed=150, n_censored=50, d=2,
                                   dist="gompertz", seed=4))
        m1 = fit(out.dataset)
        m2 = fit(out.dataset)
        assert_array_equal(m1.w, m2.w)
        assert_array_equal(m1.H, m2.H)
        assert m1.loss_trace == m2.loss_trace

    def test_no_observed_rejected(self):
        with pytest.raises(ValueError):
            fit(make_dataset([1.0, 2.0], [0, 0]))

    @pytest.mark.parametrize("fitter", [fit, fit_parametric], ids=["npglm", "weibull"])
    def test_constant_non_integer_column_standardizes_to_zero(self, fitter):
        # 1,000 rows of 0.1 have a rounding std of about 1e-17, not 0
        rng = np.random.default_rng(5)
        n = 1000
        t = np.sort(rng.uniform(0.1, 5.0, size=n))
        x = np.column_stack((np.full(n, 0.1), rng.normal(size=n)))
        model = fitter(make_dataset(t, np.ones(n, dtype=np.int64), x))
        assert model.std[0] == 1.0 and model.mean[0] == 0.1
        assert model.w[0] == 0.0
        row = np.array([0.1, 0.3])
        near = np.array([0.1000001, 0.3])
        assert abs(model.score(near)[0] - model.score(row)[0]) <= 1e-6

    def test_fit_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(threshold=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_outer=0)


class TestModelValidation:
    def stats0(self):
        return {"mean": np.zeros(0), "std": np.ones(0)}

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            HazardModel(w=np.zeros(1), event_times=np.array([2.0, 1.0]),
                       H=np.array([0.5, 1.0]), **self.stats0())

    def test_decreasing_H_rejected(self):
        with pytest.raises(ValueError):
            HazardModel(w=np.zeros(1), event_times=np.array([1.0, 2.0]),
                       H=np.array([1.0, 0.5]), **self.stats0())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HazardModel(w=np.zeros(1), event_times=np.array([1.0, 2.0]),
                       H=np.array([0.5]), **self.stats0())

    @pytest.mark.parametrize("mean, std, key", [([0.0], [1.0], "mean"),
                                                ([0.0, 0.0], [1.0], "std"),
                                                ([0.0, 0.0], [1.0, -1.0], "std")])
    def test_code_built_standardization_checked(self, mean, std, key):
        with pytest.raises(ValueError, match=f"'standardization.{key}' must hold 2 values"):
            HazardModel(w=[0.5, 0.1, 0.0], mean=mean, std=std, family="exponential")


def toy_model(bias=0.0):
    """d = 0 model with knots (1, 0.5) and (2, 1.5); g = exp(bias)."""
    return HazardModel(
        w=np.array([bias]),
        event_times=np.array([1.0, 2.0]),
        H=np.array([0.5, 1.5]),
        mean=np.zeros(0),
        std=np.ones(0),
    )


X0 = np.zeros((1, 0))  # the only feature row a d = 0 model accepts


class TestInterpolateH:
    """The tabulated H0 is piecewise-linear through (0, 0) and the knots."""

    def test_knots_and_midpoints(self):
        m = toy_model()
        assert m.H0(0.0) == 0.0
        assert m.H0(0.5) == 0.25
        assert m.H0(1.0) == 0.5
        assert m.H0(1.5) == 1.0
        assert m.H0(2.0) == 1.5

    def test_clamped_beyond_horizon(self):
        assert toy_model().H0(10.0) == 1.5


class TestRangedProbability:
    def test_degenerate_interval_is_zero(self):
        assert ranged_probability(toy_model(), X0, 1.3, 1.3) == 0.0

    def test_cumulative_from_zero(self):
        m = toy_model()
        assert_allclose(ranged_probability(m, X0, 0.0, 1.0),
                        1 - np.exp(-0.5), rtol=1e-14)

    def test_g_scales_the_exponent(self):
        m = toy_model(bias=np.log(2.0))
        assert_allclose(ranged_probability(m, X0, 0.0, 1.0),
                        1 - np.exp(-1.0), rtol=1e-14)

    def test_nested_intervals_monotone(self):
        m = toy_model()
        p_inner = ranged_probability(m, X0, 0.8, 1.2)
        p_outer = ranged_probability(m, X0, 0.5, 1.8)
        assert 0 <= p_inner <= p_outer <= 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ranged_probability(toy_model(), X0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ranged_probability(toy_model(), X0, -1.0, 1.0)


class TestQuantile:
    def test_inverts_H_between_knots(self):
        # target hazard 1.0 sits halfway through the (1, 2) segment
        alpha = 1 - np.exp(-1.0)
        est = quantile(toy_model(), X0, alpha)
        assert_allclose(est.time, 1.5, rtol=1e-12)
        assert not est.horizon_exceeded

    def test_round_trip_with_ranged_probability(self):
        m = toy_model(bias=0.3)
        for alpha in (0.05, 0.3, 0.5, 0.7):
            est = quantile(m, X0, alpha)
            if est.horizon_exceeded:
                continue
            assert_allclose(ranged_probability(m, X0, 0.0, est.time), alpha,
                            rtol=1e-9, atol=1e-12)

    def test_monotone_in_alpha(self):
        m = toy_model()
        times = [quantile(m, X0, a).time for a in (0.1, 0.3, 0.5, 0.7)]
        assert times == sorted(times)

    def test_horizon_flagged(self):
        # exp(-1.5) survival at the last knot; larger alpha cannot be reached
        est = quantile(toy_model(), X0, 0.999)
        assert est.horizon_exceeded
        assert est.time == 2.0

    @pytest.mark.parametrize("family, d", [
        pytest.param(family, d, id=family if d else f"{family}-d0")
        for d in (3, 0) for family in ("npglm", "exponential", "weibull")])
    def test_vectorized_matches_scalar(self, family, d):
        out = generate(SynthConfig(n_observed=200, n_censored=50, d=3,
                                   dist="rayleigh", seed=8))
        dataset = dataclasses.replace(out.dataset, x=out.dataset.x[:, :d])
        if family == "npglm":
            model = fit(dataset)
        else:
            model = fit_parametric(dataset, family=family)
        x = dataset.x[:20]
        times, exceeded = quantile_times(model, x, 0.5)
        t_a, t_b = np.quantile(dataset.t, [0.25, 0.75])
        g = link_g(model.score(x))
        ranged = np.clip(np.exp(-g * model.H0(t_a)) - np.exp(-g * model.H0(t_b)), 0.0, 1.0)
        for i in range(len(x)):
            for row in (x[i], x[i:i + 1]):  # 1-D and (1, d)
                est = quantile(model, row, 0.5)
                # batched and single-row matmuls and powers may differ in the last bit
                assert_allclose(times[i], est.time, rtol=1e-12)
                assert bool(exceeded[i]) == est.horizon_exceeded
                assert_allclose(ranged_probability(model, row, t_a, t_b), ranged[i],
                                rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            quantile(toy_model(), X0, alpha)


class TestSampleTime:
    def test_deterministic_given_rng(self):
        m = toy_model()
        a = sample_time(m, X0, np.random.default_rng(42))
        b = sample_time(m, X0, np.random.default_rng(42))
        assert a == b

    def test_returns_tabulated_times_or_horizon(self):
        # draws interpolate between knots; a flagged draw is the horizon
        m = toy_model()
        rng = np.random.default_rng(0)
        for _ in range(200):
            est = sample_time(m, X0, rng)
            if est.horizon_exceeded:
                assert est.time == 2.0
            else:
                assert 0.0 <= est.time <= 2.0

    def test_matches_inverse_transform_frequencies(self):
        m = toy_model()
        rng = np.random.default_rng(1)
        n = 20000
        draws = [sample_time(m, X0, rng) for _ in range(n)]
        p1 = sum(1 for e in draws if not e.horizon_exceeded and e.time <= 1.0) / n
        p_exceeded = sum(1 for e in draws if e.horizon_exceeded) / n
        assert abs(p1 - (1 - np.exp(-0.5))) < 0.02
        assert abs(p_exceeded - np.exp(-1.5)) < 0.02


SINGLE_ROW_QUERIES = {
    "ranged": lambda m, x: ranged_probability(m, x, 0.5, 1.5),
    "quantile": lambda m, x: quantile(m, x, 0.5),
    "sample": lambda m, x: sample_time(m, x, np.random.default_rng(0)),
}


class TestSingleRowQueries:
    @pytest.mark.parametrize("op", SINGLE_ROW_QUERIES)
    def test_several_rows_rejected(self, op):
        # not an answer for row 0 alone
        with pytest.raises(ValueError, match="expected one feature row, got 3"):
            SINGLE_ROW_QUERIES[op](toy_model(), np.zeros((3, 0)))

    @pytest.mark.parametrize("op", SINGLE_ROW_QUERIES)
    def test_no_rows_rejected(self, op):
        with pytest.raises(ValueError, match="expected one feature row, got 0"):
            SINGLE_ROW_QUERIES[op](toy_model(), np.zeros((0, 0)))

    # d = 2 models of each family; a one-value row is not spread over both features
    WIDTH_MODELS = {
        "npglm": dict(family="npglm", event_times=[0.5, 2.0], H=[0.2, 1.0]),
        "exponential": dict(family="exponential"),
        "weibull": dict(family="weibull", shape=1.5),
    }
    ENTRY_POINTS = dict(SINGLE_ROW_QUERIES, score=lambda m, x: m.score(x),
                        quantile_times=lambda m, x: quantile_times(m, x, 0.5))

    @pytest.mark.parametrize("family", WIDTH_MODELS)
    @pytest.mark.parametrize("op", ENTRY_POINTS)
    @pytest.mark.parametrize("x, width", [
        ([0.5], "1"), (np.zeros((4, 1)), "1"), ([0.5, 0.5, 0.5], "3"),
        (np.zeros((1, 1, 2)), "(1, 2)"),
    ], ids=["one-value", "one-column", "d+1", "3-D"])
    def test_wrong_width_rejected(self, family, op, x, width):
        model = HazardModel(w=[0.5, -0.25, 0.125], mean=[0.0, 1.0], std=[2.0, 1.0],
                            **self.WIDTH_MODELS[family])
        with pytest.raises(ValueError) as excinfo:
            self.ENTRY_POINTS[op](model, x)
        assert str(excinfo.value) == f"model expects 2 features, got {width}"
        assert self.ENTRY_POINTS[op](model, [0.5, 0.5]) is not None


class TestSerialization:
    def test_json_round_trip(self):
        out = generate(SynthConfig(n_observed=80, n_censored=20, d=2,
                                   dist="gompertz", seed=9))
        model = fit(out.dataset)
        back = HazardModel.from_json(model.to_json())
        assert_array_equal(back.w, model.w)
        assert_array_equal(back.event_times, model.event_times)
        assert_array_equal(back.H, model.H)
        assert back.loss_trace == model.loss_trace
        assert back.converged == model.converged

    def test_file_round_trip(self, tmp_path):
        out = generate(SynthConfig(n_observed=60, n_censored=0, d=1,
                                   dist="rayleigh", seed=10))
        model = fit(out.dataset, unit="days")
        path = tmp_path / "model.json"
        model.save(path)
        back = HazardModel.load(path)
        assert back.unit == "days"
        assert_array_equal(back.w, model.w)
        x = out.dataset.x[:5]
        assert_array_equal(back.score(x), model.score(x))

    @pytest.mark.parametrize("key, values", [("mean", [0.0]), ("std", [1.0, 1.0, 1.0]),
                                             ("mean", 0.0)])
    def test_standardization_length_must_match_w(self, tmp_path, key, values):
        doc = {"family": "weibull", "w": [0.5, -0.25, 0.125], "shape": 1.5,
               "standardization": {"mean": [0.0, 1.0], "std": [2.0, 1.0]}}
        doc["standardization"][key] = values
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as excinfo:
            HazardModel.load(path)
        assert str(excinfo.value).startswith(
            f"{path}: model key 'standardization.{key}' must hold 2 values")

    def test_score_shape(self):
        out = generate(SynthConfig(n_observed=50, n_censored=0, d=2,
                                   dist="rayleigh", seed=12))
        model = fit(out.dataset)
        x = out.dataset.x[:7]
        assert model.score(x).shape == (7,)
        assert model.score(x[0]).shape == (1,)
        assert model.score(x[:1]).shape == (1,)
        assert_allclose(model.score(x[0]), model.score(x)[:1], rtol=1e-12)
        assert toy_model(bias=0.3).score(X0).shape == (1,)
        assert_array_equal(toy_model(bias=0.3).score(np.zeros((4, 0))), [0.3] * 4)

    def test_raw_coefficients_preserve_scores(self):
        out = generate(SynthConfig(n_observed=100, n_censored=0, d=3,
                                   dist="rayleigh", seed=11))
        model = fit(out.dataset)
        x = out.dataset.x[:10]
        w_raw, b_raw = model.raw_coefficients()
        assert_allclose(x @ w_raw + b_raw, model.score(x), rtol=1e-10)
