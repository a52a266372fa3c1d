import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hazardnet.metrics import (EvalReport, _median, concordance_index, evaluate,
                               point_metrics)


def ci_oracle(t_true, y, t_pred):
    """Literal double loop over ordered pairs."""
    num, den = 0.0, 0
    n = len(t_true)
    for i in range(n):
        if y[i] != 1:
            continue
        for j in range(n):
            if t_true[i] >= t_true[j]:
                continue
            den += 1
            if t_pred[i] < t_pred[j]:
                num += 1.0
            elif t_pred[i] == t_pred[j]:
                num += 0.5
    return num / den


def ci_row_loop(t_true, y, t_pred):
    """The former implementation: each observed row against all rows, O(n_obs * n)."""
    t_true = np.asarray(t_true, dtype=float)
    t_pred = np.asarray(t_pred, dtype=float)
    concordant = 0.0
    comparable = 0
    for i in np.flatnonzero(np.asarray(y) == 1):
        later = t_true > t_true[i]
        m = int(later.sum())
        if m == 0:
            continue
        comparable += m
        pj = t_pred[later]
        concordant += float((t_pred[i] < pj).sum()) + 0.5 * float((t_pred[i] == pj).sum())
    return concordant / comparable


class TestPointMetrics:
    def test_two_point_example(self):
        r = point_metrics([1.0, 2.0], [1, 1], [2.0, 4.0])
        assert r.mae == 1.5
        assert r.mre == 1.0  # (1/1 + 2/2) / 2
        assert_allclose(r.rmse, np.sqrt(2.5), rtol=1e-15)
        assert r.mdae == 1.5

    def test_perfect_predictions(self):
        t = np.array([0.5, 1.0, 4.0])
        r = point_metrics(t, [1, 1, 1], t, thresholds=(0.1,))
        assert r.mae == 0 and r.mre == 0 and r.rmse == 0
        assert r.msle == 0 and r.mdae == 0
        assert r.acc_at[0.1] == 1.0

    def test_msle_log1p_scale(self):
        # |log1p(e - 1) - log1p(0)| = 1
        r = point_metrics([np.e - 1.0], [1], [0.0])
        assert_allclose(r.msle, 1.0, rtol=1e-14)

    def test_acc_threshold_is_strict(self):
        r = point_metrics([1.0], [1], [2.0], thresholds=(1.0, 1.0 + 1e-9))
        assert r.acc_at[1.0] == 0.0
        assert r.acc_at[1.0 + 1e-9] == 1.0

    def test_acc_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.5, 5, size=50)
        p = t + rng.normal(size=50)
        thresholds = (0.1, 0.5, 1.0, 2.0)
        r = point_metrics(t, np.ones(50), p, thresholds)
        accs = [r.acc_at[thr] for thr in thresholds]
        assert accs == sorted(accs)

    def test_censored_rows_ignored(self):
        t = np.array([1.0, 2.0, 3.0])
        y = np.array([1, 0, 1])
        base = point_metrics(t, y, [1.5, 100.0, 2.5])
        moved = point_metrics(t, y, [1.5, -7.0, 2.5])
        assert base.to_dict() == moved.to_dict()

    def test_mdae_even_count_averages_middle(self):
        r = point_metrics([1.0, 1.0, 1.0, 1.0], [1] * 4, [1.1, 1.2, 1.4, 1.8])
        assert_allclose(r.mdae, 0.3, rtol=1e-12)

    def test_all_censored_rejected(self):
        with pytest.raises(ValueError):
            point_metrics([1.0, 2.0], [0, 0], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^truth and prediction lengths differ: "
                           "1 true times, 2 event flags, 3 predictions$"):
            point_metrics([1.0], [1, 1], [1.0, 2.0, 3.0])


class TestMedian:
    """``_median`` is ``np.median`` bit for bit, without ``numpy.ma``."""

    @pytest.mark.parametrize("values", [
        [2.5], [3.0, 1.0], [0.1, 0.7, 0.2], [0.3, 0.1, 0.4, 0.2],
        [np.inf, 1.0, 2.0], [1.0, np.inf], [np.inf, 3.0, np.inf, 2.0],
        [np.nan], [1.0, np.nan, 2.0], [np.nan, 4.0, 1.0, 3.0], [np.inf, np.nan],
    ])
    def test_equals_np_median(self, values):
        values = np.asarray(values)
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()

    def test_random_lengths(self):
        rng = np.random.default_rng(11)
        for n in range(1, 40):
            values = np.abs(rng.normal(size=n)) * rng.choice([1e-3, 1.0, 1e3], size=n)
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


class TestConcordance:
    def test_perfect_ranking(self):
        t = [1.0, 2.0, 3.0, 4.0]
        assert concordance_index(t, [1, 1, 1, 0], [10.0, 20.0, 30.0, 40.0]) == 1.0

    def test_reversed_ranking(self):
        t = [1.0, 2.0, 3.0]
        assert concordance_index(t, [1, 1, 1], [3.0, 2.0, 1.0]) == 0.0

    def test_prediction_ties_get_half_credit(self):
        assert concordance_index([1.0, 2.0], [1, 1], [3.0, 3.0]) == 0.5

    def test_self_concordance(self):
        t = np.array([0.3, 1.0, 2.0, 5.0])
        assert concordance_index(t, [1, 1, 1, 1], t) == 1.0

    def test_censored_only_later_element(self):
        # censored at 1.0 precedes the observed 2.0 but cannot anchor a pair
        t = [1.0, 2.0]
        y = [0, 1]
        # only comparable pair is (observed 2.0, nothing after) -> none from i=1;
        # i=0 is censored, so the lone ordered pair is dropped
        with pytest.raises(ValueError):
            concordance_index(t, y, [1.0, 2.0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            t = rng.uniform(0.1, 5.0, size=n)
            y = (rng.uniform(size=n) > 0.4).astype(int)
            p = rng.uniform(0.1, 5.0, size=n)
            if rng.uniform() < 0.3:
                p = np.round(p)  # force prediction ties
            if not y.any() or not np.any(t[y == 1, None] < t[None, :]):
                continue
            assert concordance_index(t, y, p) == ci_oracle(t, y, p)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(33)
        t = rng.uniform(0.1, 5.0, size=40)
        y = (rng.uniform(size=40) > 0.3).astype(int)
        y[0] = 1
        p = rng.uniform(0.1, 5.0, size=40)
        a = concordance_index(t, y, p)
        assert concordance_index(t, y, np.exp(p)) == a
        assert concordance_index(t, y, 3.0 * p + 1.0) == a

    def test_no_comparable_pairs_rejected(self):
        with pytest.raises(ValueError):
            concordance_index([2.0, 2.0], [1, 1], [1.0, 2.0])

    def test_no_comparable_pairs_rejected_large(self):
        p = np.random.default_rng(500).uniform(size=500)
        with pytest.raises(ValueError):
            concordance_index(np.full(500, 2.0), np.ones(500), p)

    @pytest.mark.parametrize("where", ["t_true", "t_pred"])
    def test_nan_rejected(self, where):
        t = np.array([1.0, 2.0, 3.0])
        p = np.array([1.0, 2.0, 3.0])
        (t if where == "t_true" else p)[1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            concordance_index(t, [1, 1, 1], p)


class TestConcordanceTies:
    """Exact equality with the row loop on tied times and predictions."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [3, 40, 600, 3000])
    def test_integer_times_rounded_predictions(self, seed, n):
        rng = np.random.default_rng(1000 * seed + n)
        t = rng.integers(1, 7, size=n).astype(float)  # integer years, as in dblp-years
        y = (rng.uniform(size=n) < 0.2).astype(int)
        y[0], t[0], t[-1] = 1, 1.0, 7.0  # at least one comparable pair
        p = np.round(rng.normal(3.0, 1.0, size=n), 1)
        assert concordance_index(t, y, p) == ci_row_loop(t, y, p)

    def test_signed_zeros_and_infinities(self):
        rng = np.random.default_rng(7)
        t = rng.integers(0, 4, size=200).astype(float)
        y = (rng.uniform(size=200) < 0.5).astype(int)
        y[t.argmin()] = 1
        p = rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=200)
        got = concordance_index(t, y, p)
        assert got == ci_row_loop(t, y, p) == ci_oracle(t, y, p)
        assert concordance_index(t, y, np.where(p == 0, 0.0, p)) == got

    def test_observed_row_at_latest_time(self):
        t = np.array([1.0, 2.0, 2.0, 3.0, 3.0])
        y = np.array([1, 0, 1, 1, 1])  # the rows at t = 3 have no later row
        p = np.array([2.0, 1.0, 1.0, 5.0, 0.5])
        assert concordance_index(t, y, p) == ci_row_loop(t, y, p) == ci_oracle(t, y, p)

    def test_untied_large(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(0.1, 5.0, size=2500)
        y = (rng.uniform(size=2500) < 0.5).astype(int)
        p = t + rng.normal(size=2500)
        assert concordance_index(t, y, p) == ci_row_loop(t, y, p)


class TestEvaluateAndReport:
    def test_evaluate_attaches_ci(self):
        t = [1.0, 2.0, 3.0]
        r = evaluate(t, [1, 1, 0], [1.0, 2.5, 9.0], thresholds=(1.0,))
        assert r.ci == 1.0
        assert r.mae == 0.25

    def test_json_round_trip(self):
        r = evaluate([1.0, 2.0], [1, 1], [1.5, 2.0], thresholds=(0.75,))
        doc = json.loads(r.to_json())
        assert doc["mae"] == 0.25
        assert doc["acc_at"]["0.75"] == 1.0
        assert "ci" in doc

    def test_ci_omitted_when_unset(self):
        r = point_metrics([1.0], [1], [2.0])
        assert "ci" not in r.to_dict()

    def test_flat_row_alignment(self):
        r = evaluate([1.0, 2.0], [1, 1], [1.5, 2.0], thresholds=(1.0, 0.1))
        header, values = r.flat_row()
        assert header == ["mae", "mre", "rmse", "msle", "mdae",
                          "acc@0.1", "acc@1", "ci"]
        assert len(header) == len(values)
        assert values[header.index("acc@1")] == 1.0

    def test_flat_row_without_ci(self):
        header, values = point_metrics([1.0], [1], [1.0]).flat_row()
        assert "ci" not in header
        assert len(header) == len(values) == 5
