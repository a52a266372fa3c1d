import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hazardnet.synthetic import (
    SynthConfig,
    SynthOutput,
    _draw_times,
    draw_dataset,
    generate,
    save_truth,
)


class TestDrawTimes:
    def test_rayleigh_identity(self):
        # S(t) = exp(-alpha t^2 / 2): u = e^-1, alpha = 2 inverts to t = 1
        t = _draw_times("rayleigh", np.array([2.0]), np.array([np.exp(-1.0)]))
        assert abs(t[0] - 1.0) < 1e-12

    def test_gompertz_identity(self):
        # S(t) = exp(-alpha (e^t - 1)): u = e^-1, alpha = 1 inverts to log 2
        t = _draw_times("gompertz", np.array([1.0]), np.array([np.exp(-1.0)]))
        assert abs(t[0] - np.log(2.0)) < 1e-12

    def test_small_u_gives_large_times(self):
        a = np.array([1.0])
        assert _draw_times("rayleigh", a, np.array([1e-8])) > \
            _draw_times("rayleigh", a, np.array([0.5]))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_observed=0, n_censored=1, d=1, dist="rayleigh"),
        dict(n_observed=1, n_censored=-1, d=1, dist="rayleigh"),
        dict(n_observed=1, n_censored=0, d=0, dist="rayleigh"),
        dict(n_observed=1, n_censored=0, d=1, dist="lognormal"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    def test_total(self):
        assert SynthConfig(3, 2, 1, "rayleigh").n == 5


class TestGenerate:
    def cfg(self, **over):
        kw = dict(n_observed=120, n_censored=60, d=4, dist="rayleigh", seed=5)
        kw.update(over)
        return SynthConfig(**kw)

    def test_shapes_and_counts(self):
        out = generate(self.cfg())
        ds = out.dataset
        assert ds.n == 180 and ds.d == 4
        assert ds.n_observed == 120
        assert out.true_w.shape == (4,)

    def test_sorted_positive_times(self):
        ds = generate(self.cfg()).dataset
        assert np.all(ds.t > 0)
        assert np.all(np.diff(ds.t) >= 0)

    def test_self_pairs(self):
        ds = generate(self.cfg(n_observed=5, n_censored=2)).dataset
        assert ds.pairs == [(i, i) for i in range(7)]

    def test_tail_policy_censors_largest(self):
        ds = generate(self.cfg()).dataset
        assert ds.t[ds.y == 0].min() >= ds.t[ds.y == 1].max()

    def test_random_policy_spreads_censoring(self):
        ds = generate(self.cfg(seed=9), policy="random").dataset
        assert int((ds.y == 0).sum()) == 60
        # with 60 of 180 censored at random, some must precede an observed time
        assert ds.t[ds.y == 0].min() < ds.t[ds.y == 1].max()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            generate(self.cfg(), policy="interval")

    def test_bit_for_bit_deterministic(self):
        a = generate(self.cfg())
        b = generate(self.cfg())
        assert_array_equal(a.dataset.x, b.dataset.x)
        assert_array_equal(a.dataset.t, b.dataset.t)
        assert_array_equal(a.dataset.y, b.dataset.y)
        assert_array_equal(a.true_w, b.true_w)
        assert a.true_b == b.true_b

    def test_random_stream_pinned(self):
        # golden values: changing the order of draws changes every dataset
        out = generate(SynthConfig(n_observed=3, n_censored=1, d=2,
                                   dist="gompertz", seed=4), policy="random")
        assert out.dataset.t.tolist() == [0.0036843704817416958, 0.036674427927765686,
                                          0.13338882884281797, 0.1498729558162434]
        assert out.dataset.y.tolist() == [1, 1, 1, 0]
        assert out.dataset.x[:, 0].tolist() == [0.2417718768768513, 0.14863152325202633,
                                                -0.005203264171931977, 0.659147749832255]

    def test_draw_from_fixed_truth_pinned(self):
        # the held-out split of a sweep cell: fresh seed, the cell's truth
        config = SynthConfig(n_observed=4, n_censored=0, d=2, dist="rayleigh", seed=9)
        ds = draw_dataset(np.random.default_rng(9), config, np.array([0.5, -1.0]), 0.25)
        assert ds.t.tolist() == [0.6361825684580993, 2.0996110104137578,
                                 2.384265436772464, 3.280358747101307]
        assert ds.y.tolist() == [1, 1, 1, 1]
        assert ds.x[:, 1].tolist() == [-0.45261100300789897, 0.25093256908418204,
                                       0.656104877556666, 0.2428499070790021]

    def test_seeds_differ(self):
        a = generate(self.cfg(seed=1))
        b = generate(self.cfg(seed=2))
        assert not np.array_equal(a.dataset.t, b.dataset.t)

    @pytest.mark.parametrize("dist", ["rayleigh", "gompertz"])
    def test_probability_integral_transform_uniform(self, dist):
        kstest = pytest.importorskip("scipy.stats").kstest
        # mapping each drawn time through its own conditional CDF must give
        # u ~ Uniform(0, 1); checks the inverse transform end to end
        out = generate(SynthConfig(n_observed=100000, n_censored=0, d=3,
                                   dist=dist, seed=13))
        ds = out.dataset
        alpha = np.exp(ds.x @ out.true_w + out.true_b)
        if dist == "rayleigh":
            pit = 1.0 - np.exp(-alpha * ds.t ** 2 / 2.0)
        else:
            pit = 1.0 - np.exp(-alpha * np.expm1(ds.t))
        stat = kstest(pit, "uniform").statistic
        assert stat < 0.01


class TestTruthPersistence:
    def test_round_trip(self, tmp_path):
        cfg = SynthConfig(n_observed=10, n_censored=5, d=2, dist="gompertz", seed=3)
        out = generate(cfg)
        path = tmp_path / "truth.json"
        save_truth(path, out, cfg)
        doc = json.loads(path.read_text())
        assert_array_equal(doc["w"], out.true_w)
        assert doc["b"] == out.true_b
        assert doc["dist"] == "gompertz" and doc["seed"] == 3

    def test_plain_json_on_disk(self, tmp_path):
        cfg = SynthConfig(n_observed=2, n_censored=0, d=1, dist="rayleigh")
        path = tmp_path / "truth.json"
        save_truth(path, generate(cfg), cfg)
        doc = json.loads(path.read_text())
        assert set(doc) == {"w", "b", "dist", "seed"}
