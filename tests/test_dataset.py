import gc
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hazardnet.datasets import (
    Dataset,
    DatasetError,
    Standardization,
    WindowConfig,
    aggregate_expsmooth,
    aggregate_stack,
    build_dataset,
    candidate_pairs,
    label_pairs,
    load_dataset,
    save_dataset,
    subsample_censored,
)
from hazardnet.graph import LinkType, Schema, TemporalGraph
from hazardnet.metapaths import (
    PairSeries,
    PrefixCache,
    dynamic_series,
    parse_metapath,
    read_metapath_file,
)

from conftest import EXPECTED_ROWS, WINDOW


class TestWindowConfig:
    def test_valid(self):
        w = WindowConfig(t0=1.0, phi=4.0, omega=6.0, delta=2.0, k=2)
        assert w.feature_end == 5.0
        assert w.observation_end == 11.0
        plan = w.snapshot_plan()
        assert plan.t0 == 1.0 and plan.delta == 2.0 and plan.k == 2

    @pytest.mark.parametrize("kwargs", [
        dict(t0=0, phi=0.0, omega=1, delta=1, k=1),
        dict(t0=0, phi=1.0, omega=0.0, delta=1, k=1),
        dict(t0=0, phi=1.0, omega=1, delta=-1, k=1),
        dict(t0=0, phi=1.0, omega=1, delta=1, k=0),
        dict(t0=0, phi=4.0, omega=1, delta=1, k=3),  # k*delta != phi
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DatasetError):
            WindowConfig(**kwargs)


class TestStandardization:
    def test_fit_apply(self):
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        s = Standardization.fit(x)
        assert_allclose(s.mean, [2.0, 20.0])
        assert_allclose(s.std, [1.0, 10.0])
        assert_allclose(s.apply(x), [[-1, -1], [1, 1]])

    def test_constant_column_unscaled(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0]])
        s = Standardization.fit(x)
        assert s.std[0] == 1.0
        assert_allclose(s.apply(x)[:, 0], [0.0, 0.0])

    def test_dict_round_trip(self):
        s = Standardization.fit(np.array([[1.0, 2.0], [2.0, 5.0]]))
        r = Standardization.from_dict(s.to_dict())
        assert_array_equal(r.mean, s.mean)
        assert_array_equal(r.std, s.std)

    def test_identity(self):
        s = Standardization.identity(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert_array_equal(s.apply(x), x)


class TestDataset:
    def make(self, **over):
        kw = dict(
            x=np.ones((3, 2)),
            y=np.array([1, 0, 1]),
            t=np.array([1.0, 2.0, 3.0]),
            pairs=[(0, 1), (1, 2), (2, 3)],
        )
        kw.update(over)
        return Dataset(**kw)

    def test_properties(self):
        ds = self.make()
        assert ds.n == 3 and ds.d == 2 and ds.n_observed == 2

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            self.make(t=np.array([1.0, 2.0]))

    def test_bad_labels(self):
        with pytest.raises(DatasetError):
            self.make(y=np.array([1, 2, 0]))

    def test_nonpositive_times(self):
        with pytest.raises(DatasetError):
            self.make(t=np.array([0.0, 1.0, 2.0]))

    def test_raw_x_inverts_standardization(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(5, 2)) * 3 + 1
        stats = Standardization.fit(raw)
        ds = self.make(x=stats.apply(raw), y=np.array([1, 1, 0, 0, 1]),
                       t=np.arange(1.0, 6.0), pairs=[(i, i + 1) for i in range(5)],
                       standardization=stats)
        assert_allclose(ds.raw_x, raw, rtol=1e-12)

    def test_raw_x_passthrough(self):
        ds = self.make()
        assert ds.raw_x is ds.x


class TestBuildDataset:
    def test_sort_order(self):
        labels = [
            ((5, 0), 0, 2.0),
            ((1, 0), 1, 2.0),
            ((0, 0), 0, 1.0),
            ((2, 0), 1, 2.0),
        ]
        feats = {p: np.array([float(p[0])]) for p, _, _ in labels}
        ds = build_dataset(feats, labels, standardize=False)
        # t ascending, observed before censored on ties, then pair order
        assert ds.pairs == [(0, 0), (1, 0), (2, 0), (5, 0)]
        assert_array_equal(ds.y, [0, 1, 1, 0])
        assert_array_equal(ds.t, [1.0, 2.0, 2.0, 2.0])

    def test_missing_features_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset({}, [((0, 1), 1, 1.0)])

    def test_all_censored_rejected(self):
        feats = {(0, 1): np.zeros(2)}
        with pytest.raises(DatasetError):
            build_dataset(feats, [((0, 1), 0, 1.0)])

    def test_standardize_default(self):
        labels = [((0, 1), 1, 1.0), ((1, 2), 0, 2.0), ((2, 3), 1, 3.0)]
        feats = {(0, 1): np.array([1.0]), (1, 2): np.array([2.0]), (2, 3): np.array([3.0])}
        ds = build_dataset(feats, labels)
        assert ds.standardization is not None
        assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(ds.raw_x[:, 0], [1.0, 2.0, 3.0])

    def test_empty_labels_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset({}, [])


class TestFixturePipeline:
    def build(self, fixture_graph, fixture_dir, standardize=False):
        schema, graph = fixture_graph
        target_expr, exprs = read_metapath_file(fixture_dir / "paths.txt")
        target = parse_metapath(target_expr, schema)
        paths = [parse_metapath(e, schema) for e in exprs]
        window = WindowConfig(**WINDOW)
        cands = candidate_pairs(graph, paths, window)
        labels = label_pairs(graph, target, window, cands)
        series = dynamic_series(graph, paths, window.snapshot_plan(),
                                [p for p, _, _ in labels])
        feats = {s.pair: aggregate_stack(s) for s in series}
        return build_dataset(feats, labels, standardize=standardize), cands

    def test_matches_hand_computed(self, fixture_graph, fixture_dir):
        ds, cands = self.build(fixture_graph, fixture_dir)
        got = [(src, dst, int(y), float(t)) + tuple(map(float, row))
               for (src, dst), y, t, row in zip(ds.pairs, ds.y, ds.t, ds.x)]
        assert got == EXPECTED_ROWS

    def test_group1_pairs_dropped(self, fixture_graph, fixture_dir):
        ds, cands = self.build(fixture_graph, fixture_dir)
        # (a0, a1) co-author before the window end; diagonals self-relate
        assert (0, 1) in cands and (1, 0) in cands
        labeled = set(ds.pairs)
        assert (0, 1) not in labeled and (1, 0) not in labeled
        assert all(src != dst for src, dst in labeled)

    def test_candidates_require_nonzero_feature(self, fixture_graph, fixture_dir):
        ds, cands = self.build(fixture_graph, fixture_dir)
        assert (0, 2) not in cands  # no path instance links a0 to a2

    def test_empty_candidates_rejected(self, fixture_graph, fixture_dir):
        schema, graph = fixture_graph
        target = parse_metapath("write> <write", schema)
        with pytest.raises(DatasetError):
            label_pairs(graph, target, WindowConfig(**WINDOW), [])


class TestLabelPairsMemory:
    """``label_pairs`` keeps no count matrix per change point."""

    SCHEMA = Schema(("A", "P"), (LinkType("write", "A", "P"),))
    N_AUTHORS = 60

    def graph(self, n_change_points):
        """Co-authorship graph: 120 papers in the feature window [0, 4],
        then one paper at each of ``n_change_points`` distinct times in
        the observation window (4, 10]."""
        rng = np.random.default_rng(7)
        g = TemporalGraph(self.SCHEMA)
        for a in range(self.N_AUTHORS):  # fixes author indices 0..59
            g.add_link("write", f"a{a}", f"solo{a}", 0.5)
        births = np.concatenate([rng.integers(0, 4, 120).astype(float),
                                 4.0 + 6.0 * (np.arange(n_change_points) + 0.5)
                                 / n_change_points])
        for p, birth in enumerate(births):
            for a in rng.choice(self.N_AUTHORS, size=2, replace=False):
                g.add_link("write", f"a{a}", f"p{p}", birth)
        return g.freeze()

    def held_after_labeling(self, n_change_points):
        graph = self.graph(n_change_points)
        window = WindowConfig(t0=0.0, phi=4.0, omega=6.0, delta=2.0, k=2)
        births = graph.birth_times(["write"])
        assert np.sum(births > window.feature_end) == n_change_points
        target = parse_metapath("write> <write", self.SCHEMA)
        cands = [(a, b) for a in range(self.N_AUTHORS)
                 for b in range(self.N_AUTHORS) if a != b]
        cache = PrefixCache()  # passed as the benchmark harness does
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            labels = label_pairs(graph, target, window, cands, cache)
            assert any(y == 1 for _, y, _ in labels)
            del labels
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_held_memory_does_not_grow_with_change_points(self):
        few = self.held_after_labeling(10)
        many = self.held_after_labeling(300)
        # A memo of per-time products held about 16 kB per change point here.
        assert many - few < 64_000, (few, many)


class TestSubsample:
    def labels(self, n_obs, n_cen):
        obs = [((i, 0), 1, 1.0 + i) for i in range(n_obs)]
        cen = [((i, 1), 0, 9.0) for i in range(n_cen)]
        return obs + cen

    def test_ratio_math(self):
        rng = np.random.default_rng(0)
        out = subsample_censored(self.labels(10, 50), 0.5, rng)
        kept_cen = [r for r in out if r[1] == 0]
        assert len(kept_cen) == 10  # 0.5/(1-0.5) * 10
        assert len([r for r in out if r[1] == 1]) == 10

    def test_ratio_zero_drops_all_censored(self):
        out = subsample_censored(self.labels(4, 9), 0.0, np.random.default_rng(1))
        assert all(r[1] == 1 for r in out)

    def test_capped_by_availability(self):
        out = subsample_censored(self.labels(10, 3), 0.5, np.random.default_rng(2))
        assert len([r for r in out if r[1] == 0]) == 3

    def test_deterministic(self):
        a = subsample_censored(self.labels(5, 40), 0.3, np.random.default_rng(7))
        b = subsample_censored(self.labels(5, 40), 0.3, np.random.default_rng(7))
        assert a == b

    def test_bad_ratio(self):
        with pytest.raises(DatasetError):
            subsample_censored(self.labels(2, 2), 1.0, np.random.default_rng(0))


class TestAggregation:
    def series(self):
        return PairSeries(
            pair=(0, 1),
            series=np.array([[1, 0], [2, 3], [0, 1]]),
            base=np.array([4, 5]),
        )

    def test_stack_is_window_end_count(self):
        assert_array_equal(aggregate_stack(self.series()), [7.0, 9.0])

    def test_expsmooth_recurrence(self):
        ps = self.series()
        alpha = 0.25
        f = ps.series[0].astype(float)
        for row in ps.series[1:]:
            f = alpha * row + (1 - alpha) * f
        assert_allclose(aggregate_expsmooth(ps, alpha), f)

    def test_expsmooth_single_snapshot(self):
        ps = PairSeries((0, 1), np.array([[3, 7]]), np.array([0, 0]))
        assert_array_equal(aggregate_expsmooth(ps, 0.5), [3.0, 7.0])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_expsmooth_alpha_range(self, alpha):
        with pytest.raises(DatasetError):
            aggregate_expsmooth(self.series(), alpha)

    def test_stack_matches_final_snapshot(self, fixture_graph, fixture_dir):
        schema, graph = fixture_graph
        from hazardnet.metapaths import metapath_matrix
        _, exprs = read_metapath_file(fixture_dir / "paths.txt")
        paths = [parse_metapath(e, schema) for e in exprs]
        window = WindowConfig(**WINDOW)
        pairs = [(1, 2), (3, 0), (2, 3)]
        series = dynamic_series(graph, paths, window.snapshot_plan(), pairs)
        finals = [metapath_matrix(graph, p, window.feature_end) for p in paths]
        for s in series:
            want = [m.count(*s.pair) for m in finals]
            assert_array_equal(aggregate_stack(s), want)


class TestPersistence:
    def dataset(self, standardize):
        labels = [((0, 1), 1, 0.625), ((2, 3), 0, 4.75), ((1, 2), 1, 2.5)]
        feats = {(0, 1): np.array([1.0, -2.0]), (2, 3): np.array([0.5, 3.0]),
                 (1, 2): np.array([-1.5, 0.25])}
        return build_dataset(feats, labels, standardize=standardize)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_round_trip(self, tmp_path, standardize):
        ds = self.dataset(standardize)
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.pairs == ds.pairs
        assert_array_equal(back.y, ds.y)
        assert_array_equal(back.t, ds.t)  # repr round-trip is exact
        assert_array_equal(back.x, ds.x)
        if standardize:
            assert back.standardization is not None
            assert_array_equal(back.standardization.mean, ds.standardization.mean)
        else:
            assert back.standardization is None

    def test_sidecar_cleared_for_raw_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(path, self.dataset(True))
        side = tmp_path / "data.csv.standardization.json"
        assert side.exists()
        save_dataset(path, self.dataset(False))
        assert not side.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("src,dst,y,t,x_0\n0,1,1,1.0\n")
        with pytest.raises(DatasetError):
            load_dataset(path)
