import gc
import re
import tracemalloc
from itertools import compress

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from hazardnet.datasets import (
    Dataset,
    DatasetError,
    PairSeries,
    PrefixCache,
    WindowConfig,
    aggregate_expsmooth,
    aggregate_stack,
    build_dataset,
    candidate_pairs,
    dynamic_series,
    label_pairs,
    load_dataset,
    save_dataset,
)
from hazardnet.graph import LinkType, Schema, TemporalGraph
from hazardnet.metapaths import (
    MetaPathError,
    metapath_counts,
    parse_metapath,
    read_metapath_file,
)
from hazardnet.npglm import HazardModel, _fit_features

from brute_force import SCHEMA
from conftest import EXPECTED_ROWS, WINDOW, dense


class TestWindowConfig:
    def test_valid(self):
        w = WindowConfig(t0=1.0, phi=4.0, omega=6.0, delta=2.0, k=2)
        assert w.feature_end == 5.0
        assert w.observation_end == 11.0
        assert_array_equal(w.snapshot_plan(), [1.0, 3.0, 5.0])
        w = WindowConfig(t0=0.5, phi=2.0, omega=1.0, delta=0.5, k=4)
        assert_array_equal(w.snapshot_plan(), [0.5, 1.0, 1.5, 2.0, 2.5])

    def test_last_snapshot_is_the_feature_end(self):
        # 3 * 0.1 is 0.30000000000000004, within the tolerance of phi = 0.3;
        # a link born at 0.3 counts at that time but not at the feature end
        w = WindowConfig(t0=0, phi=0.3, omega=1, delta=0.1, k=3)
        assert_array_equal(w.snapshot_plan(), [0.0, 0.1, 0.2, 0.3])
        g = TemporalGraph(Schema(("A", "P"), (LinkType("write", "A", "P"),)))
        for a, p, birth in (("a0", "p0", 0.1), ("a1", "p0", 0.1), ("a0", "p1", 0.3),
                            ("a1", "p1", 0.3), ("a0", "p2", 0.5)):
            g.add_link("write", a, p, birth)
        g = g.freeze()
        path = parse_metapath("write> <write", g.schema)
        (series,) = dynamic_series(g, [path], w.snapshot_plan(), [(0, 1)])
        end = dense(metapath_counts(g, path, w.feature_end))[0, 1]
        assert series.counts[-1].tolist() == [end] == [1]

    INVALID = [
        (dict(t0=0, phi=0.0, omega=1, delta=1, k=1), "phi must be positive, got 0.0"),
        (dict(t0=0, phi=1.0, omega=0.0, delta=1, k=1), "omega must be positive, got 0.0"),
        (dict(t0=0, phi=1.0, omega=1, delta=-1, k=1), "delta must be positive, got -1"),
        (dict(t0=0, phi=1.0, omega=1, delta=1, k=0), "k must be a whole number >= 1, got 0"),
        (dict(t0=0, phi=4.0, omega=1, delta=1, k=3),
         "k * delta = 3 does not equal phi = 4.0"),
        # the CLI passes phi = k * delta: the field at fault is named, not phi
        (dict(t0=0, phi=0, omega=1, delta=1, k=0), "k must be a whole number >= 1, got 0"),
        (dict(t0=0, phi=0.0, omega=1, delta=0.0, k=2), "delta must be positive, got 0.0"),
        (dict(t0=0, phi=-2.0, omega=1, delta=-1.0, k=2), "delta must be positive, got -1.0"),
        # not four snapshots [0, 2, 4, 5]
        (dict(t0=0, phi=5, omega=1, delta=2, k=2.5), "k must be a whole number >= 1, got 2.5"),
    ]

    @pytest.mark.parametrize("kwargs, message", INVALID,
                             ids=[f"kwargs{i}" for i in range(len(INVALID))])
    def test_invalid(self, kwargs, message):
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            WindowConfig(**kwargs)

    @pytest.mark.parametrize("field, kwargs", [
        ("t0", dict(t0=np.nan, phi=1.0, omega=1, delta=1, k=1)),
        ("t0", dict(t0=-np.inf, phi=1.0, omega=1, delta=1, k=1)),
        ("phi", dict(t0=0, phi=np.inf, omega=1, delta=1, k=1)),
        ("delta", dict(t0=0, phi=np.inf, omega=1, delta=np.inf, k=1)),
        ("omega", dict(t0=0, phi=1.0, omega=np.inf, delta=1, k=1)),
    ])
    def test_non_finite_field_named(self, field, kwargs):
        with pytest.raises(DatasetError, match=rf"^{field} must be finite, got "):
            WindowConfig(**kwargs)


class TestStandardization:
    """The fits standardize a dataset's features with ``_fit_features``;
    the model keeps the column mean and std and applies them to raw rows."""

    @staticmethod
    def dataset(x):
        n = len(x)
        return Dataset(x=x, y=np.ones(n), t=np.arange(1.0, n + 1),
                       pairs=[(i, i) for i in range(n)])

    def test_fit_apply(self):
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        z, mean, std = _fit_features(self.dataset(x))
        assert_allclose(mean, [2.0, 20.0])
        assert_allclose(std, [1.0, 10.0])
        assert_allclose(z, [[-1, -1], [1, 1]])
        model = HazardModel(w=[0.5, -0.25, 0.0], mean=mean, std=std, family="exponential")
        assert_allclose(model.score(x), z @ [0.5, -0.25])

    def test_constant_column_unscaled(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0]])
        z, _, std = _fit_features(self.dataset(x))
        assert std[0] == 1.0
        assert_allclose(z[:, 0], [0.0, 0.0])

    def test_dict_round_trip(self):
        _, mean, std = _fit_features(self.dataset(np.array([[1.0, 2.0], [2.0, 5.0]])))
        model = HazardModel(w=[0.5, -0.25, 0.125], mean=mean, std=std, family="exponential")
        doc = model.to_json()
        assert doc["standardization"] == {"mean": mean.tolist(), "std": std.tolist()}
        back = HazardModel.from_json(doc)
        assert_array_equal(back.mean, mean)
        assert_array_equal(back.std, std)

    def test_identity(self):
        model = HazardModel(w=[0.5, -0.25, 1.0, 0.125], mean=np.zeros(3), std=np.ones(3),
                            family="exponential")
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert_array_equal(model.score(x), np.dot(x, [0.5, -0.25, 1.0]) + 0.125)


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

    def faults(self, tmp_path, **over):
        """The DatasetError from make(**over), and the part after the line
        number of load_dataset's error on the same rows written as a CSV."""
        with pytest.raises(DatasetError) as built:
            self.make(**over)
        kw = dict(vars(self.make()), **over)
        path = tmp_path / "rows.csv"
        path.write_text("src,dst,y,t,x_0,x_1\n" + "".join(
            f"{a},{b},{y},{t!r},{x0!r},{x1!r}\n" for (a, b), y, t, (x0, x1)
            in zip(kw["pairs"], *(np.asarray(kw[k]).tolist() for k in "ytx"))))
        with pytest.raises(DatasetError) as loaded:
            load_dataset(path)
        return str(built.value), str(loaded.value).split(", ", 1)[1]

    def test_bad_labels(self, tmp_path):
        built, loaded = self.faults(tmp_path, y=np.array([1, 2, 0]))
        assert built == "row 1, " + loaded == "row 1, column y: 2 is not 0 or 1"
        # a CSV stops 1.5 at parsing ("'1.5' is not a 64-bit integer"); in
        # code it breaks the same rule as 2 rather than being cast to 1
        built, _ = self.faults(tmp_path, y=np.array([1.5, 0, 1]))
        assert built == "row 0, column y: 1.5 is not 0 or 1"

    def test_nonpositive_times(self, tmp_path):
        for i, value in enumerate([0.0, -1.0, np.inf, np.nan]):
            t = np.array([1.0, 2.0, 3.0])
            t[i % 3] = value
            built, loaded = self.faults(tmp_path, t=t)
            assert built == f"row {i % 3}, " + loaded
            assert loaded == f"column t: {value!r} is not a positive finite time"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature(self, tmp_path, value):
        x = np.ones((3, 2))
        x[2, 1] = value
        built, loaded = self.faults(tmp_path, x=x)
        assert built == "row 2, " + loaded == f"row 2, column x_1: {value!r} is not finite"

    def test_one_dimensional_x(self):
        with pytest.raises(DatasetError, match=r"x must be 2-D .* got shape \(3,\)"):
            self.make(x=np.ones(3))

    def test_accepts_bool_and_whole_float_labels(self):
        for y in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0])):
            ds = self.make(y=y)
            assert ds.y.dtype == np.int64 and ds.y.tolist() == [1, 0, 1]
        assert self.make(x=np.zeros((3, 0))).d == 0

    def test_raw_x_passthrough(self):
        ds = self.make()
        assert ds.raw_x is ds.x


class TestBuildDataset:
    def test_sort_order(self):
        labels = [
            ((5, 0), 0, 2.0),
            ((1, 5), 1, 2.0),
            ((1, 0), 1, 2.0),
            ((0, 0), 0, 1.0),
            ((2, 0), 1, 2.0),
        ]
        feats = {p: np.array([float(p[0])]) for p, _, _ in labels}
        ds = build_dataset(feats, labels)
        # t ascending, observed before censored on ties, then pair order
        assert ds.pairs == [(0, 0), (1, 0), (1, 5), (2, 0), (5, 0)]
        assert_array_equal(ds.y, [0, 1, 1, 1, 0])
        assert_array_equal(ds.t, [1.0, 2.0, 2.0, 2.0, 2.0])

    def test_missing_features_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset({}, [((0, 1), 1, 1.0)])

    def test_all_censored_rejected(self):
        feats = {(0, 1): np.zeros(2)}
        with pytest.raises(DatasetError):
            build_dataset(feats, [((0, 1), 0, 1.0)])

    def test_empty_labels_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset({}, [])


class TestFixturePipeline:
    def build(self, fixture_graph, fixture_dir):
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
        return build_dataset(feats, labels), cands

    def test_matches_hand_computed(self, fixture_graph, fixture_dir):
        ds, cands = self.build(fixture_graph, fixture_dir)
        got = [(src, dst, int(y), float(t)) + tuple(map(float, row))
               for (src, dst), y, t, row in zip(ds.pairs, ds.y, ds.t, ds.x)]
        assert got == EXPECTED_ROWS

    def test_labels_are_python_scalars(self, fixture_graph, fixture_dir):
        schema, graph = fixture_graph
        target_expr, exprs = read_metapath_file(fixture_dir / "paths.txt")
        window = WindowConfig(**WINDOW)
        cands = candidate_pairs(graph, [parse_metapath(e, schema) for e in exprs], window)
        labels = label_pairs(graph, parse_metapath(target_expr, schema), window, cands)
        assert {type(y) for _, y, _ in labels} == {int}
        assert {type(t) for _, _, t in labels} == {float}
        assert all(type(p) is tuple for p, _, _ in labels)

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


AUTHOR_PATHS = ("write> <write", "write> cite> <write", "write> <cite <write",
                "write> <publish publish> <write", "write> cite> cite> <write")


def random_graph(rng):
    """Small random graph with parallel links and link deaths."""
    sizes = {"A": int(rng.integers(2, 9)), "P": int(rng.integers(2, 9)),
             "V": int(rng.integers(1, 4))}
    g = TemporalGraph(SCHEMA)
    for lt in SCHEMA.link_types:
        for _ in range(int(rng.integers(0, 16))):
            src = f"{lt.src}{rng.integers(sizes[lt.src])}"
            dst = f"{lt.dst}{rng.integers(sizes[lt.dst])}"
            birth = float(rng.uniform(0, 10))
            death = birth + float(rng.uniform(0.1, 5)) if rng.uniform() < 0.3 else None
            for _ in range(int(rng.choice([1, 1, 2, 3]))):  # parallel copies
                g.add_link(lt.name, src, dst, birth, death)
    for node_type, n in sizes.items():
        for i in range(n):
            g.node_index(node_type, f"{node_type}{i}")
    return g.freeze()


class TestCandidatePairs:
    def test_equals_set_union_of_nonzeros(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            g = random_graph(rng)
            exprs = rng.choice(AUTHOR_PATHS, size=int(rng.integers(1, 4)), replace=False)
            paths = [parse_metapath(e, SCHEMA) for e in exprs]
            window = WindowConfig(t0=float(rng.uniform(0, 4)), phi=4.0, omega=2.0,
                                  delta=2.0, k=2)
            seen = set()
            for path in paths:
                rows, cols = dense(metapath_counts(g, path, window.feature_end)).nonzero()
                seen.update(zip(rows.tolist(), cols.tolist()))
            got = candidate_pairs(g, paths, window)
            assert got == sorted(seen)
            assert all(type(a) is int and type(b) is int for a, b in got)

    def test_mixed_endpoint_types_rejected(self):
        g = random_graph(np.random.default_rng(0))
        paths = [parse_metapath("write> <write", SCHEMA),
                 parse_metapath("write> cite>", SCHEMA)]
        with pytest.raises(MetaPathError, match="A->A and A->P"):
            candidate_pairs(g, paths, WindowConfig(t0=0.0, phi=4.0, omega=2.0,
                                                   delta=2.0, k=2))

    def test_no_paths_rejected_like_dynamic_series(self):
        g = random_graph(np.random.default_rng(0))
        window = WindowConfig(t0=0.0, phi=4.0, omega=2.0, delta=2.0, k=2)
        with pytest.raises(MetaPathError, match="at least one meta-path is required"):
            candidate_pairs(g, [], window)
        with pytest.raises(MetaPathError, match="at least one meta-path is required"):
            dynamic_series(g, [], window.snapshot_plan(), [(0, 0)])


def change_points(graph, target, window):
    """The feature-window end and the target's link births in the
    observation window, each with its tau, the instant after it."""
    t_end = window.feature_end
    births = graph.birth_times(sorted({name for name, _ in target.steps}))
    points = np.append(t_end, births[(births > t_end) & (births <= window.observation_end)])
    return points, np.nextafter(points, np.inf)


def label_pairs_oracle(graph, target, window, candidates):
    """``label_pairs`` by brute force: the full target count matrix at every
    change point's snapshot, sampled at every candidate."""
    rows = np.asarray([p[0] for p in candidates], dtype=np.int64)
    cols = np.asarray([p[1] for p in candidates], dtype=np.int64)
    t_end = window.feature_end
    points, taus = change_points(graph, target, window)
    related0 = dense(metapath_counts(graph, target, float(taus[0])))[rows, cols] > 0
    formed = related0.copy()
    first_time = np.full(len(candidates), np.nan)
    for b, tau in zip(points[1:], taus[1:]):
        counts = dense(metapath_counts(graph, target, float(tau)))[rows, cols]
        newly = (~formed) & (counts > 0)
        first_time[newly] = b
        formed |= newly
    keep = ~related0
    observed = np.isfinite(first_time[keep])
    y = observed.astype(np.int64).tolist()
    t = np.where(observed, first_time[keep] - t_end, float(window.omega)).tolist()
    return list(zip(map(tuple, compress(candidates, keep.tolist())), y, t))


def dying_graph(rng):
    """Random graph on a half-unit birth grid where many links die 0.1 after
    a grid point: after a change point born there, before the next birth."""
    sizes = {"A": int(rng.integers(2, 8)), "P": int(rng.integers(2, 8)),
             "V": int(rng.integers(1, 3))}
    g = TemporalGraph(SCHEMA)
    for lt in SCHEMA.link_types:
        for _ in range(int(rng.integers(0, 20))):
            src = f"{lt.src}{rng.integers(sizes[lt.src])}"
            dst = f"{lt.dst}{rng.integers(sizes[lt.dst])}"
            birth = 0.5 * float(rng.integers(0, 20))
            death = (birth + 0.5 * float(rng.integers(0, 6)) + 0.1
                     if rng.uniform() < 0.5 else None)
            for _ in range(int(rng.choice([1, 1, 2]))):
                g.add_link(lt.name, src, dst, birth, death)
    for node_type, n in sizes.items():
        for i in range(n):
            g.node_index(node_type, f"{node_type}{i}")
    return g.freeze()


def deaths_before_next_birth(graph, target, window):
    """Links of the target's types that die after a change point, the
    feature-window end included, and before the next birth of those types:
    an instance they end is alive only just after the change point."""
    step_types = sorted({name for name, _ in target.steps})
    points, _ = change_points(graph, target, window)
    births = graph.birth_times(step_types)
    later = np.append(births, np.inf)[np.searchsorted(births, points, side="right")]
    deaths = np.concatenate([graph.links_of(name).death for name in step_types])
    return int(sum(((deaths > b) & (deaths < nxt)).sum()
                   for b, nxt in zip(points, later) if np.isfinite(nxt)))


def random_window(rng):
    """A window of k = 1 or 2 snapshots, starting in [0, 5)."""
    k = int(rng.integers(1, 3))
    delta = float(rng.choice([0.5, 1.0, 2.0]))
    return WindowConfig(t0=float(rng.uniform(0, 5)), phi=k * delta,
                        omega=float(rng.uniform(0.5, 6)), delta=delta, k=k)


class TestLabelPairsMatchesOracle:
    """``label_pairs`` walks only from the links born at each change point;
    it must give exactly the labels of the full product at every one."""

    def cases(self, seed, n):
        rng = np.random.default_rng(seed)
        for i in range(n):
            g = random_graph(rng) if i % 2 else dying_graph(rng)
            target = parse_metapath(AUTHOR_PATHS[i % len(AUTHOR_PATHS)], SCHEMA)
            window = random_window(rng)
            n_a = g.node_count("A")
            cands = [(a, b) for a in range(n_a) for b in range(n_a)]
            cands += [cands[j] for j in rng.integers(len(cands), size=len(cands) // 3)]
            cands = [cands[j] for j in rng.permutation(len(cands))]
            yield g, target, window, cands

    def test_random_graphs_equal_oracle(self):
        targets, observed, dying = set(), 0, 0
        for g, target, window, cands in self.cases(41, 250):
            want = label_pairs_oracle(g, target, window, cands)
            assert label_pairs(g, target, window, cands) == want, (target.expr, window)
            targets.add(target.expr)
            observed += sum(y for _, y, _ in want)
            dying += deaths_before_next_birth(g, target, window)
        assert targets == set(AUTHOR_PATHS)
        assert observed > 500 and dying > 100, (observed, dying)

    def test_sorted_distinct_candidates_equal_oracle(self):
        for g, target, window, cands in self.cases(43, 60):
            cands = sorted(set(cands))
            assert label_pairs(g, target, window, cands) == \
                label_pairs_oracle(g, target, window, cands)


def with_coauthorship(graph, birth):
    """A copy of ``graph`` (node ids are the indices) plus one paper written
    at ``birth`` by two new authors."""
    g = TemporalGraph(SCHEMA)
    for node_type in SCHEMA.node_types:
        for i in range(graph.node_count(node_type)):
            g.node_index(node_type, str(i))
    for lt in SCHEMA.link_types:
        store = graph.links_of(lt.name)
        for src, dst, b, d in zip(store.src, store.dst, store.birth, store.death):
            g.add_link(lt.name, str(src), str(dst), b, d if np.isfinite(d) else None)
    g.add_link("write", "new author 0", "new paper", birth)
    g.add_link("write", "new author 1", "new paper", birth)
    return g.freeze()


class TestLabelInstant:
    """A pair is labeled at the first change point after which one of its
    target instances is alive; links of other pairs never matter."""

    @pytest.mark.parametrize("unrelated_birth", [12.2, 18.0])
    def test_unrelated_birth_leaves_label(self, unrelated_birth):
        # a0 and a1 co-author p0 at 12.0, and a0's link dies at 12.5
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 12.0, 12.5)
        g.add_link("write", "a1", "p0", 12.0)
        g.add_link("write", "a2", "p1", unrelated_birth)
        g.add_link("write", "a3", "p1", unrelated_birth)
        window = WindowConfig(t0=0.0, phi=10.0, omega=10.0, delta=5.0, k=2)
        path = parse_metapath("write> <write", SCHEMA)
        assert label_pairs(g.freeze(), path, window, [(0, 1)]) == [((0, 1), 1, 2.0)]

    def test_new_coauthorship_leaves_every_label(self):
        rng = np.random.default_rng(5)
        for i in range(300):
            g = dying_graph(rng)
            target = parse_metapath(AUTHOR_PATHS[i % len(AUTHOR_PATHS)], SCHEMA)
            window = random_window(rng)
            birth = float(rng.uniform(window.feature_end, window.observation_end))
            n_a = g.node_count("A")
            cands = [(a, b) for a in range(n_a) for b in range(n_a)]
            assert label_pairs(with_coauthorship(g, birth), target, window, cands) == \
                label_pairs(g, target, window, cands), (i, target.expr, window, birth)


class TestPairRange:
    """Candidate pairs outside the node index range are rejected, not wrapped."""

    @pytest.fixture
    def graph(self):
        g = TemporalGraph(Schema(("A", "P"), (LinkType("write", "A", "P"),)))
        for a, p, birth in (("a0", "p0", 1.0), ("a1", "p0", 1.0), ("a2", "p1", 5.0),
                            ("a0", "p1", 5.0)):
            g.add_link("write", a, p, birth)
        return g.freeze()

    def args(self, graph):
        target = parse_metapath("write> <write", graph.schema)
        return target, WindowConfig(t0=0.0, phi=4.0, omega=6.0, delta=2.0, k=2)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_label_pairs_names_pair(self, graph, pair):
        target, window = self.args(graph)
        with pytest.raises(DatasetError, match=re.escape(f"pair {pair} lies outside "
                                                         "the 3 x 3 node index range")):
            label_pairs(graph, target, window, [(2, 0), pair])

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 3)])
    def test_dynamic_series_names_pair(self, graph, pair):
        target, window = self.args(graph)
        with pytest.raises(DatasetError, match=re.escape(f"pair {pair}")):
            dynamic_series(graph, [target], window.snapshot_plan(), [(0, 1), pair])

    @pytest.mark.parametrize("times", [[], [np.nan, 1.0]])
    def test_dynamic_series_rejects_degenerate_times(self, graph, times):
        target, _ = self.args(graph)
        with pytest.raises(DatasetError, match=re.escape(f"finite times, got {times}")):
            dynamic_series(graph, [target], times, [(0, 1)])


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


class TestAggregation:
    def series(self):
        # counts at the k + 1 = 4 boundaries; increments [1, 0], [2, 3], [0, 1]
        return PairSeries(pair=(0, 1), counts=np.array([[4, 5], [5, 5], [7, 8], [7, 9]]))

    def test_stack_is_window_end_count(self):
        assert_array_equal(aggregate_stack(self.series()), [7.0, 9.0])

    def test_expsmooth_recurrence(self):
        alpha = 0.25
        f = np.array([1.0, 0.0])
        for row in ([2.0, 3.0], [0.0, 1.0]):
            f = alpha * np.array(row) + (1 - alpha) * f
        assert_array_equal(aggregate_expsmooth(self.series(), alpha), f)

    def test_expsmooth_single_snapshot(self):
        ps = PairSeries((0, 1), np.array([[2, 0], [5, 7]]))
        assert_array_equal(aggregate_expsmooth(ps, 0.5), [3.0, 7.0])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_expsmooth_alpha_range(self, alpha):
        with pytest.raises(DatasetError):
            aggregate_expsmooth(self.series(), alpha)

    def test_expsmooth_one_row_names_row_count(self):
        ps = PairSeries((0, 1), np.array([[2, 0]]))
        with pytest.raises(DatasetError, match="at least 2 snapshot rows, got 1"):
            aggregate_expsmooth(ps, 0.5)

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_expsmooth_bitwise_equals_whole_array_ewma(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        counts = rng.integers(0, 50, size=(60, k + 1, d))
        big = rng.random(counts.shape) < 0.3  # above 2**53: float(count) rounds
        counts[big] = rng.integers(2**53, 2**62, size=int(big.sum()))
        x = np.diff(counts, axis=1).astype(float)  # int64 differences, no overflow here
        for alpha in (0.1, 1 / 3, 0.5, 0.77, 0.999):
            want = x[:, 0]
            for i in range(1, k):
                want = alpha * x[:, i] + (1 - alpha) * want
            for c, w in zip(counts, want):
                got = aggregate_expsmooth(PairSeries((0, 1), c), alpha)
                assert got.dtype == np.float64 and got.shape == (d,)
                assert_array_equal(got.view(np.uint64), w.view(np.uint64))

    def test_stack_matches_final_snapshot(self, fixture_graph, fixture_dir):
        schema, graph = fixture_graph
        _, exprs = read_metapath_file(fixture_dir / "paths.txt")
        paths = [parse_metapath(e, schema) for e in exprs]
        window = WindowConfig(**WINDOW)
        pairs = [(1, 2), (3, 0), (2, 3)]
        times = window.snapshot_plan()
        series = dynamic_series(graph, paths, times, pairs)
        for i, tau in enumerate(times):
            mats = [dense(metapath_counts(graph, p, float(tau))) for p in paths]
            for s in series:
                assert s.counts[i].tolist() == [int(m[s.pair]) for m in mats]
        finals = [dense(metapath_counts(graph, p, window.feature_end)) for p in paths]
        for s in series:
            want = [m[s.pair] for m in finals]
            assert_array_equal(aggregate_stack(s), want)


class TestPersistence:
    # standardize=False is the benchmark worker's call; the keyword is ignored
    @pytest.mark.parametrize("standardize", [False])
    def test_round_trip(self, tmp_path, standardize):
        labels = [((0, 1), 1, 0.625), ((2, 3), 0, 4.75), ((1, 2), 1, 2.5)]
        feats = {(0, 1): np.array([1.0, -2.0]), (2, 3): np.array([0.5, 3.0]),
                 (1, 2): np.array([-1.5, 0.25])}
        ds = build_dataset(feats, labels, standardize=standardize)
        assert_array_equal(ds.x, [feats[p] for p in ds.pairs])  # raw features
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.pairs == ds.pairs
        assert_array_equal(back.y, ds.y)
        assert_array_equal(back.t, ds.t)  # repr round-trip is exact
        assert_array_equal(back.x, ds.x)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

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

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2500  # spans several save chunks
        labels = [((int(i), int(i) + 1), int(i % 3 == 0), float(rng.uniform(0.1, 9.0)))
                  for i in range(n)]
        feats = {p: rng.normal(size=3) for p, _, _ in labels}
        feats[labels[7][0]][:] = [-0.0, 1e300, 5e-324]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(first, build_dataset(feats, labels))
        save_dataset(second, load_dataset(first))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().count(b"\r\n") == n + 1

    def test_saved_bytes(self, tmp_path):
        ds = Dataset(x=[[-0.0, 0.1], [1e16, 5e-324], [1e-05, -2.5]], y=[1, 0, 1],
                     t=[1e-05, 0.1, 1e300], pairs=[(0, 1), (2, 3), (10, 4)])
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        assert path.read_bytes() == (b"src,dst,y,t,x_0,x_1\r\n"
                                     b"0,1,1,1e-05,-0.0,0.1\r\n"
                                     b"2,3,0,0.1,1e+16,5e-324\r\n"
                                     b"10,4,1,1e+300,1e-05,-2.5\r\n")

    def test_quoted_fields_and_blank_lines(self, tmp_path):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("src,dst,y,t,x_0\n0,1,1,1.5,0.5\n2,3,0,4.0,-1.0\n")
        quoted.write_text('src,dst,y,t,x_0\n"0",1,1,"1.5",0.5\n\n2,3,0,4.0,"-1.0"\n')
        a, b = load_dataset(plain), load_dataset(quoted)
        assert a.pairs == b.pairs == [(0, 1), (2, 3)]
        assert_array_equal(a.y, b.y)
        assert_array_equal(a.t, b.t)
        assert_array_equal(a.x, b.x)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("src,dst,y,t,x_0,x_1\n")
        ds = load_dataset(path)
        assert ds.n == 0 and ds.x.shape == (0, 2)

    @pytest.mark.parametrize("row, where", [
        ("#2,3,1,2.0,0.5", "line 4, column src: '#2' is not a 64-bit integer"),
        ("2,3,1.0,2.0,0.5", "line 4, column y: '1.0' is not a 64-bit integer"),
        ("2,3,99999999999999999999,2.0,0.5",
         "line 4, column y: '99999999999999999999' is not a 64-bit integer"),
        ("2,3,2,2.0,0.5", "line 4, column y: 2 is not 0 or 1"),
        ("2,3,1,-1.0,0.5", "line 4, column t: -1.0 is not a positive finite time"),
        ("2,3,1,2.0,-inf", "line 4, column x_0: -inf is not finite"),
        ("   ", "line 4: row with 1 fields, expected 5"),
        ("2,3,1,2.0,1_0", "line 4, column x_0: '1_0' is not a number"),
        ("2,3,1,2.0,\u0661", "line 4, column x_0: '\u0661' is not a number"),
    ])
    def test_bad_row_named_after_blank_line(self, tmp_path, row, where):
        path = tmp_path / "data.csv"
        path.write_text(f"src,dst,y,t,x_0\n0,1,1,1.0,0.5\n\n{row}\n5,6,0,3.0,0.0\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: {where}"

    @pytest.mark.parametrize("rows, where", [
        (["0,1,2,1.0,0.5", "2,3,1,2.0,abc"], "line 2, column y: 2 is not 0 or 1"),
        # by column among the rows before it: y, then t, then the features
        (["0,1,1,1.0,inf", "2,3,1,-1.0,0.5", "4,5,1"],
         "line 3, column t: -1.0 is not a positive finite time"),
    ], ids=["rule-before-parse", "by-column"])
    def test_rule_fault_before_unparsable_row_is_named_first(self, tmp_path, rows, where):
        path = tmp_path / "data.csv"
        path.write_text("src,dst,y,t,x_0\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: {where}"
