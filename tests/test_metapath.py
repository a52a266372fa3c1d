import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hazardnet.graph import LinkType, Schema, TemporalGraph, time_aware_adjacency
from hazardnet.metapaths import (
    BACKWARD,
    FORWARD,
    MetaPath,
    MetaPathError,
    PrefixCache,
    SnapshotPlan,
    dynamic_series,
    metapath_matrix,
    parse_metapath,
    read_metapath_file,
)

SCHEMA = Schema(
    node_types=("A", "P", "V"),
    link_types=(
        LinkType("write", "A", "P"),
        LinkType("cite", "P", "P"),
        LinkType("publish", "V", "P"),
    ),
)


def dfs_count_oracle(graph, path, tau):
    """Brute-force typed-walk enumeration, the independent counting route.

    Walks adjacency lists step by step, trying every intermediate node;
    returns a dense matrix of walk counts (one per edge multiplicity
    combination), which is what repeated matrix products compute.
    """
    mats = []
    for name, direction in path.steps:
        m = time_aware_adjacency(graph, name, tau).todense()
        mats.append(m if direction == FORWARD else m.T)
    n_src, n_dst = mats[0].shape[0], mats[-1].shape[1]
    out = np.zeros((n_src, n_dst), dtype=np.int64)

    def walk(node, depth):
        if depth == len(mats):
            return {node: 1}
        totals = {}
        row = mats[depth][node]
        for nxt in np.flatnonzero(row):
            mult = int(row[nxt])
            for end, c in walk(int(nxt), depth + 1).items():
                totals[end] = totals.get(end, 0) + mult * c
        return totals

    for start in range(n_src):
        for end, c in walk(start, 0).items():
            out[start, end] = c
    return out


def random_graph_and_path(rng):
    """A random small typed graph plus a type-consistent random path."""
    counts = {t: int(rng.integers(2, 8)) for t in SCHEMA.node_types}
    g = TemporalGraph(SCHEMA)
    for lt in SCHEMA.link_types:
        n_edges = int(rng.integers(0, 14))
        for _ in range(n_edges):
            src = f"{lt.src}{rng.integers(counts[lt.src])}"
            dst = f"{lt.dst}{rng.integers(counts[lt.dst])}"
            birth = float(rng.uniform(0, 10))
            death = None
            if rng.uniform() < 0.3:
                death = birth + float(rng.uniform(0.1, 5))
            g.add_link(lt.name, src, dst, birth, death)
    # pin node universes so matrix shapes match the counts
    for t in SCHEMA.node_types:
        for i in range(counts[t]):
            g.node_index(t, f"{t}{i}")
    g.freeze()

    length = int(rng.integers(2, 5))
    while True:
        steps = []
        current = str(rng.choice(SCHEMA.node_types))
        ok = True
        for _ in range(length):
            options = []
            for lt in SCHEMA.link_types:
                if lt.src == current:
                    options.append((lt.name, FORWARD, lt.dst))
                if lt.dst == current:
                    options.append((lt.name, BACKWARD, lt.src))
            if not options:
                ok = False
                break
            name, direction, nxt = options[rng.integers(len(options))]
            steps.append((name, direction))
            current = nxt
        if ok:
            expr = " ".join(f"{n}>" if d == FORWARD else f"<{n}" for n, d in steps)
            return g, parse_metapath(expr, SCHEMA)


class TestParse:
    def test_forward_backward_chain(self):
        p = parse_metapath("write> cite> <write", SCHEMA)
        assert p.steps == (("write", FORWARD), ("cite", FORWARD), ("write", BACKWARD))
        assert p.source == "A" and p.target == "A"

    def test_type_mismatch_rejected(self):
        with pytest.raises(MetaPathError):
            parse_metapath("write> write>", SCHEMA)

    def test_unknown_link_rejected(self):
        with pytest.raises(MetaPathError):
            parse_metapath("tweet>", SCHEMA)

    def test_empty_rejected(self):
        with pytest.raises(MetaPathError):
            parse_metapath("   ", SCHEMA)

    def test_malformed_token_rejected(self):
        with pytest.raises(MetaPathError):
            parse_metapath("write", SCHEMA)

    def test_palindrome_detection(self):
        assert parse_metapath("write> <write", SCHEMA).is_palindrome
        assert parse_metapath("write> <publish publish> <write", SCHEMA).is_palindrome
        assert not parse_metapath("write> cite> <write", SCHEMA).is_palindrome
        assert parse_metapath("write> <write write> <write", SCHEMA).is_palindrome

    def test_odd_length_not_palindrome(self):
        assert not parse_metapath("write> cite> cite> <write", SCHEMA).is_palindrome


def two_author_graph():
    g = TemporalGraph(SCHEMA)
    g.add_link("write", "a0", "p0", 1.0)
    g.add_link("write", "a1", "p0", 2.0)
    g.add_link("write", "a1", "p1", 3.0)
    g.add_link("cite", "p0", "p1", 4.0)
    g.add_link("publish", "v0", "p0", 1.5)
    g.add_link("publish", "v0", "p1", 3.5)
    g.freeze()
    return g


class TestMetapathMatrix:
    def test_coauthor_counts(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        m = metapath_matrix(g, p, 5.0)
        assert m.count(0, 1) == 1 and m.count(1, 0) == 1
        assert m.count(0, 0) == 1 and m.count(1, 1) == 2

    def test_time_slicing(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        assert metapath_matrix(g, p, 2.0).count(0, 1) == 0
        assert metapath_matrix(g, p, 2.5).count(0, 1) == 1

    def test_palindrome_equals_general_route(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        for tau in (0.5, 2.0, 3.2, 5.0):
            assert_array_equal(metapath_matrix(g, p, tau).todense(),
                               dfs_count_oracle(g, p, tau))

    def test_random_graphs_match_dfs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g, p = random_graph_and_path(rng)
            tau = float(rng.uniform(0, 12))
            assert_array_equal(metapath_matrix(g, p, tau).todense(),
                               dfs_count_oracle(g, p, tau))


class TestSnapshots:
    def test_plan_boundaries(self):
        plan = SnapshotPlan(t0=1.0, delta=0.5, k=4)
        assert plan.phi == 2.0
        assert_array_equal(plan.boundaries(), [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_series_differences(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        plan = SnapshotPlan(t0=0.0, delta=2.5, k=2)
        series = dynamic_series(g, [p], plan, [(0, 1), (1, 1)])
        s01 = series[0]
        # (a0, a1) counts at tau 0, 2.5, 5.0 are 0, 1, 1 -> diffs [1, 0]
        assert s01.base[0] == 0
        assert_array_equal(s01.series[:, 0], [1, 0])
        s11 = series[1]
        # (a1, a1) counts at tau 0, 2.5, 5.0 are 0, 1, 2 -> diffs [1, 1]
        assert s11.base[0] == 0
        assert_array_equal(s11.series[:, 0], [1, 1])

    def test_base_plus_diffs_equals_final(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        plan = SnapshotPlan(t0=0.0, delta=1.25, k=4)
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        final = metapath_matrix(g, p, 5.0)
        for s in dynamic_series(g, [p], plan, pairs):
            assert s.base[0] + s.series[:, 0].sum() == final.count(*s.pair)

    def test_cache_and_threads_are_ignored(self):
        g = two_author_graph()
        paths = [parse_metapath(e, SCHEMA) for e in
                 ("write> <write", "write> cite> <write",
                  "write> <publish publish> <write")]
        plan = SnapshotPlan(t0=0.0, delta=1.0, k=5)
        pairs = [(0, 1), (1, 0), (0, 0)]
        cache = PrefixCache()
        plain = dynamic_series(g, paths, plan, pairs)
        given = dynamic_series(g, paths, plan, pairs, cache=cache, threads=3)
        assert len(cache) == 0
        for a, b in zip(plain, given):
            assert a.pair == b.pair
            assert_array_equal(a.series, b.series)
            assert_array_equal(a.base, b.base)

    def test_mixed_endpoint_types_rejected(self):
        g = two_author_graph()
        paths = [parse_metapath("write> <write", SCHEMA),
                 parse_metapath("publish> <publish", SCHEMA)]
        with pytest.raises(MetaPathError):
            dynamic_series(g, paths, SnapshotPlan(0.0, 1.0, 2), [(0, 0)])


class TestMetapathFile:
    def test_target_and_features(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("# comment\ntarget: write> <write\nwrite> cite> <write\n\n")
        target, exprs = read_metapath_file(f)
        assert target == "write> <write"
        assert exprs == ["write> cite> <write"]

    def test_no_target_line(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("write> <write\n")
        target, exprs = read_metapath_file(f)
        assert target is None and exprs == ["write> <write"]
