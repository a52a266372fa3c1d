import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hazardnet import metapaths
from hazardnet.datasets import PairSeries, PrefixCache, WindowConfig, dynamic_series
from hazardnet.graph import TemporalGraph
from hazardnet.metapaths import (
    BACKWARD,
    FORWARD,
    MetaPath,
    MetaPathError,
    metapath_counts,
    new_instance_pairs,
    parse_metapath,
    read_metapath_file,
)

from brute_force import SCHEMA, dfs_count_oracle, link_stamps, random_graph_and_path
from conftest import dense


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
        m = dense(metapath_counts(g, p, 5.0))
        assert m[0, 1] == 1 and m[1, 0] == 1
        assert m[0, 0] == 1 and m[1, 1] == 2

    def test_time_slicing(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        assert dense(metapath_counts(g, p, 2.0))[0, 1] == 0
        assert dense(metapath_counts(g, p, 2.5))[0, 1] == 1

    def test_palindrome_equals_general_route(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        for tau in (0.5, 2.0, 3.2, 5.0):
            assert_array_equal(dense(metapath_counts(g, p, tau)),
                               dfs_count_oracle(g, p, tau))

    def test_random_graphs_match_dfs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            g, p = random_graph_and_path(rng, max_nodes=7, max_links=13)
            for tau in (float(rng.uniform(0, 12)), *link_stamps(g, p)):
                assert_array_equal(dense(metapath_counts(g, p, tau)),
                                   dfs_count_oracle(g, p, tau))


def scipy_product(graph, path, tau):
    """The path's count matrix as a scipy product of its step matrices, each
    built here from the stored links, with no palindrome fold.  Skips the
    calling test where scipy is not installed."""
    sp = pytest.importorskip("scipy.sparse")
    product = None
    for name, direction in path.steps:
        lt, store = graph.schema.link_type(name), graph.links_of(name)
        alive = (store.birth < tau) & (tau <= store.death)
        step = sp.coo_array((np.ones(int(alive.sum()), dtype=np.int64),
                             (store.src[alive], store.dst[alive])),
                            shape=(graph.node_count(lt.src), graph.node_count(lt.dst))).tocsr()
        step = step if direction == FORWARD else step.T.tocsr()
        product = step if product is None else product @ step
    return product


def sorted_entries(m):
    """(keys, counts) of a scipy matrix's nonzero entries, in key order."""
    coo = m.tocoo()
    coo.sum_duplicates()
    coo.eliminate_zeros()
    keys = coo.row.astype(np.int64) * m.shape[1] + coo.col
    order = np.argsort(keys)
    return keys[order], coo.data[order]


def random_link_graph(rng):
    """Random links of every type with parallel copies, ties and deaths;
    every birth is at least 1.0."""
    g = TemporalGraph(SCHEMA)
    sizes = {t: int(rng.integers(1, 7)) for t in SCHEMA.node_types}
    for lt in SCHEMA.link_types:
        for _ in range(int(rng.integers(0, 25))):
            src = f"{lt.src}{rng.integers(sizes[lt.src])}"
            dst = f"{lt.dst}{rng.integers(sizes[lt.dst])}"
            birth = 1.0 + 0.5 * int(rng.integers(0, 20))
            death = None if rng.random() < 0.5 else birth + 0.5 * int(rng.integers(1, 10))
            for _ in range(1 + int(rng.random() < 0.2)):  # parallel copies
                g.add_link(lt.name, src, dst, birth, death)
    for t, n in sizes.items():  # every node exists, linked or not
        for i in range(n):
            g.node_index(t, f"{t}{i}")
    return g.freeze()


ENGINE_PATHS = {
    "single": ["write>", "<write", "cite>", "<publish"],
    "odd": ["write> cite> <write", "<write write> cite>", "write> cite> cite> cite> <write"],
    "even": ["publish> <write", "write> cite> cite> <write"],
    "palindrome": ["write> <write", "<write write>", "cite> <cite",
                   "write> <publish publish> <write", "write> cite> <cite <write"],
}


class TestCountEngine:
    """The numpy count engine against scipy products on random graphs."""

    @pytest.mark.parametrize("kind", sorted(ENGINE_PATHS))
    def test_matches_scipy_product(self, kind):
        rng = np.random.default_rng(sorted(ENGINE_PATHS).index(kind))
        for _ in range(30):
            g = random_link_graph(rng)
            for expr in ENGINE_PATHS[kind]:
                p = parse_metapath(expr, SCHEMA)
                assert p.is_palindrome == (kind == "palindrome")
                for tau in (0.5, float(rng.uniform(1.0, 12.0)),
                            1.0 + 0.5 * int(rng.integers(0, 20))):
                    m = metapath_counts(g, p, tau)
                    want = scipy_product(g, p, tau)
                    assert m.shape == want.shape
                    assert m.keys.dtype == m.counts.dtype == np.int64
                    keys, counts = sorted_entries(want)
                    assert_array_equal(m.keys, keys)
                    assert_array_equal(m.counts, counts)

    def test_before_any_birth_is_empty(self):
        g = random_link_graph(np.random.default_rng(3))
        for expr in ("write>", "write> cite> <write", "write> <write"):
            m = metapath_counts(g, parse_metapath(expr, SCHEMA), 1.0)  # birth < tau fails
            assert len(m.keys) == len(m.counts) == 0
            assert m.at(np.arange(3)).tolist() == [0, 0, 0]

    def test_at_reads_entries_and_zeros(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        m = metapath_counts(g, p, 5.0)
        want = dfs_count_oracle(g, p, 5.0)
        keys = np.arange(want.size)
        assert_array_equal(m.at(keys), want.ravel())


def instance_pairs_oracle(graph, path, start, stop):
    """The (b, src, dst) triples ``new_instance_pairs`` must yield, by
    enumerating every instance link by link: one triple per link of an
    instance born at b in (start, stop] while every link of the instance
    is alive at nextafter(b)."""
    hops = []  # per step: node -> [(next node, birth, death)] over its links
    for name, direction in path.steps:
        store = graph.links_of(name)
        first, last = (store.src, store.dst) if direction == FORWARD else (store.dst, store.src)
        out = {}
        for u, v, birth, death in zip(first.tolist(), last.tolist(),
                                      store.birth.tolist(), store.death.tolist()):
            out.setdefault(u, []).append((v, birth, death))
        hops.append(out)
    found = set()

    def extend(origin, node, links):
        if len(links) == len(hops):
            for b, _ in links:
                tau = np.nextafter(b, np.inf)
                if start < b <= stop and all(x < tau <= y for x, y in links):
                    found.add((b, origin, node))
            return
        for nxt, birth, death in hops[len(links)].get(node, []):
            # no instance with a link born after stop, or with one link dead
            # by another's birth, can qualify; skipping them keeps this quick
            if birth <= stop and all(birth < y and x < death for x, y in links):
                extend(origin, nxt, links + [(birth, death)])

    for origin in hops[0]:
        extend(origin, origin, [])
    return found


def walked_triples(graph, path, start, stop):
    return {(float(b), int(s), int(e))
            for bs, ss, es in new_instance_pairs(graph, path, start, stop)
            for b, s, e in zip(bs, ss, es)}


class TestNewInstancePairs:
    """The walk from new links against every instance enumerated link by link."""

    def boundary_graph(self):
        g = TemporalGraph(SCHEMA)
        g.add_link("write", "a0", "p0", 1.0)
        g.add_link("write", "a1", "p0", 2.0)  # born at start: never walked
        g.add_link("write", "a0", "p1", 3.0)
        g.add_link("write", "a2", "p1", 5.0)  # born at stop: walked
        g.add_link("write", "a3", "p2", 4.0)  # two links of one instance, one birth
        g.add_link("write", "a4", "p2", 4.0)
        g.add_link("write", "a5", "p3", 3.5, np.nextafter(3.5, np.inf))  # alive one instant
        g.add_link("write", "a6", "p3", 3.5)
        g.add_link("write", "a7", "p3", 4.5)
        g.add_link("write", "a8", "p1", 6.0)  # after stop
        return g.freeze()

    def test_boundaries_ties_and_one_instant_links(self):
        g = self.boundary_graph()
        p = parse_metapath("write> <write", SCHEMA)
        got = walked_triples(g, p, 2.0, 5.0)
        assert got == instance_pairs_oracle(g, p, 2.0, 5.0)
        a = [g.node_index("A", f"a{i}") for i in range(9)]
        assert {b for b, _, _ in got} == {3.0, 3.5, 4.0, 4.5, 5.0}
        assert (5.0, a[2], a[0]) in got and (5.0, a[2], a[2]) in got
        assert {(4.0, a[3], a[4]), (4.0, a[4], a[3])} <= got
        assert (3.5, a[5], a[6]) in got
        assert not any(a[5] in (s, e) for b, s, e in got if b != 3.5)
        assert not any(a[1] in (s, e) or a[8] in (s, e) for _, s, e in got)

    @pytest.mark.parametrize("batch", [512, 3])
    def test_random_graphs_equal_enumeration(self, batch, monkeypatch):
        monkeypatch.setattr(metapaths, "_LINK_BATCH", batch)
        rng = np.random.default_rng(11)
        # every engine path but the five-step one, whose enumeration is slow
        exprs = [e for kind in sorted(ENGINE_PATHS) for e in ENGINE_PATHS[kind]
                 if len(e.split()) <= 4]
        walked = 0
        for _ in range(25):
            g = random_link_graph(rng)
            start = 0.5 * int(rng.integers(1, 12))
            stop = start + 0.5 * int(rng.integers(0, 10))
            for expr in exprs:
                p = parse_metapath(expr, SCHEMA)
                got = walked_triples(g, p, start, stop)
                assert got == instance_pairs_oracle(g, p, start, stop)
                walked += len(got)
        assert walked > 1000


class TestSnapshots:
    def test_plan_boundaries(self):
        window = WindowConfig(t0=1.0, phi=2.0, omega=1.0, delta=0.5, k=4)
        assert_array_equal(window.snapshot_plan(), [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_series_differences(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        s01, s11 = dynamic_series(g, [p], [0.0, 2.5, 5.0], [(0, 1), (1, 1)])
        # (a0, a1) counts at tau 0, 2.5, 5.0 are 0, 1, 1 -> increments [1, 0]
        assert s01.pair == (0, 1)
        assert_array_equal(s01.counts[:, 0], [0, 1, 1])
        assert_array_equal(np.diff(s01.counts, axis=0)[:, 0], [1, 0])
        # (a1, a1) counts at tau 0, 2.5, 5.0 are 0, 1, 2 -> increments [1, 1]
        assert s11.pair == (1, 1)
        assert_array_equal(s11.counts[:, 0], [0, 1, 2])
        assert_array_equal(np.diff(s11.counts, axis=0)[:, 0], [1, 1])

    def test_counts_rows_equal_boundary_matrices(self):
        g = two_author_graph()
        paths = [parse_metapath(e, SCHEMA) for e in
                 ("write> <write", "write> cite> <write",
                  "write> <publish publish> <write")]
        times = 1.25 * np.arange(5)
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1)]
        series = dynamic_series(g, paths, times, pairs)
        assert [s.pair for s in series] == pairs
        for i, tau in enumerate(times):
            mats = [dense(metapath_counts(g, p, float(tau))) for p in paths]
            for s in series:
                assert s.counts.dtype == np.int64
                assert s.counts.shape == (len(times), len(paths))
                assert s.counts[i].tolist() == [int(m[s.pair]) for m in mats]

    def test_pair_series_is_a_pair_and_a_view(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        series = dynamic_series(g, [p], [0.0, 2.5, 5.0], [(0, 1), (1, 1)])
        assert PairSeries._fields == ("pair", "counts")
        # every pair's counts are a view of one shared array, not a copy
        assert series[0].counts.base is not None
        assert series[0].counts.base is series[1].counts.base

    def test_cache_and_threads_are_ignored(self):
        g = two_author_graph()
        paths = [parse_metapath(e, SCHEMA) for e in
                 ("write> <write", "write> cite> <write",
                  "write> <publish publish> <write")]
        times = np.arange(6.0)
        pairs = [(0, 1), (1, 0), (0, 0)]
        cache = PrefixCache()
        plain = dynamic_series(g, paths, times, pairs)
        given = dynamic_series(g, paths, times, pairs, cache=cache, threads=3)
        assert len(cache) == 0
        for a, b in zip(plain, given):
            assert a.pair == b.pair
            assert_array_equal(a.counts, b.counts)

    def test_empty_pair_list_gives_no_series(self):
        g = two_author_graph()
        p = parse_metapath("write> <write", SCHEMA)
        assert dynamic_series(g, [p], [0.0, 1.0, 2.0], []) == []

    def test_mixed_endpoint_types_rejected(self):
        g = two_author_graph()
        paths = [parse_metapath("write> <write", SCHEMA),
                 parse_metapath("publish> <publish", SCHEMA)]
        with pytest.raises(MetaPathError):
            dynamic_series(g, paths, [0.0, 1.0, 2.0], [(0, 0)])


class TestMetapathFile:
    def test_target_and_features(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("# comment\ntarget: write> <write\nwrite> cite> <write\n\n")
        target, exprs = read_metapath_file(f)
        assert target == "write> <write"
        assert exprs == ["write> cite> <write"]

    def test_second_target_line_names_file_and_line(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("target: write> <write\nwrite> cite> <write\n\ntarget: write> <write\n")
        with pytest.raises(MetaPathError) as excinfo:
            read_metapath_file(f)
        assert str(excinfo.value) == f"{f}: line 4: a second 'target:' line"

    def test_no_target_line(self, tmp_path):
        f = tmp_path / "paths.txt"
        f.write_text("write> <write\n")
        target, exprs = read_metapath_file(f)
        assert target is None and exprs == ["write> <write"]
