"""Seeded graph generator: determinism, shape, and isomorphic relabeling.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402
from dblpgen import GraphSpec, generate_edges, read_edges, relabel, write_graph  # noqa: E402

SMALL = dict(n_authors=60, n_papers=150, n_venues=5)


def written_bytes(tmp_path, name, spec, relabel_seed=None):
    out = tmp_path / name
    write_graph(spec, out, relabel_seed=relabel_seed)
    return {f: (out / f).read_bytes() for f in ("schema.json", "edges.tsv", "paths.txt")}


@pytest.mark.parametrize("births", ["years", "continuous"])
def test_same_seeds_give_identical_files(tmp_path, births):
    spec = GraphSpec(births=births, seed=7, **SMALL)
    first = written_bytes(tmp_path, "a", spec, relabel_seed=3)
    second = written_bytes(tmp_path, "b", spec, relabel_seed=3)
    assert first == second


@pytest.mark.parametrize("births", ["years", "continuous"])
def test_other_seeds_give_other_files(tmp_path, births):
    base = written_bytes(tmp_path, "a", GraphSpec(births=births, seed=7, **SMALL))
    other_structure = written_bytes(tmp_path, "b", GraphSpec(births=births, seed=8, **SMALL))
    other_labels = written_bytes(tmp_path, "c", GraphSpec(births=births, seed=7, **SMALL),
                                 relabel_seed=1)
    assert base["edges.tsv"] != other_structure["edges.tsv"]
    assert base["edges.tsv"] != other_labels["edges.tsv"]


def test_edges_round_trip_through_the_file(tmp_path):
    spec = GraphSpec(births="continuous", seed=2, **SMALL)
    edges = write_graph(spec, tmp_path, relabel_seed=5)
    with open(tmp_path / "edges.tsv", encoding="utf-8") as fh:
        assert read_edges(fh) == edges


@pytest.mark.parametrize("births", ["years", "continuous"])
def test_paper_shape(births):
    edges = generate_edges(GraphSpec(births=births, seed=4, **SMALL))
    birth_of = {e.dst: e.birth for e in edges if e.link_type == "publish"}
    assert len(birth_of) == SMALL["n_papers"]
    for b in birth_of.values():
        if births == "years":
            assert b == int(b) and 1 <= b <= 20
        else:
            assert 0 <= b < 20
    authors = Counter(e.dst for e in edges if e.link_type == "write")
    assert set(authors.values()) <= {1, 2, 3}
    assert len({(e.src, e.dst) for e in edges if e.link_type == "write"}) == sum(authors.values())
    cites = [e for e in edges if e.link_type == "cite"]
    assert cites
    for e in cites:
        assert birth_of[e.dst] < birth_of[e.src] == e.birth
    assert max(Counter(e.src for e in cites).values()) <= 3


def test_relabel_is_an_isomorphism():
    edges = generate_edges(GraphSpec(births="years", seed=4, **SMALL))
    moved = relabel(edges, seed=9)

    def signature(es):
        # per node: sorted multiset of (link type, role, birth); ids dropped
        sig = {}
        for e in es:
            sig.setdefault(e.src, []).append((e.link_type, "out", e.birth))
            sig.setdefault(e.dst, []).append((e.link_type, "in", e.birth))
        return Counter((n[0], tuple(sorted(v))) for n, v in sig.items())

    assert signature(moved) == signature(edges)
    assert sorted((e.link_type, e.birth) for e in moved) == sorted(
        (e.link_type, e.birth) for e in edges)
    assert [e.src for e in moved] != [e.src for e in edges]
