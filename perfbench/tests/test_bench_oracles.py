"""Brute-force oracles against the hand-computed 12-node fixture.

The fixture (graph, meta-paths, window and expected rows) lives in
``tests/conftest.py``; it is loaded here under another module name so
the two test trees do not clash.
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))

import pytest  # noqa: E402
import oracles  # noqa: E402
from dblpgen import read_edges  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "hazardnet_fixture", HERE.parents[2] / "tests" / "conftest.py")
fixture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixture)

EDGES = read_edges(fixture.FIXTURE_EDGES.splitlines())
FEATURES = [line.strip() for line in fixture.METAPATH_FILE.splitlines()
            if line.strip() and not line.startswith("#") and not line.startswith("target:")]
W = fixture.WINDOW
T_END = W["t0"] + W["phi"]


def author(index: int) -> str:
    ids = {i: a for a, i in oracles.node_indices(EDGES)["A"].items()}
    return ids[index]


def test_fixture_parses_with_deaths_and_comments():
    assert len(EDGES) == 17
    dead = [e for e in EDGES if e.death != float("inf")]
    assert [(e.src, e.dst, e.death) for e in dead] == [("p0", "p3", 1.5)]
    assert [author(i) for i in range(4)] == ["a0", "a1", "a2", "a3"]


@pytest.mark.parametrize("row", fixture.EXPECTED_ROWS)
def test_window_end_counts_match_expected_rows(row):
    src, dst, _, _, *features = row
    counter = oracles.WalkCounter(EDGES, T_END)
    got = [counter.count(author(src), author(dst), oracles.parse_steps(expr))
           for expr in FEATURES]
    assert got == features


@pytest.mark.parametrize("row", fixture.EXPECTED_ROWS)
def test_labels_match_expected_rows(row):
    src, dst, y, t = row[:4]
    first = oracles.first_coauthorship(EDGES).get(frozenset((author(src), author(dst))))
    assert oracles.expected_label(first, T_END, W["omega"]) == (y, t)


def test_pairs_related_in_the_feature_window_are_excluded():
    first = oracles.first_coauthorship(EDGES)
    assert first[frozenset(("a0", "a1"))] == 1.5
    assert oracles.expected_label(1.5, T_END, W["omega"]) is None
    assert oracles.expected_label(first[frozenset(("a1",))], T_END, W["omega"]) is None


def test_walks_use_only_links_alive_at_tau():
    steps = oracles.parse_steps("write> cite> <write")
    # cite p2 -> p1 is born exactly at the window end, so a2 -> a1 has no bridge yet
    assert oracles.WalkCounter(EDGES, T_END).count("a2", "a1", steps) == 0
    assert oracles.WalkCounter(EDGES, T_END + 0.5).count("a2", "a1", steps) == 1
    # cite p0 -> p3 is alive on (1.0, 1.5]
    assert oracles.WalkCounter(EDGES, 1.0).count("a0", "a3", steps) == 0
    assert oracles.WalkCounter(EDGES, 1.25).count("a0", "a3", steps) == 1
    assert oracles.WalkCounter(EDGES, 1.5).count("a0", "a3", steps) == 1
    assert oracles.WalkCounter(EDGES, 1.6).count("a0", "a3", steps) == 0


def test_expsmooth_from_boundary_counts():
    assert oracles.expsmooth([0, 2, 3], 0.5) == 1.5
    assert oracles.expsmooth([1, 1, 4, 4], 0.25) == 0.25 * 0 + 0.75 * (0.25 * 3 + 0.75 * 0)


def test_concordance_by_pair_enumeration():
    # comparable: (0,1), (0,2), (1,2); concordant, concordant, tied
    assert oracles.concordance_pairs([1, 2, 3], [1, 1, 0], [1, 2, 2]) == 2.5 / 3
    # censored rows only enter as the later element; equal times are not comparable
    assert oracles.concordance_pairs([1, 1, 2], [1, 0, 1], [3, 2, 1]) == 0.0
