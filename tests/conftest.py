"""Shared fixtures: a 12-node temporal graph with hand-computed features.

Three node types: authors a0..a3, papers p0..p5, venues v0..v1.  Links:
write (A->P), cite (P->P), publish (V->P).  The feature window is
[0, 4] split into k=2 snapshots of width 2; the observation window is
(4, 10] (omega = 6).  The target relation is co-authorship
(write> <write).

Hand-computed timeline:
  * (a0, a1) co-author p0 before the window end -> excluded.
  * (a1, a2) first co-author p4 at 5.0 -> observed, t = 1.0.
  * (a3, a0) first co-author p5 when a0 joins at 7.5 -> observed, t = 3.5.
  * (a2, a3), (a3, a1), (a3, a2) stay unrelated -> censored at omega = 6.
Features at the window end (columns: co-author count, citation-bridge
count, shared-venue count):
  * citation bridge p1 -> p2 gives (a1, a2) and, via p3 -> p0, the pairs
    (a3, a0) and (a3, a1) a count of 1;
  * venue v1 bridges p2/p3, giving (a2, a3) and (a3, a2) a count of 1;
  * the cite edge at exactly 4.0 and the cite edge dead at 1.5 must not
    appear at the window-end evaluation point.
"""

import json
import textwrap

import numpy as np
import pytest

SCHEMA_DOC = {
    "node_types": ["A", "P", "V"],
    "link_types": [
        {"name": "write", "src": "A", "dst": "P"},
        {"name": "cite", "src": "P", "dst": "P"},
        {"name": "publish", "src": "V", "dst": "P"},
    ],
}

# link_type, src, dst, birth[, death]
FIXTURE_EDGES = """\
# twelve-node fixture: authors, papers, venues
write\ta0\tp0\t0.5
write\ta1\tp1\t1.0
write\ta1\tp0\t1.5
write\ta2\tp2\t2.5
write\ta3\tp3\t1.0

write\ta1\tp4\t5.0
write\ta2\tp4\t5.0
write\ta3\tp5\t7.0
write\ta0\tp5\t7.5
cite\tp1\tp2\t3.0
cite\tp3\tp0\t2.0
cite\tp2\tp1\t4.0
cite\tp0\tp3\t1.0\t1.5
publish\tv0\tp0\t1.0
publish\tv0\tp1\t2.0
publish\tv1\tp2\t3.5
publish\tv1\tp3\t3.5
"""

METAPATH_FILE = textwrap.dedent("""\
    # co-authorship target plus three feature paths
    target: write> <write
    write> <write
    write> cite> <write
    write> <publish publish> <write
""")

# (src, dst) use per-type insertion order: a0..a3 -> 0..3.
EXPECTED_ROWS = [
    # (src, dst, y, t, co-author, citation-bridge, shared-venue)
    (1, 2, 1, 1.0, 0.0, 1.0, 0.0),
    (3, 0, 1, 3.5, 0.0, 1.0, 0.0),
    (2, 3, 0, 6.0, 0.0, 0.0, 1.0),
    (3, 1, 0, 6.0, 0.0, 1.0, 0.0),
    (3, 2, 0, 6.0, 0.0, 0.0, 1.0),
]

WINDOW = {"t0": 0.0, "delta": 2.0, "k": 2, "phi": 4.0, "omega": 6.0}


@pytest.fixture
def fixture_dir(tmp_path):
    """Write the fixture graph trio (schema, edges, meta-paths) to disk."""
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_DOC))
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text(FIXTURE_EDGES)
    paths_path = tmp_path / "paths.txt"
    paths_path.write_text(METAPATH_FILE)
    return tmp_path


@pytest.fixture
def fixture_graph(fixture_dir):
    from hazardnet import load_graph_file, load_schema

    schema = load_schema(fixture_dir / "schema.json")
    return schema, load_graph_file(schema, fixture_dir / "edges.tsv")


def dense(m):
    """A ``CountMatrix`` as a dense int64 array, the inverse of
    ``test_graph.counts``."""
    out = np.zeros(m.shape, dtype=np.int64)
    out.flat[m.keys] = m.counts
    return out


# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run (per-test stdout is captured by default).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
