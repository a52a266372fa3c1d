"""Seeded DBLP-like temporal graph for the benchmark.

Authors, papers and venues linked by ``write`` (author -> paper),
``publish`` (venue -> paper) and ``cite`` (paper -> strictly older
paper).  Each paper has a birth time, either an integer year in
1..20 or a continuous time in [0, 20); every link of a paper is
born with it.  Each paper gets 1-3 distinct authors drawn by skewed
(Pareto) productivity, one uniform venue, and 0-3 distinct citations to
uniformly chosen papers born strictly earlier.

``GraphSpec.seed`` fixes the structure.  ``relabel`` then draws, from a
second seed, an isomorphic copy: node ids permuted within each type and
the edge records shuffled, so node indices and row order change while
every count, label and fit problem stays the same.

Only the standard library's ``random.Random`` is used, so the output is
bit-for-bit reproducible from the two seeds.  Files are written in the
formats ``hazardnet features`` reads: ``schema.json``, ``edges.tsv`` and
``paths.txt``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

SCHEMA_DOC = {
    "node_types": ["A", "P", "V"],
    "link_types": [
        {"name": "write", "src": "A", "dst": "P"},
        {"name": "cite", "src": "P", "dst": "P"},
        {"name": "publish", "src": "V", "dst": "P"},
    ],
}

TARGET = "write> <write"
FEATURE_PATHS = (
    "write> <write",
    "write> cite> <write",
    "write> <publish publish> <write",
)

BIRTH_MODES = ("years", "continuous")
# Finite-variance productivity: with a heavier tail (shape near 1) a few
# authors dominate and the candidate count swings by 2x between seeds.
PARETO_SHAPE = 2.5
YEARS = 20


@dataclass(frozen=True)
class GraphSpec:
    n_authors: int
    n_papers: int
    n_venues: int
    births: str
    seed: int

    def __post_init__(self):
        if self.births not in BIRTH_MODES:
            raise ValueError(f"births must be one of {BIRTH_MODES}")
        if min(self.n_authors, self.n_papers, self.n_venues) < 1:
            raise ValueError("sizes must be positive")


@dataclass(frozen=True)
class Edge:
    link_type: str
    src: str
    dst: str
    birth: float
    death: float = float("inf")


def _weighted_distinct(rng: random.Random, cumulative: list[float], k: int) -> list[int]:
    """k distinct indices drawn with probability proportional to weight."""
    total = cumulative[-1]
    chosen: list[int] = []
    while len(chosen) < k:
        i = bisect.bisect_right(cumulative, rng.random() * total)
        i = min(i, len(cumulative) - 1)
        if i not in chosen:
            chosen.append(i)
    return chosen


def generate_edges(spec: GraphSpec) -> list[Edge]:
    """Edges in paper-birth order; the order fixes node indices on load."""
    rng = random.Random(spec.seed)
    productivity = [rng.paretovariate(PARETO_SHAPE) for _ in range(spec.n_authors)]
    cumulative = list(itertools.accumulate(productivity))
    if spec.births == "years":
        births = [float(1 + int(rng.random() * YEARS)) for _ in range(spec.n_papers)]
    else:
        births = [rng.random() * YEARS for _ in range(spec.n_papers)]
    births.sort()
    edges: list[Edge] = []
    for p, birth in enumerate(births):
        paper = f"p{p}"
        n_auth = min(1 + int(rng.random() * 3), spec.n_authors)
        for a in _weighted_distinct(rng, cumulative, n_auth):
            edges.append(Edge("write", f"a{a}", paper, birth))
        edges.append(Edge("publish", f"v{int(rng.random() * spec.n_venues)}", paper, birth))
        older = bisect.bisect_left(births, birth)  # papers born strictly earlier
        n_cite = min(int(rng.random() * 4), older)
        cited: list[int] = []
        while len(cited) < n_cite:
            q = int(rng.random() * older)
            if q not in cited:
                cited.append(q)
        for q in cited:
            edges.append(Edge("cite", paper, f"p{q}", birth))
    return edges


def relabel(edges: list[Edge], seed: int) -> list[Edge]:
    """Isomorphic copy: ids permuted within each node type, records shuffled."""
    rng = random.Random(seed)
    names: dict[str, list[str]] = {}
    for e in edges:
        for node in (e.src, e.dst):
            names.setdefault(node[0], []).append(node)
    mapping = {}
    for prefix in sorted(names):
        unique = sorted(set(names[prefix]), key=lambda n: int(n[1:]))
        order = list(range(len(unique)))
        rng.shuffle(order)
        mapping.update({n: f"{prefix}{i}" for n, i in zip(unique, order)})
    out = [Edge(e.link_type, mapping[e.src], mapping[e.dst], e.birth) for e in edges]
    rng.shuffle(out)
    return out


def write_graph(spec: GraphSpec, outdir, relabel_seed: int | None = None) -> list[Edge]:
    """Write schema.json, edges.tsv and paths.txt; returns the edges written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    edges = generate_edges(spec)
    if relabel_seed is not None:
        edges = relabel(edges, relabel_seed)
    (outdir / "schema.json").write_text(json.dumps(SCHEMA_DOC), encoding="utf-8")
    with open(outdir / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"# dblpgen {spec} relabel_seed={relabel_seed}\n")
        for e in edges:
            fh.write(f"{e.link_type}\t{e.src}\t{e.dst}\t{e.birth!r}\n")
    lines = ["# co-authorship target plus three feature paths", f"target: {TARGET}"]
    lines += list(FEATURE_PATHS)
    (outdir / "paths.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edges


def read_edges(lines) -> list[Edge]:
    """Parse TSV edge records ``type, src, dst, birth[, death]``."""
    edges = []
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        death = float(fields[4]) if len(fields) > 4 and fields[4].strip() else float("inf")
        edges.append(Edge(fields[0], fields[1], fields[2], float(fields[3]), death))
    return edges
