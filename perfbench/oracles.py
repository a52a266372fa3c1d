"""Brute-force references the benchmark checks the pipeline's outputs against.

They read the generated edge list directly and share no code with
``hazardnet``: meta-path counts come from enumerating typed walks one
step at a time, formation times from scanning shared papers, and the
concordance index from enumerating every pair.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from dblpgen import SCHEMA_DOC

# link type -> (source node type, destination node type)
LINK_ENDPOINTS = {lt["name"]: (lt["src"], lt["dst"]) for lt in SCHEMA_DOC["link_types"]}


def node_indices(edges) -> dict[str, dict[str, int]]:
    """Per-type node index maps in first-appearance order, source before destination."""
    maps: dict[str, dict[str, int]] = defaultdict(dict)
    for e in edges:
        src_type, dst_type = LINK_ENDPOINTS[e.link_type]
        maps[src_type].setdefault(e.src, len(maps[src_type]))
        maps[dst_type].setdefault(e.dst, len(maps[dst_type]))
    return maps


def parse_steps(expr: str) -> list[tuple[str, bool]]:
    """``name>`` is (name, True) forward, ``<name`` is (name, False) backward."""
    return [(tok[:-1], True) if tok.endswith(">") else (tok[1:], False)
            for tok in expr.split()]


class WalkCounter:
    """Counts typed walks over the links alive at ``tau``: birth < tau <= death."""

    def __init__(self, edges, tau: float):
        self.forward: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        self.backward: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
        for e in edges:
            if e.birth < tau <= e.death:
                self.forward[e.link_type][e.src].append(e.dst)
                self.backward[e.link_type][e.dst].append(e.src)

    def count(self, src: str, dst: str, steps) -> int:
        def walk(node: str, depth: int) -> int:
            if depth == len(steps):
                return 1 if node == dst else 0
            name, forward = steps[depth]
            table = self.forward[name] if forward else self.backward[name]
            return sum(walk(nxt, depth + 1) for nxt in table.get(node, ()))
        return walk(src, 0)


def first_coauthorship(edges) -> dict[frozenset, float]:
    """Earliest time each author pair shares a paper: over shared papers,
    the minimum of the later of the two ``write`` births.  Assumes write
    links never die, as in the generated graphs and the test fixture."""
    writers: dict[str, dict[str, float]] = defaultdict(dict)
    for e in edges:
        if e.link_type == "write":
            old = writers[e.dst].get(e.src)
            writers[e.dst][e.src] = e.birth if old is None else min(old, e.birth)
    first: dict[frozenset, float] = {}
    for authors in writers.values():
        items = list(authors.items())
        for i, (a, ta) in enumerate(items):
            for b, tb in items[i:]:
                key = frozenset((a, b))
                when = max(ta, tb)
                if when < first.get(key, np.inf):
                    first[key] = when
    return first


def expected_label(first: float | None, t_end: float, omega: float):
    """(y, t) for a pair first related at ``first``; None when it is related
    by the end of the feature window and must not be labeled at all."""
    if first is not None and first <= t_end:
        return None
    if first is not None and first <= t_end + omega:
        return 1, first - t_end
    return 0, float(omega)


def expsmooth(boundary_counts, alpha: float) -> float:
    """EWMA of the snapshot increments: f_1 = x_1, f_i = a x_i + (1 - a) f_{i-1}."""
    x = [float(b - a) for a, b in zip(boundary_counts, boundary_counts[1:])]
    f = x[0]
    for v in x[1:]:
        f = alpha * v + (1.0 - alpha) * f
    return f


def concordance_pairs(t, y, pred) -> float:
    """Harrell's C by enumerating every (i, j): comparable when y_i = 1 and
    t_i < t_j; concordant when pred_i < pred_j, half credit on ties."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y)
    pred = np.asarray(pred, dtype=float)
    comparable = (y[:, None] == 1) & (t[:, None] < t[None, :])
    score = (pred[:, None] < pred[None, :]) + 0.5 * (pred[:, None] == pred[None, :])
    return float((score * comparable).sum()) / int(comparable.sum())
