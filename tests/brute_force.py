"""Brute-force references and the random inputs they are checked on.

The acceptance gate (``test_acceptance.py``) and the unit suites compare
the library against these loops; each is written once, here, and neither
side imports the other.  The module imports numpy and ``hazardnet`` only,
never scipy, because the gate also runs where scipy is not installed.  It
is not ``conftest.py``: the benchmark's tests load that file where
``hazardnet`` is not importable.
"""

import numpy as np

from hazardnet.datasets import Dataset
from hazardnet.graph import LinkType, Schema, TemporalGraph
from hazardnet.metapaths import BACKWARD, FORWARD, parse_metapath

# authors write papers, papers cite papers, venues publish papers
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

    Builds each step's dense adjacency from the stored links with its own
    alive test, then walks it step by step, trying every intermediate node;
    returns a dense matrix of walk counts (one per edge multiplicity
    combination), which is what repeated matrix products compute.
    """
    mats = []
    for name, direction in path.steps:
        lt, store = graph.schema.link_type(name), graph.links_of(name)
        m = np.zeros((graph.node_count(lt.src), graph.node_count(lt.dst)), dtype=np.int64)
        alive = (store.birth < tau) & (tau <= store.death)
        np.add.at(m, (store.src[alive], store.dst[alive]), 1)  # parallel links add up
        mats.append(m if direction == FORWARD else m.T)
    out = np.zeros((mats[0].shape[0], mats[-1].shape[1]), dtype=np.int64)

    def walk(node, depth):
        if depth == len(mats):
            return {node: 1}
        totals = {}
        row = mats[depth][node]
        for nxt in np.flatnonzero(row):
            for end, c in walk(int(nxt), depth + 1).items():
                totals[end] = totals.get(end, 0) + int(row[nxt]) * c
        return totals

    for start in range(out.shape[0]):
        for end, c in walk(start, 0).items():
            out[start, end] = c
    return out


def link_stamps(graph, path):
    """Each birth and finite death of the path's link types: the times at
    which its counts change, where the alive rule's boundary decides them."""
    stores = [graph.links_of(name) for name, _ in path.steps]
    stamps = np.concatenate([np.r_[s.birth, s.death] for s in stores])
    return np.unique(stamps[np.isfinite(stamps)]).tolist()


def random_graph_and_path(rng, max_nodes, max_links):
    """A random typed graph on ``SCHEMA`` plus a type-consistent path of 2-4
    steps: 2..max_nodes nodes of each type, 0..max_links links of each type,
    three in ten of them with a death."""
    counts = {t: int(rng.integers(2, max_nodes + 1)) for t in SCHEMA.node_types}
    g = TemporalGraph(SCHEMA)
    for lt in SCHEMA.link_types:
        for _ in range(int(rng.integers(0, max_links + 1))):
            src = f"{lt.src}{rng.integers(counts[lt.src])}"
            dst = f"{lt.dst}{rng.integers(counts[lt.dst])}"
            birth = float(rng.uniform(0, 10))
            death = birth + float(rng.uniform(0.1, 5)) if rng.uniform() < 0.3 else None
            g.add_link(lt.name, src, dst, birth, death)
    # pin node universes so matrix shapes match the counts
    for t in SCHEMA.node_types:
        for i in range(counts[t]):
            g.node_index(t, f"{t}{i}")
    g.freeze()
    length = int(rng.integers(2, 5))
    while True:
        steps, current, ok = [], str(rng.choice(SCHEMA.node_types)), True
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


def make_dataset(t, y, x=None):
    """A ``Dataset`` of rows (t, y, x) with pairs (i, i); no x gives d = 0."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if x is None:
        x = np.zeros((len(t), 0))
    return Dataset(x=np.asarray(x, dtype=float), y=y, t=t,
                   pairs=[(i, i) for i in range(len(t))])


def random_dataset(rng, n, d):
    """n rows with normal features and untied uniform times, sorted by time;
    about three in ten censored, and at least one event."""
    x = rng.normal(size=(n, d))
    t = np.sort(rng.uniform(0.1, 5.0, size=n))
    y = (rng.uniform(size=n) > 0.3).astype(np.int64)
    if y.sum() == 0:
        y[0] = 1
    order = np.lexsort((-y, t))
    return make_dataset(t[order], y[order], x[order])


def tied_rows(rng, n, d, levels, events=0.2):
    """Sorted (t, y, x) with integer times 1..5, most censored rows at 6,
    and features in 0..levels-1, so equal rows are common."""
    t = rng.integers(1, 6, size=n).astype(float)
    y = (rng.uniform(size=n) < events).astype(np.int64)
    t[(y == 0) & (rng.uniform(size=n) < 0.8)] = 6.0
    x = rng.integers(0, levels, size=(n, d)).astype(float)
    order = np.lexsort((-y, t))
    return t[order], y[order], x[order]


def exponential_dataset(n, d, seed):
    """Unit-shape ground truth: t = -log(u) / exp(w.x + b), all observed.
    Returns the dataset and the true (w, b)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    b = rng.standard_normal()
    x = rng.standard_normal((n, d))
    u = rng.uniform(size=n)
    t = -np.log(u) / np.exp(x @ w + b)
    order = np.argsort(t, kind="stable")
    return make_dataset(t[order], np.ones(n, dtype=np.int64), x[order]), w, b


def compute_H_oracle(w, dataset):
    """Breslow's cumulative hazard by the literal double loop; the inner
    risk sum descends, so the additions happen in the same order as a
    reversed cumulative sum."""
    xa = np.hstack([dataset.x, np.ones((dataset.n, 1))])
    e = np.exp(np.clip(xa @ np.asarray(w, dtype=float), -50, 50))
    n = dataset.n
    H = np.empty(n)
    acc = 0.0
    for j in range(n):
        risk = 0.0
        for k in range(n - 1, j - 1, -1):
            risk += e[k]
        acc += dataset.y[j] / risk
        H[j] = acc
    return H


def ci_oracle(t_true, y, t_pred):
    """Concordance by the literal double loop over ordered pairs; None when
    no pair is comparable."""
    num, den = 0.0, 0
    n = len(t_true)
    for i in range(n):
        if y[i] != 1:
            continue
        for j in range(n):
            if t_true[i] >= t_true[j]:
                continue
            den += 1
            if t_pred[i] < t_pred[j]:
                num += 1.0
            elif t_pred[i] == t_pred[j]:
                num += 0.5
    return num / den if den else None
