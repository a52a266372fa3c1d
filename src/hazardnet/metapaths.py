"""Meta-path expressions, count-matrix products, and per-pair time series.

A meta-path is a typed walk over the schema graph, written as whitespace
separated steps: ``name>`` follows the link type forward, ``<name``
backward.  Its count matrix at a timestamp is the left-to-right product
of the per-step adjacency matrices at that timestamp; even-length
palindromic paths are folded to ``X @ X.T`` of their half product.  No
product is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    GraphError,
    Schema,
    SparseCountMatrix,
    TemporalGraph,
    spmm,
    time_aware_adjacency,
    transpose,
)

__all__ = [
    "MetaPath",
    "MetaPathError",
    "SnapshotPlan",
    "PairSeries",
    "parse_metapath",
    "metapath_matrix",
    "dynamic_series",
    "read_metapath_file",
]

FORWARD = "forward"
BACKWARD = "backward"


class MetaPathError(ValueError):
    """Syntax or schema type error in a meta-path expression."""


@dataclass(frozen=True)
class MetaPath:
    """A type-checked sequence of (link type, direction) steps."""

    steps: tuple[tuple[str, str], ...]
    source: str
    target: str
    expr: str

    def __len__(self):
        return len(self.steps)

    def __str__(self):
        return self.expr

    @property
    def is_palindrome(self) -> bool:
        """True when the reversed, direction-flipped step list equals the original."""
        n = len(self.steps)
        if n % 2 != 0:
            return False
        flipped = tuple(
            (name, FORWARD if d == BACKWARD else BACKWARD)
            for name, d in reversed(self.steps)
        )
        return flipped == self.steps


def _step_endpoints(schema: Schema, name: str, direction: str) -> tuple[str, str]:
    lt = schema.link_type(name)
    return (lt.src, lt.dst) if direction == FORWARD else (lt.dst, lt.src)


def _format_steps(steps) -> str:
    return " ".join(f"{n}>" if d == FORWARD else f"<{n}" for n, d in steps)


def parse_metapath(expr: str, schema: Schema) -> MetaPath:
    """Parse and type-check a meta-path expression against the schema."""
    tokens = expr.split()
    if not tokens:
        raise MetaPathError("empty meta-path expression")
    steps = []
    for tok in tokens:
        if tok.endswith(">") and not tok.startswith("<") and len(tok) > 1:
            steps.append((tok[:-1], FORWARD))
        elif tok.startswith("<") and not tok.endswith(">") and len(tok) > 1:
            steps.append((tok[1:], BACKWARD))
        else:
            raise MetaPathError(
                f"bad step {tok!r}: expected 'name>' (forward) or '<name' (backward)"
            )
    try:
        source, cursor = _step_endpoints(schema, steps[0][0], steps[0][1])
    except GraphError as exc:
        raise MetaPathError(str(exc)) from exc
    for name, direction in steps[1:]:
        try:
            start, end = _step_endpoints(schema, name, direction)
        except GraphError as exc:
            raise MetaPathError(str(exc)) from exc
        if start != cursor:
            raise MetaPathError(
                f"type mismatch at step {name!r}: path is at {cursor!r} "
                f"but the step starts at {start!r}"
            )
        cursor = end
    return MetaPath(tuple(steps), source, cursor, _format_steps(steps))


class PrefixCache:
    """Accepted as ``cache`` and ignored; holds nothing, so its length is 0.

    No count matrix is kept between calls.  The name stays for callers
    that still create one and pass it on.
    """

    def __len__(self):
        return 0


def _step_matrix(graph: TemporalGraph, step, tau) -> SparseCountMatrix:
    name, direction = step
    m = time_aware_adjacency(graph, name, tau)
    return m if direction == FORWARD else transpose(m)


def _product_of(graph, steps, tau) -> SparseCountMatrix:
    acc = _step_matrix(graph, steps[0], tau)
    for step in steps[1:]:
        acc = spmm(acc, _step_matrix(graph, step, tau))
    return acc


def metapath_matrix(graph: TemporalGraph, path: MetaPath, tau: float) -> SparseCountMatrix:
    """Path-instance count matrix of ``path`` at timestamp ``tau``.

    Palindromic paths are computed as X @ X.T from their half product.
    """
    if path.is_palindrome:
        x = _product_of(graph, path.steps[: len(path.steps) // 2], tau)
        return spmm(x, transpose(x))
    return _product_of(graph, path.steps, tau)


@dataclass(frozen=True)
class SnapshotPlan:
    """Snapshot grid covering the feature extraction window."""

    t0: float
    delta: float
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("snapshot count k must be >= 1")
        if not self.delta > 0:
            raise ValueError("snapshot spacing delta must be positive")

    @property
    def phi(self) -> float:
        return self.k * self.delta

    def boundaries(self) -> np.ndarray:
        """The k+1 evaluation timestamps t0, t0+delta, ..., t0+k*delta."""
        return self.t0 + self.delta * np.arange(self.k + 1)


@dataclass
class PairSeries:
    """Per-snapshot count increments for one node pair.

    ``series`` is k x d: row i holds, for each path, the change in the
    path-instance count over the i-th snapshot interval.  ``base`` holds
    the counts at the window start, so column sums plus ``base`` recover
    the counts at the window end.
    """

    pair: tuple[int, int]
    series: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.int64)
        self.base = np.asarray(self.base, dtype=np.int64)
        if self.series.ndim != 2:
            raise ValueError("series must be a k x d matrix")
        if self.base.shape != (self.series.shape[1],):
            raise ValueError("base length must equal the number of paths")


def dynamic_series(graph: TemporalGraph, paths: list[MetaPath], plan: SnapshotPlan,
                   pairs: list[tuple[int, int]],
                   cache: PrefixCache | None = None,
                   threads: int = 1) -> list[PairSeries]:
    """Per-pair snapshot-difference series over the given meta-paths.

    Entry (i, j) of each series is the count of path j instances at
    ``t0 + (i+1)*delta`` minus the count at ``t0 + i*delta``.  ``cache``
    and ``threads`` are accepted and ignored.
    """
    if not paths:
        raise MetaPathError("at least one meta-path is required")
    src_types = {p.source for p in paths}
    dst_types = {p.target for p in paths}
    if len(src_types) != 1 or len(dst_types) != 1:
        raise MetaPathError("all feature meta-paths must share endpoint node types")
    rows = np.asarray([p[0] for p in pairs], dtype=np.int64)
    cols = np.asarray([p[1] for p in pairs], dtype=np.int64)
    # raw counts at each boundary timestamp: (k+1) x n_pairs x d
    stacked = np.empty((plan.k + 1, len(pairs), len(paths)), dtype=np.int64)
    for i, tau in enumerate(plan.boundaries()):
        for j, path in enumerate(paths):
            stacked[i, :, j] = metapath_matrix(graph, path, float(tau)).counts_at(rows, cols)
    diffs = np.diff(stacked, axis=0)
    return [
        PairSeries(pair=tuple(pairs[j]), series=diffs[:, j, :], base=stacked[0, j, :])
        for j in range(len(pairs))
    ]


def read_metapath_file(path) -> tuple[str | None, list[str]]:
    """Read a meta-path list file: one expression per line, ``#`` comments.

    A line ``target: <expr>`` names the target relation; returns
    (target expression or None, feature expressions).
    """
    target = None
    exprs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("target:"):
                target = line[len("target:"):].strip()
            else:
                exprs.append(line)
    return target, exprs
