"""The per-pair chain from a temporal graph to a training set: window,
candidates, labels, snapshot series, aggregation, build, persistence.

The recorded timeline splits into a feature extraction window (length phi,
k snapshots of size delta) and an observation window (length omega).
Candidate pairs are those with a feature count at the feature-window end.
Pairs forming the target relation inside the observation window become
observed samples with their formation delay; pairs never forming it are
censored at omega.  Each labeled pair's raw meta-path counts at the k+1
snapshot times collapse to a fixed vector via either the window-end
count (the single-snapshot reading) or exponential smoothing of the count
increments.
"""

from __future__ import annotations

import csv
import numbers
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .graph import TemporalGraph, _distinct
from .metapaths import MetaPath, endpoint_types, metapath_counts, new_instance_pairs

__all__ = [
    "WindowConfig",
    "PrefixCache",
    "Dataset",
    "DatasetError",
    "candidate_pairs",
    "label_pairs",
    "PairSeries",
    "dynamic_series",
    "aggregate_stack",
    "aggregate_expsmooth",
    "build_dataset",
    "save_dataset",
    "load_dataset",
]


class DatasetError(ValueError):
    """Invalid window, labels, or feature table."""


@dataclass(frozen=True)
class WindowConfig:
    """Timeline split: feature window [t0, t0+phi], observation (t0+phi, t0+phi+omega]."""

    t0: float
    phi: float
    omega: float
    delta: float
    k: int

    def __post_init__(self):
        # k and delta first: the CLI derives phi from them
        if not (isinstance(self.k, numbers.Integral) and self.k >= 1):
            raise DatasetError(f"k must be a whole number >= 1, got {self.k!r}")
        for name in ("t0", "delta", "phi", "omega"):
            if not np.isfinite(getattr(self, name)):
                raise DatasetError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("delta", "phi", "omega"):
            if not getattr(self, name) > 0:
                raise DatasetError(f"{name} must be positive, got {getattr(self, name)!r}")
        if abs(self.k * self.delta - self.phi) > 1e-9 * max(1.0, abs(self.phi)):
            raise DatasetError(
                f"k * delta = {self.k * self.delta} does not equal phi = {self.phi}"
            )

    @property
    def feature_end(self) -> float:
        return self.t0 + self.phi

    @property
    def observation_end(self) -> float:
        return self.t0 + self.phi + self.omega

    def snapshot_plan(self) -> np.ndarray:
        """The k+1 snapshot times t0, t0+delta, ..., t0+(k-1)*delta and
        ``feature_end``, which t0+k*delta may miss by a rounding error."""
        times = self.t0 + self.delta * np.arange(self.k + 1)
        times[-1] = self.feature_end
        return times


def _header(d: int) -> list[str]:
    """The dataset CSV's column names for d features."""
    return ["src", "dst", "y", "t"] + [f"x_{j}" for j in range(d)]


def _first_fault(x, y, t, header):
    """(row, "column name: value rule") of the first value that breaks a row
    rule, or None: y first, then t, then the features, named by ``header``."""
    for j, values, ok, rule in (
            (2, y, (y == 0) | (y == 1), "is not 0 or 1"),
            (3, t, np.isfinite(t) & (t > 0), "is not a positive finite time")):
        if not ok.all():
            i = int(np.argmin(ok))
            return i, f"column {header[j]}: {values[i].item()!r} {rule}"
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        return int(i), f"column {header[4 + j]}: {x[i, j].item()!r} is not finite"
    return None


@dataclass
class Dataset:
    """One row (x, y, t) per node pair: raw features, event flag, recorded time.

    ``x`` is an N x d float array of finite raw features, ``y`` is 0 or 1 and
    ``t`` a positive finite time.  A row that breaks a rule raises
    DatasetError naming its row and column; ``load_dataset`` names the
    file's line instead.  ``build_dataset`` and ``synth`` write the rows
    sorted by t, observed before censored at equal t, then by pair, and
    the NP-GLM fit checks that order.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    pairs: list[tuple[int, int]]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y)
        n = len(self.t)
        if self.x.ndim != 2:
            raise DatasetError(f"x must be 2-D with one row per t, got shape {self.x.shape}")
        if self.x.shape[0] != n or len(y) != n or len(self.pairs) != n:
            raise DatasetError("x, y, t, pairs must have equal lengths")
        fault = _first_fault(self.x, y, self.t, _header(self.d))
        if fault:
            raise DatasetError(f"row {fault[0]}, {fault[1]}")
        self.y = np.asarray(y, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_observed(self) -> int:
        return int(self.y.sum())

    @property
    def raw_x(self) -> np.ndarray:
        """Alias of ``x``, which always holds raw features."""
        return self.x


def _sort_order(t, y, pairs):
    # ascending t; observed (y=1) before censored on ties; pair id last
    rows, cols = _pair_columns(pairs)
    return np.lexsort((cols, rows, -y, t))


class PrefixCache:
    """Accepted as ``cache`` and ignored; holds nothing, so its length is 0.

    No count matrix is kept between calls.  The name stays for callers
    that still create one and pass it on.
    """

    def __len__(self):
        return 0


def _pair_columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row and column int64 index arrays of ``pairs``; one list pass per
    column is faster than numpy's conversion of the list of tuples."""
    return (np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64))


def pair_arrays(pairs, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of ``pairs`` (``_pair_columns``).

    A pair outside ``[0, shape[0]) x [0, shape[1])`` raises DatasetError
    naming the first such pair: a negative index would otherwise wrap
    around to another node.
    """
    rows, cols = _pair_columns(pairs)
    outside = (rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])
    if outside.any():
        i = int(np.argmax(outside))
        raise DatasetError(f"pair {(int(rows[i]), int(cols[i]))} lies outside the "
                           f"{shape[0]} x {shape[1]} node index range")
    return rows, cols


def candidate_pairs(graph: TemporalGraph, feature_paths: list[MetaPath],
                    window: WindowConfig,
                    cache: PrefixCache | None = None) -> list[tuple[int, int]]:
    """Pairs with at least one nonzero feature count at the feature-window end,
    sorted.  There must be at least one path, and all must share endpoint
    types; ``cache`` is accepted and ignored.
    """
    n_cols = graph.node_count(endpoint_types(feature_paths)[1])
    # counts are positive, so the pairs are the union of the paths' entries
    keys = _distinct(np.concatenate([metapath_counts(graph, path, window.feature_end).keys
                                     for path in feature_paths]))
    rows, cols = np.divmod(keys, n_cols)
    return list(zip(rows.tolist(), cols.tolist()))


def label_pairs(graph: TemporalGraph, target: MetaPath, window: WindowConfig,
                candidates: list[tuple[int, int]],
                cache: PrefixCache | None = None) -> list[tuple[tuple[int, int], int, float]]:
    """Label candidate pairs against the target relation's formation times.

    A pair whose first target instance appears at t_r inside the
    observation window gets (y=1, t = t_r - feature_end); a pair with no
    instance by the end of observation gets (y=0, t = omega).  Pairs
    already related by the end of the feature window are dropped.  The
    output keeps the order and the duplicates of ``candidates``; a pair
    outside the node index range raises DatasetError.  ``cache`` is
    accepted and ignored.

    Instances appear only at link births, so a pair forms at the first
    birth b after which one of its instances is alive, checked at
    nextafter(b), where the links alive are those born at or before b
    that die after b.  One full count matrix, just after the
    feature-window end, gives the pairs already related.  Then each link
    of the target's types born in the observation window is walked just
    after its own birth, and a pair's label is the earliest birth from
    which it is reached.  This is exact with link deaths.  Take a pair
    first related at some tau after the window end, and let b < tau be the
    birth of the last-born link of an instance alive at tau.  Each of its
    links is born at or before b and dies at or after tau, so the instance
    is alive at nextafter(b): the pair was related at the window end, or
    the walk from that link reaches it at b if b is in the window.
    """
    if not candidates:
        raise DatasetError("empty candidate list")
    n_cols = graph.node_count(target.target)
    rows, cols = pair_arrays(candidates, (graph.node_count(target.source), n_cols))

    t_end = window.feature_end
    # Distinct candidates as sorted keys row * n_cols + col; ``copies``
    # maps every candidate, duplicates included, to its key.
    keys, copies = np.unique(rows * n_cols + cols, return_inverse=True)
    # Already related at the feature-window end: an instance alive just after it.
    related0 = metapath_counts(graph, target, float(np.nextafter(t_end, np.inf))).at(keys) > 0
    first_time = np.full(len(keys), np.inf)
    for b, start, end in new_instance_pairs(graph, target, t_end, window.observation_end):
        found = start * n_cols + end
        at = np.minimum(np.searchsorted(keys, found), len(keys) - 1)
        hit = keys[at] == found
        np.minimum.at(first_time, at[hit], b[hit])

    keep = ~related0[copies]  # group 1, related within the feature window, is dropped
    first_time = first_time[copies][keep]
    observed = np.isfinite(first_time)
    y = observed.astype(np.int64).tolist()
    t = np.where(observed, first_time - t_end, float(window.omega)).tolist()
    return list(zip(map(tuple, compress(candidates, keep.tolist())), y, t))


class PairSeries(NamedTuple):
    """Meta-path counts of one node pair at the snapshot times.

    ``counts`` is (k+1) x d: row i holds, for each path, the number of
    path instances at snapshot time i.  It is a view into the one array
    that ``dynamic_series`` fills for all pairs.
    """

    pair: tuple[int, int]
    counts: np.ndarray


def dynamic_series(graph: TemporalGraph, paths: list[MetaPath], times,
                   pairs: list[tuple[int, int]],
                   cache: PrefixCache | None = None,
                   threads: int = 1) -> list[PairSeries]:
    """Per-pair raw meta-path counts at each of ``times``, such as the
    k+1 snapshot times of ``WindowConfig.snapshot_plan()``.

    Entry (i, j) of each pair's ``counts`` is the count of path j
    instances at ``times[i]``.  Empty or non-finite ``times``, or a pair
    outside the node index range, raise DatasetError.  ``cache`` and
    ``threads`` are accepted and ignored.
    """
    source, target = endpoint_types(paths)
    times = np.asarray(times, dtype=float)
    if len(times) == 0 or not np.isfinite(times).all():
        raise DatasetError(f"snapshot times must be a non-empty list of finite times, "
                           f"got {times.tolist()!r}")
    if len(pairs) == 0:  # no pair to read, so no product to take
        return []
    n_cols = graph.node_count(target)
    rows, cols = pair_arrays(pairs, (graph.node_count(source), n_cols))
    keys = rows * n_cols + cols
    counts = np.empty((len(pairs), len(times), len(paths)), dtype=np.int64)
    for i, tau in enumerate(times):
        for j, path in enumerate(paths):
            counts[:, i, j] = metapath_counts(graph, path, float(tau)).at(keys)
    return list(map(PairSeries, map(tuple, pairs), counts))


def aggregate_stack(series: PairSeries) -> np.ndarray:
    """Window-end counts per path."""
    return series.counts[-1].astype(float)


def check_alpha(alpha: float) -> None:
    """Raise DatasetError unless ``alpha`` is a smoothing factor in (0, 1)."""
    if not 0 < alpha < 1:
        raise DatasetError(f"smoothing factor alpha must be in (0, 1), got {alpha!r}")


def aggregate_expsmooth(series: PairSeries, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average over the snapshot increments.

    With x_i = counts[i] - counts[i-1], f_1 = x_1 and
    f_i = alpha * x_i + (1 - alpha) * f_{i-1}; returns f_k.  A series of
    fewer than 2 rows has no increment and raises DatasetError.
    """
    check_alpha(alpha)
    if len(series.counts) < 2:
        raise DatasetError("exponential smoothing needs at least 2 snapshot rows, "
                           f"got {len(series.counts)}")
    # Python floats are IEEE doubles, so this equals numpy's arithmetic bit
    # for bit, without numpy's per-call cost on a (k+1) x d array.
    alpha = float(alpha)
    beta = 1.0 - alpha
    out = []
    for c in series.counts.T.tolist():
        f = float(c[1] - c[0])
        for i in range(2, len(c)):
            f = alpha * float(c[i] - c[i - 1]) + beta * f
        out.append(f)
    return np.array(out)


def build_dataset(features: dict[tuple[int, int], np.ndarray],
                  labels: list[tuple[tuple[int, int], int, float]],
                  standardize: bool = False) -> Dataset:
    """Assemble a sorted Dataset of raw features from per-pair features and
    labels.  ``standardize`` is accepted and ignored: the fit standardizes.
    """
    if not labels:
        raise DatasetError("no labeled pairs")
    pairs = [rec[0] for rec in labels]
    missing = [p for p in pairs if p not in features]
    if missing:
        raise DatasetError(f"{len(missing)} labeled pairs lack feature vectors")
    x = np.asarray([features[p] for p in pairs], dtype=float)
    y = np.asarray([rec[1] for rec in labels], dtype=np.int64)
    t = np.asarray([rec[2] for rec in labels], dtype=float)
    if y.sum() == 0:
        raise DatasetError("dataset has no observed samples")
    order = _sort_order(t, y, pairs)
    x, y, t = x[order], y[order], t[order]
    return Dataset(x=x, y=y, t=t, pairs=[pairs[i] for i in order])


# Rows formatted per write in save_dataset: bounds the strings held at once.
_SAVE_CHUNK = 1024


def save_dataset(path, dataset: Dataset):
    """Write the labeled dataset CSV, each float as its ``repr`` so that
    ``load_dataset`` reads back the same doubles."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(_header(dataset.d))
        for a in range(0, dataset.n, _SAVE_CHUNK):
            b = a + _SAVE_CHUNK
            keys = (f"{src},{dst},{y}" for (src, dst), y
                    in zip(dataset.pairs[a:b], dataset.y[a:b].tolist()))
            # one repr pass per column, then one write per block
            columns = [map(repr, c) for c in (dataset.t[a:b].tolist(),
                                               *dataset.x[a:b].T.tolist())]
            fh.write("\r\n".join(map(",".join, zip(keys, *columns))) + "\r\n")


def _int64(raw: str) -> int:
    value = int(raw)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{raw!r} overflows int64")
    return value


def _raise_first_fault(path, header):
    """Re-read a dataset CSV row by row and raise the DatasetError that names
    the file, line and column of its first fault; return if none is found."""
    d = len(header) - 4
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ys, ts, xs, lines = [], [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 4 + d:
                raise DatasetError(f"{path}: line {reader.line_num}: row with "
                                   f"{len(row)} fields, expected {4 + d}")
            values = []
            for j, raw in enumerate(row):
                try:
                    values.append((_int64 if j < 3 else float)(raw))
                except ValueError:
                    kind = "a 64-bit integer" if j < 3 else "a number"
                    raise DatasetError(f"{path}: line {reader.line_num}, column {header[j]}: "
                                       f"{raw!r} is not {kind}") from None
            ys.append(values[2])
            ts.append(values[3])
            xs.append(values[4:])
            lines.append(reader.line_num)
    x = np.asarray(xs, dtype=float) if xs else np.empty((0, d))
    fault = _first_fault(x, np.asarray(ys, dtype=np.int64), np.asarray(ts, dtype=float), header)
    if fault:
        raise DatasetError(f"{path}: line {lines[fault[0]]}, {fault[1]}")


def load_dataset(path) -> Dataset:
    """Read a labeled dataset CSV.

    The body is parsed in one ``np.loadtxt`` call.  A malformed row raises
    ``DatasetError`` naming the file and line, and the column where one is
    at fault: a wrong field count, a field that does not parse, or a value
    that breaks a ``Dataset`` row rule.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header[:4] != ["src", "dst", "y", "t"]:
            raise DatasetError(f"{path}: expected header src,dst,y,t,x_0..")
        dtype = [("src", np.int64), ("dst", np.int64), ("y", np.int64), ("t", float),
                 ("x", float, (len(header) - 4,))]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
            return Dataset(x=np.ascontiguousarray(body["x"]), y=body["y"].copy(),
                           t=body["t"].copy(),
                           pairs=list(zip(body["src"].tolist(), body["dst"].tolist())))
        except ValueError as exc:  # a DatasetError from a row rule included
            fault = exc
    _raise_first_fault(path, header)
    raise DatasetError(f"{path}: {fault}")
