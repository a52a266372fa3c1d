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
from itertools import compress, islice
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


class _RowFault(DatasetError):
    """Row ``row`` breaks a row rule, at ``column`` or, if None, as a whole."""

    def __init__(self, row: int, column: str | None, text: str):
        self.row, self.column, self.text = row, column, text
        super().__init__(self.at(f"row {row}"))

    def at(self, place: str) -> str:
        return place + (f", column {self.column}: " if self.column else ": ") + self.text


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
    """Raise _RowFault on the first value that breaks a row rule: y first,
    then t, then the features, named by ``header``."""
    for j, values, ok, rule in (
            (2, y, (y == 0) | (y == 1), "is not 0 or 1"),
            (3, t, np.isfinite(t) & (t > 0), "is not a positive finite time")):
        if not ok.all():
            i = int(np.argmin(ok))
            raise _RowFault(i, header[j], f"{values[i].item()!r} {rule}")
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise _RowFault(int(i), header[4 + j], f"{x[i, j].item()!r} is not finite")


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
        _first_fault(self.x, y, self.t, _header(self.d))
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


# Rows formatted per write in _write_csv: bounds the strings held at once.
_SAVE_CHUNK = 1024


def _write_csv(path, header, pairs, columns):
    """Write a CSV of ``header``, one row per pair: src, dst, then the values
    of ``columns`` (1-D, or 2-D with a field per column), each as its
    ``repr`` so that a float reads back as the same double."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, len(pairs), _SAVE_CHUNK):
            b = a + _SAVE_CHUNK
            keys = (f"{src},{dst}" for src, dst in pairs[a:b])
            # one repr pass per column, then one write per block
            fields = [map(repr, f) for c in columns for f in np.atleast_2d(c[a:b].T).tolist()]
            fh.write("\r\n".join(map(",".join, zip(keys, *fields))) + "\r\n")


def save_dataset(path, dataset: Dataset):
    """Write the labeled dataset CSV, each float as its ``repr`` so that
    ``load_dataset`` reads back the same doubles."""
    _write_csv(path, _header(dataset.d), dataset.pairs, (dataset.y, dataset.t, dataset.x))


# Columns read as int64 by _read_csv; every other column is read as a float.
_INT_COLUMNS = ("src", "dst", "y")


def _parse(path, header, lines=None):
    """A CSV's body, or its first ``lines`` lines, parsed in one ``np.loadtxt``
    call: (rows, columns) int64 and float64 views of one table."""
    with open(path, "r", encoding="utf-8", newline="") as fh, warnings.catch_warnings():
        fh.readline()
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(fh if lines is None else islice(fh, lines),
                           dtype=[("", np.int64 if name in _INT_COLUMNS else float)
                                  for name in header],
                           delimiter=",", comments=None, quotechar='"', ndmin=1)
    return table.view(np.int64).reshape(-1, len(header)), table.view(float).reshape(-1, len(header))


def _rows(path):
    """(body lines before it, line number, fields) of each row of a CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        fh.readline()
        reader = csv.reader(fh)
        before = 0
        for row in reader:
            if row:  # a blank line is no row
                yield before, reader.line_num + 1, row
            before = reader.line_num


def _first_bad_row(path, header):
    """(body lines before it, line number, _RowFault) of a CSV's first row
    with a wrong field count or a field that does not parse, or None."""
    for i, (before, line, row) in enumerate(_rows(path)):
        if len(row) != len(header):
            return before, line, _RowFault(i, None, f"row with {len(row)} fields, "
                                                    f"expected {len(header)}")
        for name, raw in zip(header, row):
            try:
                if "_" in raw or not raw.isascii():  # int() and float() take them, loadtxt not
                    raise ValueError(raw)
                (np.int64 if name in _INT_COLUMNS else float)(raw)
            except (ValueError, OverflowError):
                kind = "a 64-bit integer" if name in _INT_COLUMNS else "a number"
                return before, line, _RowFault(i, name, f"{raw!r} is not {kind}")
    return None


def _read_csv(path, reader):
    """Read a CSV whose first line names its columns.

    ``reader(header)`` raises on a header it does not take, or returns
    ``read(ints, floats, raw)``, whose value is returned.  ``ints`` and
    ``floats`` view the body, parsed in one ``np.loadtxt`` call, as rows
    and columns: src, dst and y hold int64s, other columns floats.
    ``raw(i)`` is row i's fields as written.  A fault raises DatasetError
    naming the file and line: the first row with a wrong field count or a
    field that does not parse, unless ``read`` raises ``_RowFault`` on an
    earlier row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
    read = reader(header)

    def row_at(i):
        return next(islice(_rows(path), i, None))

    try:
        fault, table = None, _parse(path, header)
    except ValueError as exc:
        bad = _first_bad_row(path, header)
        if bad is None:  # loadtxt failed where the row by row parse did not
            raise DatasetError(f"{path}: {exc}") from None
        before, line, fault = bad
        table = _parse(path, header, before)
    try:
        value = read(*table, lambda i: row_at(i)[2])
        if fault is None:
            return value
    except _RowFault as exc:
        fault, line = exc, row_at(exc.row)[1]
    raise DatasetError(fault.at(f"{path}: line {line}"))


def load_dataset(path) -> Dataset:
    """Read a labeled dataset CSV.

    The body is parsed in one ``np.loadtxt`` call.  A malformed row raises
    ``DatasetError`` naming the file and line, and the column where one is
    at fault: a wrong field count, a field that does not parse, or a value
    that breaks a ``Dataset`` row rule.
    """
    def reader(header):
        if header[:4] != ["src", "dst", "y", "t"]:
            raise DatasetError(f"{path}: expected header src,dst,y,t,x_0..")
        return lambda ints, floats, raw: Dataset(
            x=np.ascontiguousarray(floats[:, 4:]), y=ints[:, 2].copy(), t=floats[:, 3].copy(),
            pairs=list(zip(ints[:, 0].tolist(), ints[:, 1].tolist())))

    return _read_csv(path, reader)
