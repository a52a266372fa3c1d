"""Windowed labeling, series aggregation, and training-set assembly.

The recorded timeline splits into a feature extraction window (length phi,
k snapshots of size delta) and an observation window (length omega).
Pairs forming the target relation inside the observation window become
observed samples with their formation delay; pairs never forming it are
censored at omega.  Per-pair snapshot series collapse to fixed vectors via
either the window-end count (the single-snapshot reading) or exponential
smoothing.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import TemporalGraph
from .metapaths import MetaPath, PairSeries, PrefixCache, SnapshotPlan, metapath_matrix

__all__ = [
    "WindowConfig",
    "Dataset",
    "Standardization",
    "DatasetError",
    "label_pairs",
    "candidate_pairs",
    "subsample_censored",
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
        if not self.phi > 0:
            raise DatasetError("phi must be positive")
        if not self.omega > 0:
            raise DatasetError("omega must be positive")
        if self.k < 1 or not self.delta > 0:
            raise DatasetError("k must be >= 1 and delta positive")
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

    def snapshot_plan(self) -> SnapshotPlan:
        return SnapshotPlan(t0=self.t0, delta=self.delta, k=self.k)


@dataclass
class Standardization:
    """Column shift/scale learned from a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, doc) -> "Standardization":
        return cls(np.asarray(doc["mean"], dtype=float), np.asarray(doc["std"], dtype=float))

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardization":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)  # constant columns stay unscaled
        return cls(mean, std)

    @classmethod
    def identity(cls, d: int) -> "Standardization":
        return cls(np.zeros(d), np.ones(d))


@dataclass
class Dataset:
    """Samples sorted ascending by t; observed before censored on ties, then by pair.

    ``x`` is N x d, ``y`` in {0,1}, ``t`` positive.  When built with
    standardization the stored features are already shifted/scaled and
    ``standardization`` holds the training statistics.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    pairs: list[tuple[int, int]]
    standardization: Standardization | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=float)
        n = len(self.t)
        if self.x.shape[0] != n or self.y.shape[0] != n or len(self.pairs) != n:
            raise DatasetError("x, y, t, pairs must have equal lengths")
        if n and not np.all((self.y == 0) | (self.y == 1)):
            raise DatasetError("y entries must be 0 or 1")
        if n and not np.all(self.t > 0):
            raise DatasetError("recorded times must be positive")

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_observed(self) -> int:
        return int(self.y.sum())

    def fit_features(self) -> tuple[np.ndarray, Standardization]:
        """Features a model is fitted on, with the transform they carry.

        A recorded transform is kept and the stored features used as they
        are; without one, the features are standardized here.
        """
        if self.standardization is not None:
            return self.x, self.standardization
        stats = Standardization.fit(self.x)
        return stats.apply(self.x), stats

    @property
    def raw_x(self) -> np.ndarray:
        """Features mapped back to raw space (inverts any standardization)."""
        if self.standardization is None:
            return self.x
        return self.x * self.standardization.std + self.standardization.mean


def _sort_order(t, y, pairs):
    # ascending t; observed (y=1) before censored on ties; pair id last
    keys = sorted(range(len(t)), key=lambda i: (t[i], -y[i], pairs[i]))
    return np.asarray(keys, dtype=np.int64)


def label_pairs(graph: TemporalGraph, target: MetaPath, window: WindowConfig,
                candidates: list[tuple[int, int]],
                cache: PrefixCache | None = None) -> list[tuple[tuple[int, int], int, float]]:
    """Label candidate pairs against the target relation's formation times.

    A pair whose first target instance appears at t_r inside the
    observation window gets (y=1, t = t_r - feature_end); a pair with no
    instance by the end of observation gets (y=0, t = omega).  Pairs
    already related by the end of the feature window are dropped.
    ``cache`` is accepted and ignored.
    """
    if not candidates:
        raise DatasetError("empty candidate list")
    step_types = sorted({name for name, _ in target.steps})
    rows = np.asarray([p[0] for p in candidates], dtype=np.int64)
    cols = np.asarray([p[1] for p in candidates], dtype=np.int64)

    t_end = window.feature_end
    # Change points: the feature-window end, then the births of the
    # target's constituent link types inside the observation window.
    births = graph.birth_times(step_types)
    points = np.append(t_end, births[(births > t_end) & (births <= window.observation_end)])
    # Counts only change at link births, so a snapshot strictly between a
    # change point and the next birth sees exactly the links born up to
    # and including the change point.
    later = np.append(births, np.inf)[np.searchsorted(births, points, side="right")]
    taus = np.where(np.isfinite(later), (points + later) / 2.0, points + 1.0)

    # Already related by the end of the feature window (instance born <= t_end).
    related0 = metapath_matrix(graph, target, float(taus[0])).counts_at(rows, cols) > 0
    formed = related0.copy()
    first_time = np.full(len(candidates), np.nan)
    for b, tau in zip(points[1:], taus[1:]):
        counts = metapath_matrix(graph, target, float(tau)).counts_at(rows, cols)
        newly = (~formed) & (counts > 0)
        first_time[newly] = b
        formed |= newly

    labeled = []
    for i, pair in enumerate(candidates):
        if related0[i]:
            continue  # group 1: related within the feature window
        if np.isfinite(first_time[i]):
            labeled.append((tuple(pair), 1, float(first_time[i]) - t_end))
        else:
            labeled.append((tuple(pair), 0, float(window.omega)))
    return labeled


def candidate_pairs(graph: TemporalGraph, feature_paths: list[MetaPath],
                    window: WindowConfig,
                    cache: PrefixCache | None = None) -> list[tuple[int, int]]:
    """Pairs with at least one nonzero feature count at the feature-window end.

    ``cache`` is accepted and ignored.
    """
    seen = set()
    for path in feature_paths:
        seen.update(metapath_matrix(graph, path, window.feature_end).nonzero_pairs())
    return sorted(seen)


def subsample_censored(labels, ratio: float, rng: np.random.Generator):
    """Downsample censored entries to at most ``ratio`` of the final set.

    Observed entries are all kept; censored entries are drawn uniformly at
    random without replacement.  With n_o observed entries the retained
    censored count is round(ratio/(1-ratio) * n_o), capped by availability.
    """
    if not 0 <= ratio < 1:
        raise DatasetError("censored ratio must be in [0, 1)")
    observed = [rec for rec in labels if rec[1] == 1]
    censored = [rec for rec in labels if rec[1] == 0]
    want = int(round(ratio / (1.0 - ratio) * len(observed)))
    if want < len(censored):
        idx = rng.choice(len(censored), size=want, replace=False)
        censored = [censored[i] for i in sorted(idx)]
    return observed + censored


def aggregate_stack(series: PairSeries) -> np.ndarray:
    """Window-end counts per path: column sums of the series plus the base counts."""
    return (series.base + series.series.sum(axis=0)).astype(float)


def aggregate_expsmooth(series: PairSeries, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average over the snapshot increments.

    f_1 = x_1 and f_i = alpha * x_i + (1 - alpha) * f_{i-1}; returns f_k.
    """
    if not 0 < alpha < 1:
        raise DatasetError("smoothing factor alpha must be in (0, 1)")
    x = series.series.astype(float)
    f = x[0]
    for i in range(1, x.shape[0]):
        f = alpha * x[i] + (1.0 - alpha) * f
    return f


def build_dataset(features: dict[tuple[int, int], np.ndarray],
                  labels: list[tuple[tuple[int, int], int, float]],
                  standardize: bool = True) -> Dataset:
    """Assemble a sorted Dataset from per-pair features and labels."""
    if not labels:
        raise DatasetError("no labeled pairs")
    pairs = [rec[0] for rec in labels]
    missing = [p for p in pairs if p not in features]
    if missing:
        raise DatasetError(f"{len(missing)} labeled pairs lack feature vectors")
    x = np.asarray([features[p] for p in pairs], dtype=float)
    if x.ndim != 2:
        raise DatasetError("feature vectors must share one dimension")
    y = np.asarray([rec[1] for rec in labels], dtype=np.int64)
    t = np.asarray([rec[2] for rec in labels], dtype=float)
    if y.sum() == 0:
        raise DatasetError("dataset has no observed samples")
    order = _sort_order(t, y, pairs)
    x, y, t = x[order], y[order], t[order]
    pairs = [pairs[i] for i in order]
    stats = None
    if standardize:
        stats = Standardization.fit(x)
        x = stats.apply(x)
    return Dataset(x=x, y=y, t=t, pairs=pairs, standardization=stats)


def _sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".standardization.json")


def save_dataset(path, dataset: Dataset):
    """Write the labeled dataset CSV; standardization goes to a JSON sidecar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "y", "t"] + [f"x_{j}" for j in range(dataset.d)])
        for i in range(dataset.n):
            src, dst = dataset.pairs[i]
            writer.writerow(
                [src, dst, int(dataset.y[i]), repr(float(dataset.t[i]))]
                + [repr(float(v)) for v in dataset.x[i]]
            )
    side = _sidecar_path(path)
    if dataset.standardization is not None:
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(dataset.standardization.to_dict(), fh)
    elif side.exists():
        side.unlink()


def _parses(convert, raw: str) -> bool:
    try:
        convert(raw)
    except ValueError:
        return False
    return True


def load_dataset(path) -> Dataset:
    """Read a labeled dataset CSV (and its standardization sidecar if present).

    A malformed row raises ``DatasetError`` naming the file and line, and
    the column where one is at fault: a wrong field count, a field that
    does not parse, y outside {0, 1}, a t that is not a positive finite
    time, or a non-finite feature.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["src", "dst", "y", "t"]:
            raise DatasetError(f"{path}: expected header src,dst,y,t,x_0..")
        d = len(header) - 4
        pairs, ys, ts, xs, lines = [], [], [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 4 + d:
                raise DatasetError(f"{path}: line {reader.line_num}: row with "
                                   f"{len(row)} fields, expected {4 + d}")
            try:
                pairs.append((int(row[0]), int(row[1])))
                ys.append(int(row[2]))
                ts.append(float(row[3]))
                xs.append([float(v) for v in row[4:]])
            except ValueError:
                j = next(j for j, raw in enumerate(row)
                         if not _parses(int if j < 3 else float, raw))
                kind = "an integer" if j < 3 else "a number"
                raise DatasetError(f"{path}: line {reader.line_num}, column {header[j]}: "
                                   f"{row[j]!r} is not {kind}") from None
            lines.append(reader.line_num)
    y = np.asarray(ys, dtype=np.int64)
    t = np.asarray(ts, dtype=float)
    x = np.asarray(xs, dtype=float) if xs else np.empty((0, d))
    for name, values, ok, rule in (
            ("y", y, (y == 0) | (y == 1), "is not 0 or 1"),
            ("t", t, np.isfinite(t) & (t > 0), "is not a positive finite time")):
        if not ok.all():
            i = int(np.argmin(ok))
            raise DatasetError(
                f"{path}: line {lines[i]}, column {name}: {values[i].item()!r} {rule}")
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise DatasetError(
            f"{path}: line {lines[i]}, column {header[4 + j]}: {x[i, j].item()!r} is not finite")
    stats = None
    side = _sidecar_path(path)
    if side.exists():
        with open(side, "r", encoding="utf-8") as fh:
            stats = Standardization.from_dict(json.load(fh))
    return Dataset(x=x, y=y, t=t, pairs=pairs, standardization=stats)
