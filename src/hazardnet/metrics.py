"""Error and ranking metrics for predicted event times under censoring.

Point metrics compare predicted against true times over the observed
samples only; a censored true time is just a lower bound, so absolute
errors against it are not defined.  The concordance index keeps censored
samples as the later element of comparable pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EvalReport", "point_metrics", "concordance_index", "evaluate"]


@dataclass
class EvalReport:
    mae: float
    mre: float
    rmse: float
    msle: float
    mdae: float
    acc_at: dict = field(default_factory=dict)
    ci: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "mae": self.mae, "mre": self.mre, "rmse": self.rmse,
            "msle": self.msle, "mdae": self.mdae,
            "acc_at": {str(k): v for k, v in self.acc_at.items()},
        }
        if self.ci is not None:
            doc["ci"] = self.ci
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def flat_row(self) -> tuple[list[str], list[float]]:
        """Header and value lists for one CSV row (``eval --csv-out``)."""
        header = ["mae", "mre", "rmse", "msle", "mdae"]
        values = [self.mae, self.mre, self.rmse, self.msle, self.mdae]
        for thr in sorted(self.acc_at):
            header.append(f"acc@{thr:g}")
            values.append(self.acc_at[thr])
        if self.ci is not None:
            header.append("ci")
            values.append(self.ci)
        return header, values


def _check_lengths(t_true, y, t_pred):
    t_true = np.asarray(t_true, dtype=float)
    y = np.asarray(y)
    t_pred = np.asarray(t_pred, dtype=float)
    if not (len(t_true) == len(y) == len(t_pred)):
        raise ValueError(f"truth and prediction lengths differ: {len(t_true)} true times, "
                         f"{len(y)} event flags, {len(t_pred)} predictions")
    return t_true, y, t_pred


def _median(values) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit, from one
    ``np.partition``; ``np.median`` itself imports ``numpy.ma`` on first use."""
    if np.isnan(values).any():
        return np.nan
    half = len(values) // 2
    if len(values) % 2:
        return np.partition(values, half)[half]
    part = np.partition(values, (half - 1, half))
    return (part[half - 1] + part[half]) / 2


def point_metrics(t_true, y, t_pred, thresholds=()) -> EvalReport:
    """Observed-only error metrics; ACC counts errors strictly below each
    threshold.  MDAE of an even count is the mean of the middle two."""
    t_true, y, t_pred = _check_lengths(t_true, y, t_pred)
    obs = y == 1
    if not obs.any():
        raise ValueError("no observed samples to score")
    t, p = t_true[obs], t_pred[obs]
    err = np.abs(p - t)
    report = EvalReport(
        mae=float(err.mean()),
        mre=float((err / t).mean()),
        rmse=float(np.sqrt((err ** 2).mean())),
        msle=float(((np.log1p(p) - np.log1p(t)) ** 2).mean()),
        mdae=float(_median(err)),
        acc_at={float(thr): float((err < thr).mean()) for thr in thresholds},
    )
    return report


def _count_below(values, start, bound):
    """For each query k, the number of j >= start[k] with values[j] < bound[k].

    ``values`` are non-negative integers.  A wavelet matrix is built and
    walked in the same pass, one bit per level from the top: each level
    stably partitions the sequence by its bit, and a query range follows
    its bound's bit into the zeros or the ones, first counting the zeros
    it passes over when that bit is 1.  O((n + q) log max) work, O(n) memory.
    """
    n = len(values)
    lo = start
    hi = np.full(len(lo), n)
    below = np.zeros(len(lo), dtype=np.int64)
    for level in reversed(range(int(max(values.max(), bound.max())).bit_length())):
        zero = (values >> level) & 1 == 0
        zeros_before = np.concatenate(([0], np.cumsum(zero)))
        n_zeros = zeros_before[-1]
        up = (bound >> level) & 1 == 1
        lo0, hi0 = zeros_before[lo], zeros_before[hi]
        below += np.where(up, hi0 - lo0, 0)
        lo = np.where(up, n_zeros + lo - lo0, lo0)
        hi = np.where(up, n_zeros + hi - hi0, hi0)
        values = np.concatenate((values[zero], values[~zero]))
    return below


def concordance_index(t_true, y, t_pred) -> float:
    """Harrell's pairwise concordance over comparable pairs.

    (i, j) is comparable when t_i < t_j and sample i is observed;
    concordant when pred_i < pred_j, with half credit for prediction
    ties.  Censored samples enter only as the later element.  The pair
    counts are exact integers, taken in O(n log n) from dense ranks (see
    ``_count_below``); a NaN time or prediction raises ``ValueError``.
    """
    t_true, y, t_pred = _check_lengths(t_true, y, t_pred)
    if np.isnan(t_true).any() or np.isnan(t_pred).any():
        raise ValueError("concordance index of a NaN time or prediction")
    order = np.argsort(t_true)
    t_sorted = t_true[order]
    rank = np.unique(t_pred[order], return_inverse=True)[1]
    obs = np.flatnonzero(y[order] == 1)
    # Rows from start[k] on are strictly later than observed row obs[k].
    start = np.searchsorted(t_sorted, t_sorted[obs], side="right")
    comparable = int((len(t_sorted) - start).sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    below = _count_below(rank, np.concatenate((start, start)),
                         np.concatenate((rank[obs], rank[obs] + 1)))
    lower, not_higher = below[:len(obs)], below[len(obs):]
    concordant = comparable - int(not_higher.sum())
    ties = int(not_higher.sum()) - int(lower.sum())
    return ((2 * concordant + ties) / 2) / comparable


def evaluate(t_true, y, t_pred, thresholds=()) -> EvalReport:
    """Point metrics plus the concordance index in one report."""
    report = point_metrics(t_true, y, t_pred, thresholds)
    report.ci = concordance_index(t_true, y, t_pred)
    return report
