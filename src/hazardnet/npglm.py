"""Proportional-hazards GLMs with censoring: one model type, its fits,
and the queries shared by every fitted model.

The conditional event intensity factorizes as g(w.x) * h(t) with
g = exp.  The NP-GLM tabulates the cumulative baseline hazard H
non-parametrically at the sorted training times.  At fixed w the loss
is least at the Breslow estimator of H; the loss there, the profile
loss, is the negative Cox partial log-likelihood plus a constant, and
``fit`` runs damped Newton steps on it over w.  The Exponential and
Weibull baselines are the same model with H0(t) = t**shape:
``fit_parametric`` runs the same Newton loop on their negative censored
log-likelihood over (w, log shape), through the same ``_fit`` on counted
rows.  Inference (interval probabilities, quantiles, sampling) runs off H0
and its inverse only, so one implementation serves all three families.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .datasets import Dataset
from .graph import prefixed

__all__ = [
    "FitConfig",
    "HazardModel",
    "TimeEstimate",
    "link_g",
    "compute_H",
    "loss",
    "fit",
    "fit_parametric",
    "ranged_probability",
    "quantile",
    "quantile_times",
    "sample_time",
]

# Linear predictors are clamped here before exponentiation; standardized
# features keep fits far from the boundary.
_CLAMP = 50.0

# Matrix elements per block of a BLAS product over the samples (``_blocks``).
# The OpenBLAS 0.3.31 in numpy 2.4's wheels hands a matrix-vector product
# of 460,800 elements or more to a worker thread, which then spins between
# calls; where it shares the fit's core, all of the fit runs at half speed.
# Blocks this size stay on the calling thread, and at d = 10 a block and
# its weighted copy (0.5 MB) stay in a 2 MB L2 cache.
_BLOCK = 1 << 15


def link_g(z):
    """Covariate link exp(z), with z clamped to [-50, 50]; NaN stays NaN."""
    if isinstance(z, float):  # min/max cost a fraction of a ufunc call
        return np.exp(min(max(z, -_CLAMP), _CLAMP))
    return np.exp(np.minimum(np.maximum(z, -_CLAMP), _CLAMP))


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the damped Newton fit; ``fit_parametric`` uses the defaults.

    ``threshold`` stops the fit once a Newton iteration changes the loss
    by less; ``max_outer`` caps Newton iterations, one loss-trace entry
    each.  ``seed`` is ignored by the fit, which always starts from w = 0;
    it is kept so that existing ``FitConfig(seed=...)`` calls still work.
    """

    threshold: float = 1e-4
    max_outer: int = 500
    seed: int = 0

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


class TimeEstimate(NamedTuple):
    """A predicted time; when the model's horizon was exceeded, ``time``
    is the last training time and only a lower bound."""

    time: float
    horizon_exceeded: bool


def augment(x: np.ndarray) -> np.ndarray:
    """Append the constant-1 bias column."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _prepared(dataset: Dataset):
    """(y, t), y as floats.  Rows must come sorted by t, observed first at
    equal t (as ``build_dataset`` sorts them), or ValueError names two."""
    t, y = dataset.t, dataset.y
    late = np.flatnonzero((t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (y[1:] > y[:-1])))
    if len(late):
        i = late[0]
        raise ValueError(f"rows {i} and {i + 1} are out of order (t, y = {float(t[i])!r}, {y[i]} "
                         f"then {float(t[i + 1])!r}, {y[i + 1]}): sort by t, observed first")
    return y.astype(float), t


class _Runs(NamedTuple):
    """Breslow's view of sorted times: rows of equal t form a run, whose
    events share one hazard jump at the run's first row.  ``y`` is the
    event weights with each run's total moved onto its first row (equal to
    the weights when every run is one row), ``starts`` the first row of
    each run, ``ev`` the first row of each run with events, and ``dt`` the
    time at ``ev`` less the previous distinct time."""

    starts: np.ndarray
    y: np.ndarray
    ev: np.ndarray
    dt: np.ndarray


def _runs(t: np.ndarray, y: np.ndarray) -> _Runs:
    new = np.ones(len(t), dtype=bool)
    new[1:] = t[1:] != t[:-1]
    starts = np.flatnonzero(new)
    moved = np.zeros_like(y)
    moved[starts] = np.add.reduceat(y, starts)
    ev = starts[moved[starts] > 0]
    return _Runs(starts, moved, ev, np.diff(t, prepend=0.0)[ev])


# Array-level pieces of the loss.  ``z`` is the clamped linear predictor
# clip(xa @ w) over the augmented design ``xa`` and ``e`` = exp(z).  The
# fit forms z the same way as ``compute_H`` and ``loss``, so the H and the
# loss it saves are exactly theirs at its w.  Each piece also takes counted
# rows (``_counted``): given c e for e and c y for y, where c counts the
# equal rows merged into each, it returns the per-row sums.

def _blocks(n: int, width: int):
    """Slices of range(n) of _BLOCK // width each, for products whose
    other dimension is ``width``."""
    step = max(_BLOCK // max(width, 1), 1)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _linear(xa: np.ndarray, w: np.ndarray):
    z = np.empty(len(xa))
    for rows in _blocks(*xa.shape):
        np.matmul(xa[rows], w, out=z[rows])
    np.clip(z, -_CLAMP, _CLAMP, out=z)
    return z, np.exp(z)


def _hazard(e: np.ndarray, y: np.ndarray):
    """Risk-set sums sum_{k>=i} e_k and the Breslow H at every row, given
    the event weights on each run's first row (``_Runs.y``): H jumps there
    by the run's events over its risk-set sum, and is flat within a run."""
    risk = np.cumsum(e[::-1])[::-1]
    return risk, np.cumsum(y / risk)


def _loss(z, e, H, y, runs: _Runs) -> float:
    """sum(e H - y z) less each event run's events times its log baseline
    hazard: the slope of H from the previous distinct time to the run."""
    dH = H[runs.ev] - np.where(runs.ev > 0, H[runs.ev - 1], 0.0)
    if np.any(dH <= 0):
        raise ValueError("zero hazard increment at an observed event")
    return float(np.sum(e * H - y * z)) - float(np.sum(runs.y[runs.ev] * np.log(dH / runs.dt)))


def _gradient(xt, e, H, y) -> np.ndarray:
    """xt (e H - y): the gradient of the loss over w at fixed H; at the
    Breslow H(w) also the gradient of the profile loss (envelope theorem)."""
    return _matvec(xt, e * H - y)


def _matvec(xt, r) -> np.ndarray:
    """xt @ r, summed over column blocks (``_blocks``)."""
    out = np.zeros(len(xt))
    for cols in _blocks(len(r), len(xt)):
        out += xt[:, cols] @ r[cols]
    return out


def _hessian(xt, e, H, ev, S0, d) -> np.ndarray:
    """Hessian of the profile loss over w.

    xt diag(e H) xt.T, accumulated over column blocks that stay in cache,
    minus the sum over event times of d m m.T, where m = S1 / S0 is the
    risk-set mean of the features at the time and d its event count
    (``_Runs.y[ev]``).  S1, the risk-set sum of x exp(z), is formed only
    at ``ev``, the first rows of the runs with events: segment sums
    between consecutive ones, then a reverse cumulative sum over them.
    """
    S1 = np.add.reduceat(xt * e, ev, axis=1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    m = S1 / S0
    return _gram(xt, e * H, _gram(m, -d, np.zeros((len(xt), len(xt)))))


def _gram(xt, s, out):
    """Add xt diag(s) xt.T to ``out``, over column blocks (``_blocks``)."""
    for cols in _blocks(len(s), len(xt)):
        block = xt[:, cols]
        out += (block * s[cols]) @ block.T
    return out


def _w_objective(w, xa, y, H):
    """Loss terms that depend on w at fixed H, sum(exp(z) H - y z), and
    their gradient."""
    z, e = _linear(xa, w)
    return float(np.sum(e * H - y * z)), _gradient(xa.T, e, H, y)


def compute_H(w: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Per-sample cumulative hazard H(t_i) at fixed coefficients: Breslow's
    estimator, sum over distinct times T_j <= t_i of d_j / sum_{t_k >= T_j}
    exp(w.x_k), with d_j the events at T_j.  One backward pass for the
    risk-set sums, one forward prefix sum.  Non-decreasing, and equal
    across rows of equal t.
    """
    y, t = _prepared(dataset)
    if y.sum() == 0:
        raise ValueError("all samples censored: H would be identically zero")
    e = _linear(augment(dataset.x), np.asarray(w, dtype=float))[1]
    return _hazard(e, _runs(t, y).y)[1]


def loss(w: np.ndarray, H: np.ndarray, dataset: Dataset) -> float:
    """Negative log-likelihood with the piecewise-constant baseline hazard.

    h at an observed time T_j is the slope of H over (T_{j-1}, T_j], between
    consecutive distinct times; its log enters once per event at T_j.
    """
    y, t = _prepared(dataset)
    z, e = _linear(augment(dataset.x), np.asarray(w, dtype=float))
    return _loss(z, e, np.asarray(H, dtype=float), y, _runs(t, y))


def _number(value) -> bool:  # JSON reads true and false as numbers; they are not
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(key: str, value, rule: str, ok=lambda array: True) -> np.ndarray:
    """``value`` as a vector of finite floats on which ``ok`` holds, else
    ValueError naming ``key``; numpy alone would take true and "1" for 1."""
    try:
        if isinstance(value, list) and not all(map(_number, value)):
            raise TypeError
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != 1 or not np.isfinite(array).all() or not ok(array):
        raise ValueError(f"model key {key!r} must {rule}, got {value!r}")
    return array


PARAMETRIC_FAMILIES = ("exponential", "weibull")  # H0(t) = t**shape
FAMILIES = ("npglm",) + PARAMETRIC_FAMILIES


@dataclass
class HazardModel:
    """Fitted proportional-hazards model: coefficients, baseline, transform.

    ``w`` has d+1 entries, the last being the bias on an implicit constant
    feature; ``w[:-1]`` weighs the standardized features (x - mean) / std,
    with ``mean`` and ``std`` those of the training columns, so queries take
    raw feature rows.  The baseline cumulative hazard H0 is the only part
    that depends on ``family``.  For "npglm", ``event_times``/``H`` tabulate
    it at the distinct training times, censored ones included; it is linear
    between knots, starts at (0, 0), and is flat past the last knot, the
    training horizon.  For "exponential" (shape 1) and "weibull" it is t**shape.
    ``loss_trace`` and ``converged`` report the fit.  Construction checks every field.
    """

    w: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    family: str = "npglm"
    event_times: np.ndarray | None = None
    H: np.ndarray | None = None
    shape: float = 1.0
    unit: str = ""
    loss_trace: list[float] = field(default_factory=list)
    converged: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.w = _numbers("w", self.w, "be a non-empty list of numbers", len)
        d = len(self.w) - 1
        rule = f"hold {d} values, one per feature of 'w'"
        self.mean = _numbers("standardization.mean", self.mean, rule, lambda a: len(a) == d)
        self.std = _numbers("standardization.std", self.std, rule + ", each > 0",
                            lambda a: len(a) == d and (a > 0).all())
        self.loss_trace = _numbers("loss_trace", self.loss_trace, "be a list of numbers").tolist()
        if not isinstance(self.unit, str):
            raise ValueError(f"model key 'unit' must be a string, got {self.unit!r}")
        if not isinstance(self.converged, bool):
            raise ValueError(f"model key 'converged' must be true or false, got {self.converged!r}")
        if self.family != "npglm":
            if not _number(self.shape):
                raise ValueError(f"model key 'shape' must be a number, got {self.shape!r}")
            if not 0 < self.shape < np.inf:
                raise ValueError(f"model key 'shape' must be positive and finite, got {self.shape}")
            if self.family == "exponential" and self.shape != 1:
                raise ValueError(f"model key 'shape' must be 1 for exponential, got {self.shape}")
            self.shape = float(self.shape)
            return
        self.event_times = _numbers("event_times", self.event_times, "be a strictly increasing "
                                    "list of numbers", lambda a: (np.diff(a) > 0).all())
        n = len(self.event_times)
        self.H = _numbers("H", self.H, f"hold {n} non-decreasing values >= 0, one per event time",
                          lambda a: len(a) == n and (np.diff(a, prepend=0.0) >= 0).all())
        self._t_knots = np.concatenate(([0.0], self.event_times))
        self._H_knots = np.concatenate(([0.0], self.H))

    @property
    def d(self) -> int:
        return len(self.w) - 1

    def H0(self, t):
        """Baseline cumulative hazard at times t >= 0 (scalar or array)."""
        if self.family == "npglm":
            return np.interp(t, self._t_knots, self._H_knots)
        return t ** self.shape

    def H0_inverse(self, h):
        """Times at which H0 reaches h, plus flags for targets beyond the
        tabulated range; a flagged target gets the horizon back."""
        if self.family == "npglm":
            return np.interp(h, self._H_knots, self._t_knots), h > self._H_knots[-1]
        return h ** (1.0 / self.shape), np.zeros_like(h, dtype=bool)

    def score(self, x) -> np.ndarray:
        """Linear predictor w.x + bias for raw-space feature rows: shape
        (n,) for n rows, (1,) for one row given 1-D or as (1, d).  Any
        other shape, such as a row of another width, raises ValueError."""
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:  # np.atleast_2d and @ would cost more on one row
            x = x.reshape(1, -1)
        if x.shape[1:] != self.mean.shape:
            width = x.shape[1] if x.ndim == 2 else x.shape[1:]
            raise ValueError(f"model expects {self.d} features, got {width}")
        return np.dot((x - self.mean) / self.std, self.w[:-1]) + self.w[-1]

    def raw_coefficients(self) -> tuple[np.ndarray, float]:
        """Coefficients mapped back to raw feature space: (weights, bias)."""
        wf = self.w[:-1] / self.std
        bias = float(self.w[-1] - np.sum(self.w[:-1] * self.mean / self.std))
        return wf, bias

    def to_json(self) -> dict:
        doc = {
            "family": self.family,
            "w": self.w.tolist(),
            "standardization": {"mean": self.mean.tolist(), "std": self.std.tolist()},
            "unit": self.unit,
        }
        if self.family == "npglm":
            doc.update(event_times=self.event_times.tolist(), H=self.H.tolist())
        else:
            doc["shape"] = float(self.shape)
        if self.loss_trace:  # every fit records one; older model files have none
            doc.update(loss_trace=list(self.loss_trace), converged=bool(self.converged))
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "HazardModel":
        if not isinstance(doc, dict):
            raise ValueError(f"model is a JSON {type(doc).__name__}, not an object")
        keys = ("event_times", "H") if doc.get("family") == "npglm" else ("shape",)
        missing = [key for key in ("family", "w", "standardization") + keys if key not in doc]
        stats = doc.get("standardization")
        if not missing:
            if not isinstance(stats, dict):
                raise ValueError("model key 'standardization' is not an object")
            missing = [f"standardization.{key}" for key in ("mean", "std") if key not in stats]
        if missing:
            raise ValueError(f"model lacks key {missing[0]!r}")
        keys += ("family", "w", "unit", "loss_trace", "converged")
        return cls(mean=stats["mean"], std=stats["std"], **{k: doc[k] for k in keys if k in doc})

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "HazardModel":
        """Read a model file; a ValueError it raises names the path."""
        with open(path, "r", encoding="utf-8") as fh, prefixed(path):
            return cls.from_json(json.load(fh))


def _fit_features(dataset: Dataset):
    """(x, mean, std): the dataset's features standardized by their column
    mean and population std, which the fitted model keeps to apply to raw
    query rows.  A constant column (min == max) gets its value as mean and
    std 1, so it standardizes to exactly 0; its computed std is a rounding
    error, and dividing by it would turn a query's tiny deviation into a
    huge score.  A column whose mean or std overflows raises ValueError
    naming it.
    Statistics and scaling run over one contiguous copy of each column
    (over axis 0 of the row-major table they cost five times as much), so
    x is the transpose of a C-contiguous (d, n) array."""
    columns = np.ascontiguousarray(dataset.x.T)
    low = columns.min(axis=1)
    constant = low == columns.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mean = np.where(constant, low, columns.mean(axis=1))
        std = columns.std(axis=1)
    overflow = ~np.isfinite(mean) | ~(constant | np.isfinite(std))
    if overflow.any():
        j = int(np.argmax(overflow))
        raise ValueError(f"column x_{j}: values too large to standardize "
                         f"(mean {float(mean[j])!r}, std {float(std[j])!r})")
    std = np.where(~constant & (std > 0), std, 1.0)
    return ((columns - mean[:, None]) / std[:, None]).T, mean, std


def _hash(keys: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """A ``bits``-bit hash of each column of the uint64 array ``keys``:
    multiply-add over its entries, then an xor-shift-multiply finish.
    ``seed`` picks the odd 64-bit multipliers."""
    h = np.zeros(keys.shape[1], dtype=np.uint64)
    odd = seed
    for row in keys:
        odd = (odd * 0x5851F42D4C957F2D + 0x14057B7EF767814F) % 2**64 | 1
        h += row * np.uint64(odd)
    h ^= h >> np.uint64(31)
    h *= np.uint64(odd)
    return h >> np.uint64(64 - bits)


def _counted(t: np.ndarray, y: np.ndarray, xt: np.ndarray):
    """Rows equal in (t, y, x) merged into one: (rows, counts), ``rows`` the
    ascending index of one row per group and ``counts`` the group sizes, or
    None when no two rows are equal; that check alone is done when no two
    adjacent rows share (t, y).  ``xt`` is x transposed.

    Groups lie within runs of adjacent rows of equal (t, y), so unsorted
    rows may leave equal rows apart.  A merged row keeps its run's place in
    the order: on rows sorted by t, merged rows have the same distinct times,
    risk sets and events per time (``_runs``) as the rows they count.
    Each round hashes (run, x) into a table of at least as many slots as
    rows left, keeps one row per slot, and merges every row whose bits equal
    its slot's row (-0.0 counts as 0.0).  Rows that met a collision go to
    the next round under other multipliers, so a collision costs a round
    and never merges unequal rows.
    """
    same = (t[1:] == t[:-1]) & (y[1:] == y[:-1])
    if not same.any():
        return None
    keys = np.empty((len(xt) + 1, len(t)), dtype=np.uint64)  # run id, then the bits of x
    keys[0, 0] = 0
    np.cumsum(~same, out=keys[0, 1:], dtype=np.uint64)
    np.add(xt, 0.0, out=keys[1:].view(np.float64))
    todo = np.arange(len(t))
    rows, counts = [], []
    for seed in itertools.count():
        left = np.arange(len(todo))
        bits = max(len(todo).bit_length(), 8)
        h = _hash(keys, bits, seed)
        slot = np.empty(1 << bits, dtype=np.intp)
        slot[h] = left
        rep = slot[h]
        equal = keys[0].take(rep) == keys[0]
        for row in keys[1:]:
            equal &= row.take(rep) == row
        own = np.flatnonzero(rep == left)  # each group's row, equal to itself
        rows.append(todo[own])
        counts.append(np.bincount(rep[equal], minlength=len(todo))[own])
        if equal.all():
            break
        rest = np.flatnonzero(~equal)
        todo, keys = todo[rest], keys[:, rest]
    rows, counts = np.concatenate(rows), np.concatenate(counts)
    if len(rows) == len(t):
        return None
    order = np.argsort(rows)
    return rows[order], counts[order].astype(float)


def _descend(theta, evaluate, derivatives, config: FitConfig):
    """Damped Newton descent from ``theta``: (theta, state, trace, converged).

    ``evaluate(theta)`` gives (loss, state), ``derivatives(state)`` the
    gradient and Hessian.  Each iteration takes the least-squares Newton
    step, or the negative gradient if that does not descend, and halves
    it until the loss drops by 1e-4 of the predicted decrease (a
    non-finite trial fails).  The trace, one loss per iteration, never
    rises.  Stops when an iteration changes the loss by less than the
    threshold (also when no step can lower it by a representable amount),
    or unconverged after ``max_outer`` iterations.  A non-finite loss,
    gradient or Hessian raises ValueError naming column t: the features are
    standardized, the loss at the zero start depends on t and y alone, and
    a finite NP-GLM loss bounds its derivatives, so only a parametric
    family's t**shape can overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        value, state = evaluate(theta)
    trace: list[float] = []
    for _ in range(config.max_outer):
        with np.errstate(over="ignore", invalid="ignore"):
            grad, hess = derivatives(state)
        if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise ValueError("column t: times too large to fit "
                             "(non-finite loss, gradient or Hessian)")
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = float(grad @ step)
        if slope >= 0:
            step, slope = -grad, -float(grad @ grad)
        prev, alpha = value, 1.0
        # backtrack while the wanted decrease is still representable
        while value + alpha * slope < value:
            with np.errstate(over="ignore", invalid="ignore"):
                trial = evaluate(theta + alpha * step)
            if trial[0] <= value + 1e-4 * alpha * slope:
                theta, (value, state) = theta + alpha * step, trial
                break
            alpha *= 0.5
        trace.append(value)
        if prev - value < config.threshold:
            return theta, state, trace, True
    return theta, state, trace, False


def _profile(xa, xt, c, y, t):
    """``fit``'s objective, the profile loss over w less its bias, on rows weighing c."""
    cy = c * y
    runs = _runs(t, cy)

    def evaluate(v):
        z, ce = _linear(xa, np.append(v, 0.0))
        ce *= c
        risk, H = _hazard(ce, runs.y)
        return _loss(z, ce, H, cy, runs), (ce, risk[runs.ev], H)

    def derivatives(state):
        ce, S0, H = state
        return _gradient(xt, ce, H, cy), _hessian(xt, ce, H, runs.ev, S0, runs.y[runs.ev])

    def fields(v, state):  # one knot per distinct time
        return dict(w=np.append(v, 0.0), event_times=t[runs.starts], H=state[2][runs.starts])

    return np.zeros(len(xt)), evaluate, derivatives, fields


def _parametric(xa, xat, c, y, t, learn_shape):
    """``fit_parametric``'s objective, ``_terms``, on rows weighing c."""
    log_t = np.log(t)
    d = xa.shape[1]

    def evaluate(theta):
        value, grad, s = _terms(theta, xa, y, t, log_t, learn_shape, c)
        return value, (theta, grad, s)

    def derivatives(state):
        theta, grad, s = state  # s = c exp(z) t**a weighs the w block
        hess = np.zeros((len(theta), len(theta)))
        _gram(xat, s, hess[:d, :d])
        if learn_shape:
            r = np.exp(theta[-1]) * log_t
            hess[-1, :-1] = hess[:-1, -1] = _matvec(xat, s * r)
            hess[-1, -1] = np.sum(s * r * (1.0 + r) - c * y * r)
        return grad, hess

    def fields(theta, state):
        return dict(w=theta[:d], shape=float(np.exp(theta[-1])) if learn_shape else 1.0)

    return np.zeros(d + learn_shape), evaluate, derivatives, fields


def _fit(dataset: Dataset, family: str, config: FitConfig, unit: str) -> HazardModel:
    """Damped Newton descent (``_descend``) on counted rows: rows equal in
    (t, y, x) merge into one row weighted by their count (``_counted``),
    which leaves every family's objective unchanged.  ``objective`` gives
    theta0 (zero coefficients, unit shape), ``_descend``'s two callables and
    the model's fields at theta.  If rows merged, a per-row pass at the
    fitted theta gives the last loss-trace entry and the NP-GLM's H."""
    if dataset.n_observed == 0:
        raise ValueError("cannot fit: dataset has no observed samples")
    x, mean, std = _fit_features(dataset)
    xa = augment(x)
    if family == "npglm":
        y, t = _prepared(dataset)
        xt, objective = np.ascontiguousarray(x.T), _profile
    else:  # rows in any order; the bias row of xt is the last
        y, t = dataset.y.astype(float), dataset.t
        xt = np.ascontiguousarray(xa.T)
        objective = partial(_parametric, learn_shape=family == "weibull")
    counted = _counted(t, y, xt[:dataset.d])
    # without a merge every count is 1.0, and c * e is e exactly
    rows, c = counted if counted is not None else (slice(None), 1.0)
    theta0, evaluate, derivatives, fields = objective(xa[rows], xt[:, rows], c, y[rows], t[rows])
    theta, state, trace, converged = _descend(theta0, evaluate, derivatives, config)
    if counted is not None:  # counted sums round differently from per-row ones
        _, evaluate, _, fields = objective(xa, xt, 1.0, y, t)
        trace[-1], state = evaluate(theta)
    return HazardModel(mean=mean, std=std, family=family, unit=unit, loss_trace=trace,
                       converged=converged, **fields(theta, state))


def fit(dataset: Dataset, config: FitConfig = FitConfig(), unit: str = "") -> HazardModel:
    """NP-GLM fit (``_fit``) on the profile loss P(w) = loss(w, H(w)), with
    H(w) the Breslow estimator.  The bias is pinned at 0 and left out of the
    Newton system: it cancels out of P, and H absorbs exp(bias).  Tied times
    are Breslow's: the events at one time share its risk set and one jump of
    H.  The model keeps one knot per distinct time; its H and last loss are
    ``compute_H``'s and ``loss``'s at its w on the standardized features."""
    return _fit(dataset, "npglm", config, unit)


def _terms(theta, xa, y, t, log_t, learn_shape, c=1.0):
    """Negative log-likelihood of rows weighing c (``_counted``) over theta
    = (w[, log shape]), its gradient, and s = c exp(z) t**shape, each power
    and exponential taken once."""
    w, log_a = (theta[:-1], theta[-1]) if learn_shape else (theta, 0.0)
    a = np.exp(log_a)
    z, e = _linear(xa, w)
    s = e * t ** a
    s *= c
    cy = c * y
    value = float(np.sum(s - cy * z)) - float(np.sum(cy * (log_a + (a - 1.0) * log_t)))
    grad = _matvec(xa.T, s - cy)
    if learn_shape:
        r = a * log_t  # d log(t**a) / d log a
        grad = np.append(grad, np.sum((s - cy) * r) - np.sum(cy))
    return value, grad, s


def _negative_ll(theta, xa, y, t, log_t, learn_shape, c=1.0):
    """Negative log-likelihood over theta = (w[, log shape]) and its
    gradient: the loss over w at H = t**shape, minus the shape terms."""
    return _terms(theta, xa, y, t, log_t, learn_shape, c)[:2]


def fit_parametric(dataset: Dataset, family: str = "weibull",
                   unit: str = "") -> HazardModel:
    """Maximum-likelihood fit (``_fit``) of one parametric family, under
    the default ``FitConfig``."""
    if family not in PARAMETRIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _fit(dataset, family, FitConfig(), unit)


def _nan_score(where: str) -> ValueError:
    # finite features can still overflow w.x to inf - inf, or to inf * 0
    return ValueError(f"{where} score w.x is NaN: its terms overflow")


def _row_g(model: HazardModel, x):
    """g(w.x) for one feature row, given 1-D or as (1, d); any other row
    count, or a NaN score, raises ValueError."""
    z = model.score(x)
    if len(z) != 1:
        raise ValueError(f"expected one feature row, got {len(z)}")
    z = z[0]
    if z != z:  # one float compare: np.isnan would cost more than a query
        raise _nan_score("the feature row's")
    return link_g(z)


def ranged_probability(model: HazardModel, x, t_a: float, t_b: float) -> float:
    """Probability that the event time falls in [t_a, t_b] given features x."""
    if not 0 <= t_a <= t_b:
        raise ValueError("need 0 <= t_a <= t_b")
    # both ends in one H0 call: a Weibull power may differ from t**shape in the last bit
    survival = np.exp(-_row_g(model, x) * model.H0(np.array([t_a, t_b])))
    p = survival[0] - survival[1]
    return float(min(max(p, 0.0), 1.0))


def _check_alpha(alpha):
    # one float is compared in Python: np.all would cost more than a query
    if not (0 < alpha < 1 if isinstance(alpha, float) else np.all((0 < alpha) & (alpha < 1))):
        raise ValueError("alpha must be in (0, 1)")


def quantile_times(model: HazardModel, x, alpha):
    """Vectorized quantile over feature rows: (times, horizon_exceeded).

    Inverts the baseline at target H0 = -log(1-alpha)/g(w.x); ``alpha``
    is one level or an array of them, broadcast against the rows.  With a
    tabulated baseline, rows whose target exceeds the tabulated range get
    the training horizon back as a lower bound, flagged.  A row whose
    score is NaN raises ValueError naming the row.
    """
    _check_alpha(alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # link_g clamps inf; NaN raises below
        z = model.score(x)
    nan = np.isnan(z)
    if nan.any():
        raise _nan_score(f"row {int(np.argmax(nan))}'s" if np.ndim(x) == 2 else "the feature row's")
    return model.H0_inverse(-np.log1p(-alpha) / link_g(z))


def quantile(model: HazardModel, x, alpha: float) -> TimeEstimate:
    """Smallest t with P(T <= t | x) = alpha for one feature row, through
    the same inverse as ``quantile_times``; alpha = 0.5 is the median."""
    _check_alpha(alpha)
    # Scalar arithmetic, not quantile_times on one row: numpy's array power
    # may round differently from the scalar t**(1/shape) in the last bit.
    time, exceeded = model.H0_inverse(-np.log1p(-alpha) / _row_g(model, x))
    return TimeEstimate(float(time), bool(exceeded))


def sample_time(model: HazardModel, x, rng: np.random.Generator) -> TimeEstimate:
    """Inverse-transform draw from the fitted time distribution at x.

    Draws u uniform on (0, 1) and returns ``quantile(model, x, 1 - u)``:
    between knots of a tabulated baseline the draw is interpolated, and
    draws surviving past the horizon come back flagged, with the horizon
    as a lower bound.
    """
    u = rng.uniform()
    while u == 0.0:
        u = rng.uniform()
    return quantile(model, x, 1.0 - u)
