"""Proportional-hazards GLMs with censoring: the NP-GLM fit and the
queries shared by every fitted model.

The conditional event intensity factorizes as g(w.x) * h(t) with
g = exp.  The NP-GLM tabulates the cumulative baseline hazard H
non-parametrically at the sorted training times.  At fixed w the H that
minimizes the loss is the Breslow estimator; the loss at that H, the
profile loss, is the negative Cox partial log-likelihood plus a
constant, and the fit runs damped Newton steps on it over w.  The
Exponential and Weibull baselines (``baselines.py``) are the same model
with H0(t) = t**shape.  Inference (interval probabilities, quantiles,
sampling) runs off H0 and its inverse only, so one implementation serves
all three families.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datasets import Dataset, Standardization

__all__ = [
    "FitConfig",
    "HazardModel",
    "TimeEstimate",
    "link_g",
    "compute_H",
    "loss",
    "fit",
    "interpolate_H",
    "ranged_probability",
    "quantile",
    "quantile_times",
    "predict_median",
    "sample_time",
]

# Linear predictors are clamped here before exponentiation; standardized
# features keep fits far from the boundary.
_CLAMP = 50.0

# Samples per block of the Hessian product.  At d = 10 a block and its
# weighted copy (0.7 MB) stay in a 2 MB L2 cache, where one full-width
# product at 1e5 rows streams an 8.8 MB temporary through memory.
_HESSIAN_BLOCK = 4096


def link_g(z):
    """Covariate link exp(z), with z clamped to [-50, 50]."""
    return np.exp(np.clip(z, -_CLAMP, _CLAMP))


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the Newton fit.

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


def resolve_ties(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spread duplicate observed times by eps * rank, eps = 1e-9 * max(t).

    Groups of equal observed times are anchored at the group maximum and
    earlier members shifted down, so an observed time never moves past the
    censored samples recorded at the same value.  Censored times are left
    alone; they only carry risk-set mass.
    """
    t = np.asarray(t, dtype=float).copy()
    eps = 1e-9 * float(t.max()) if len(t) else 0.0
    observed = np.flatnonzero(np.asarray(y) == 1)
    if eps == 0.0 or observed.size < 2:
        return t
    values = t[observed]
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    size = np.diff(np.append(starts, len(values)))[group]
    rank = np.arange(len(values)) - starts[group]
    tied = size > 1
    t[observed[tied]] = values[tied] - eps * (size - 1 - rank)[tied]
    return t


def _prepared(dataset: Dataset):
    """(y, t) as floats, ``t`` tie-resolved with its order re-checked."""
    t = resolve_ties(dataset.t, dataset.y)
    if np.any(np.diff(t) < 0):
        raise ValueError("dataset must be sorted ascending by t")
    return dataset.y.astype(float), t


# Array-level pieces of the loss.  ``z`` is the clamped linear predictor
# clip(xa @ w) over the augmented design ``xa`` and ``e`` = exp(z).  The
# fit forms z the same way as ``compute_H`` and ``loss``, so the H and the
# loss it saves are exactly theirs at its w.

def _linear(xa: np.ndarray, w: np.ndarray):
    z = np.clip(xa @ w, -_CLAMP, _CLAMP)
    return z, np.exp(z)


def _hazard(e: np.ndarray, y: np.ndarray):
    """Risk-set sums sum_{k>=i} e_k and the Breslow H at every row."""
    risk = np.cumsum(e[::-1])[::-1]
    return risk, np.cumsum(y / risk)


def _loss(z, e, H, y, t) -> float:
    dH = np.diff(H, prepend=0.0)
    dt = np.diff(t, prepend=0.0)
    obs = y == 1
    if np.any(obs & ((dH <= 0) | (dt <= 0))):
        raise ValueError(
            "zero hazard increment at an observed event (tie resolution failed)"
        )
    log_h = np.zeros_like(H)
    log_h[obs] = np.log(dH[obs] / dt[obs])
    return float(np.sum(e * H - y * (z + log_h)))


def _gradient(xt, e, H, y) -> np.ndarray:
    """xt (e H - y): the gradient of the loss over w at fixed H; at the
    Breslow H(w) also the gradient of the profile loss (envelope theorem)."""
    return xt @ (e * H - y)


def _hessian(xt, e, H, ev, S0) -> np.ndarray:
    """Hessian of the profile loss over w.

    xt diag(e H) xt.T, accumulated over column blocks that stay in cache,
    minus the sum over events of m m.T, where m = S1 / S0 is the risk-set
    mean of the features at the event.  S1, the risk-set sum of x exp(z),
    is formed only at the event rows ``ev``: segment sums between
    consecutive events, then a reverse cumulative sum over events.
    """
    S1 = np.add.reduceat(xt * e, ev, axis=1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    m = S1 / S0
    hess = -(m @ m.T)
    s = e * H
    for lo in range(0, len(s), _HESSIAN_BLOCK):
        block = xt[:, lo:lo + _HESSIAN_BLOCK]
        hess += (block * s[lo:lo + _HESSIAN_BLOCK]) @ block.T
    return hess


def _w_objective(w, xa, y, H):
    """Loss terms that depend on w at fixed H, sum(exp(z) H - y z), and
    their gradient."""
    z, e = _linear(xa, w)
    return float(np.sum(e * H - y * z)), _gradient(xa.T, e, H, y)


def compute_H(w: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Per-sample cumulative hazard H(t_i) at fixed coefficients.

    H(t_i) = sum_{j<=i} y_j / sum_{k>=j} exp(w.x_k): one backward pass for
    the risk-set sums, one forward prefix sum.  Non-decreasing by
    construction.
    """
    y, _ = _prepared(dataset)
    if y.sum() == 0:
        raise ValueError("all samples censored: H would be identically zero")
    return _hazard(_linear(augment(dataset.x), np.asarray(w, dtype=float))[1], y)[1]


def loss(w: np.ndarray, H: np.ndarray, dataset: Dataset) -> float:
    """Negative log-likelihood with the piecewise-constant baseline hazard.

    h(t_i) is the slope of H over (t_{i-1}, t_i]; its log enters only at
    observed samples.
    """
    y, t = _prepared(dataset)
    z, e = _linear(augment(dataset.x), np.asarray(w, dtype=float))
    return _loss(z, e, np.asarray(H, dtype=float), y, t)


PARAMETRIC_FAMILIES = ("exponential", "weibull")  # H0(t) = t**shape
FAMILIES = ("npglm",) + PARAMETRIC_FAMILIES


@dataclass
class HazardModel:
    """Fitted proportional-hazards model: coefficients, baseline, transform.

    ``w`` has d+1 entries, the last being the bias on an implicit constant
    feature.  The baseline cumulative hazard H0 is the only part that
    depends on ``family``.  For "npglm", ``event_times``/``H`` tabulate it
    at the distinct (tie-resolved) training times; it is linear between
    knots, starts at (0, 0), and is flat past the last knot, the training
    horizon.  For "exponential" (shape 1) and "weibull" it is t**shape.
    Queries take raw-space feature vectors; the stored standardization is
    applied internally.
    """

    w: np.ndarray
    standardization: Standardization
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
        self.w = np.asarray(self.w, dtype=float)
        if self.family != "npglm":
            if not self.shape > 0:
                raise ValueError("shape must be positive")
            return
        self.event_times = np.asarray(self.event_times, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        if self.event_times.ndim != 1 or self.H.shape != self.event_times.shape:
            raise ValueError("event_times and H must be equal-length vectors")
        if len(self.event_times):
            if np.any(np.diff(self.event_times) <= 0):
                raise ValueError("event_times must be strictly increasing")
            if np.any(np.diff(self.H) < 0) or self.H[0] < 0:
                raise ValueError("H must be non-negative and non-decreasing")
        self._t_knots = np.concatenate(([0.0], self.event_times))
        self._H_knots = np.concatenate(([0.0], self.H))

    @property
    def d(self) -> int:
        return len(self.w) - 1

    @property
    def horizon(self) -> float:
        """Last training time of a tabulated baseline."""
        return float(self.event_times[-1])

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
        """Linear predictor w.x (+ bias) for raw-space feature rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return augment(self.standardization.apply(x)) @ self.w

    def raw_coefficients(self) -> tuple[np.ndarray, float]:
        """Coefficients mapped back to raw feature space: (weights, bias)."""
        wf = self.w[:-1] / self.standardization.std
        bias = float(self.w[-1] - np.sum(self.w[:-1] * self.standardization.mean
                                         / self.standardization.std))
        return wf, bias

    def to_json(self) -> dict:
        doc = {
            "family": self.family,
            "w": self.w.tolist(),
            "standardization": self.standardization.to_dict(),
            "unit": self.unit,
        }
        if self.family == "npglm":
            doc.update(event_times=self.event_times.tolist(), H=self.H.tolist(),
                       loss_trace=list(self.loss_trace), converged=bool(self.converged))
        else:
            doc["shape"] = float(self.shape)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "HazardModel":
        family = doc.get("family")
        if family == "npglm":
            family_fields = {
                "event_times": doc["event_times"],
                "H": doc["H"],
                "loss_trace": [float(v) for v in doc.get("loss_trace", [])],
                "converged": bool(doc.get("converged", True)),
            }
        elif family in PARAMETRIC_FAMILIES:
            family_fields = {"shape": float(doc["shape"])}
        else:
            raise ValueError(f"unknown family {family!r}")
        return cls(
            w=doc["w"],
            standardization=Standardization.from_dict(doc["standardization"]),
            family=family,
            unit=doc.get("unit", ""),
            **family_fields,
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "HazardModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _dedupe_knots(t: np.ndarray, H: np.ndarray):
    """Collapse duplicate times (censored ties) keeping the last H value."""
    keep = np.ones(len(t), dtype=bool)
    keep[:-1] = np.diff(t) > 0
    return t[keep], H[keep]


def fit(dataset: Dataset, config: FitConfig = FitConfig(), unit: str = "") -> HazardModel:
    """Damped Newton descent on the profile loss P(w) = loss(w, H(w)),
    with H(w) the Breslow estimator.

    Starts from w = 0.  The bias is pinned at 0 and left out of the
    Newton system: it cancels out of P, and H absorbs exp(bias).  Each
    iteration takes a least-squares Newton step (a Hessian singular along
    a zero-variance column gets the minimum-norm step), halves it until P
    drops by at least 1e-4 of the predicted linear decrease, and records
    the new P in the loss trace, which therefore never rises.  Stops when
    an iteration changes P by less than the threshold (also when no step
    can lower P by a representable amount), or after ``max_outer``
    iterations (returned with ``converged=False``).  The saved H and loss
    trace equal ``compute_H`` and ``loss`` at the returned w, on the
    features of ``Dataset.fit_features``.
    """
    if dataset.n_observed == 0:
        raise ValueError("cannot fit: dataset has no observed samples")
    x, stats = dataset.fit_features()
    y, t = _prepared(dataset)
    xa = augment(x)
    xt = np.ascontiguousarray(x.T)
    ev = np.flatnonzero(y)

    def profile(w):
        z, e = _linear(xa, w)
        risk, H = _hazard(e, y)
        value = _loss(z, e, H, y, t)
        if not np.isfinite(value):
            raise FloatingPointError(
                "non-finite loss while fitting; are the features standardized?")
        return e, risk[ev], H, value

    w = np.zeros(dataset.d + 1)
    e, S0, H, value = profile(w)
    trace: list[float] = []
    converged = False
    for _ in range(config.max_outer):
        grad = _gradient(xt, e, H, y)
        step = np.linalg.lstsq(_hessian(xt, e, H, ev, S0), -grad, rcond=None)[0]
        slope = float(grad @ step)
        step = np.append(step, 0.0)  # the bias stays pinned at 0
        prev, alpha = value, 1.0
        # backtrack while the wanted decrease is still representable
        while value + alpha * slope < value:
            trial = profile(w + alpha * step)
            if trial[-1] <= value + 1e-4 * alpha * slope:
                w = w + alpha * step
                e, S0, H, value = trial
                break
            alpha *= 0.5
        trace.append(value)
        if prev - value < config.threshold:
            converged = True
            break
    knots_t, knots_H = _dedupe_knots(t, H)
    return HazardModel(
        w=w, standardization=stats, event_times=knots_t, H=knots_H,
        unit=unit, loss_trace=trace, converged=converged,
    )


def interpolate_H(model: HazardModel, t: float) -> float:
    """Baseline cumulative hazard H0(t) as a float; a tabulated baseline is
    piecewise-linear through (0, 0) and the knots, clamped to H(t_N) beyond
    the training horizon."""
    if t < 0:
        raise ValueError("time must be non-negative")
    return float(model.H0(t))


def ranged_probability(model: HazardModel, x, t_a: float, t_b: float) -> float:
    """Probability that the event time falls in [t_a, t_b] given features x."""
    if not 0 <= t_a <= t_b:
        raise ValueError("need 0 <= t_a <= t_b")
    g = link_g(model.score(x))[0]
    p = np.exp(-g * model.H0(t_a)) - np.exp(-g * model.H0(t_b))
    return float(min(max(p, 0.0), 1.0))


def _check_alpha(alpha: float):
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")


def quantile_times(model: HazardModel, x, alpha: float):
    """Vectorized quantile over feature rows: (times, horizon_exceeded).

    Inverts the baseline at target H0 = -log(1-alpha)/g(w.x).  With a
    tabulated baseline, rows whose target exceeds the tabulated range get
    the training horizon back as a lower bound, flagged.
    """
    _check_alpha(alpha)
    return model.H0_inverse(-np.log1p(-alpha) / link_g(model.score(x)))


def quantile(model: HazardModel, x, alpha: float) -> TimeEstimate:
    """Smallest t with P(T <= t | x) = alpha for one feature row, through
    the same inverse as ``quantile_times``; alpha = 0.5 is the median."""
    _check_alpha(alpha)
    # Scalar arithmetic, not quantile_times on one row: numpy's array power
    # may round differently from the scalar t**(1/shape) in the last bit.
    time, exceeded = model.H0_inverse(-np.log1p(-alpha) / link_g(model.score(x))[0])
    return TimeEstimate(float(time), bool(exceeded))


def predict_median(model: HazardModel, x) -> TimeEstimate:
    return quantile(model, x, 0.5)


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
