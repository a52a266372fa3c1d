"""Parametric proportional-hazards baselines (Exponential, Weibull).

Event times follow S(t | x) = exp(-exp(w.x) * t^shape); the Exponential
family pins shape = 1, the Weibull family learns it.  Fit by the damped
Newton loop of the NP-GLM on the negative censored log-likelihood over
(w, log shape).  The result is a ``HazardModel`` with baseline
H0(t) = t^shape, queried through the functions in ``npglm``.
"""

from __future__ import annotations

import numpy as np

from .datasets import Dataset
from .npglm import PARAMETRIC_FAMILIES, FitConfig, HazardModel, _descend, _gram, _linear, augment

__all__ = ["fit_parametric"]


def _terms(theta, xa, y, t, log_t, learn_shape):
    """Negative log-likelihood over theta = (w[, log shape]), its gradient,
    and s = exp(z) t**shape, each power and exponential taken once."""
    w, log_a = (theta[:-1], theta[-1]) if learn_shape else (theta, 0.0)
    a = np.exp(log_a)
    z, e = _linear(xa, w)
    s = e * t ** a
    value = float(np.sum(s - y * z)) - float(np.sum(y * (log_a + (a - 1.0) * log_t)))
    grad = xa.T @ (s - y)
    if learn_shape:
        r = a * log_t  # d log(t**a) / d log a
        grad = np.append(grad, np.sum((s - y) * r) - np.sum(y))
    return value, grad, s


def _negative_ll(theta, xa, y, t, log_t, learn_shape):
    """Negative log-likelihood over theta = (w[, log shape]) and its
    gradient: the loss over w at H = t**shape, minus the shape terms."""
    return _terms(theta, xa, y, t, log_t, learn_shape)[:2]


def fit_parametric(dataset: Dataset, family: str = "weibull",
                   unit: str = "") -> HazardModel:
    """Maximum-likelihood fit of one parametric family.

    Runs ``npglm._descend`` under the default ``FitConfig`` from zero
    coefficients and unit shape, on the features of
    ``Dataset.fit_features``.
    """
    if family not in PARAMETRIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if dataset.n_observed == 0:
        raise ValueError("cannot fit: dataset has no observed samples")
    x, stats = dataset.fit_features()
    xa = augment(x)
    xat = np.ascontiguousarray(xa.T)
    y = dataset.y.astype(float)
    t = dataset.t
    log_t = np.log(t)
    learn_shape = family == "weibull"

    def evaluate(theta):
        value, grad, s = _terms(theta, xa, y, t, log_t, learn_shape)
        return value, (theta, grad, s)

    def derivatives(state):
        theta, grad, s = state  # s = exp(z) t**a weighs the w block
        d = xa.shape[1]
        hess = np.zeros((len(theta), len(theta)))
        _gram(xat, s, hess[:d, :d])
        if learn_shape:
            r = np.exp(theta[-1]) * log_t
            hess[-1, :-1] = hess[:-1, -1] = xat @ (s * r)
            hess[-1, -1] = np.sum(s * r * (1.0 + r) - y * r)
        return grad, hess

    theta0 = np.zeros(xa.shape[1] + learn_shape)
    theta, _, trace, converged = _descend(theta0, evaluate, derivatives, FitConfig())
    return HazardModel(w=theta[:xa.shape[1]], standardization=stats, family=family,
                       shape=float(np.exp(theta[-1])) if learn_shape else 1.0,
                       unit=unit, loss_trace=trace, converged=converged)
