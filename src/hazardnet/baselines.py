"""Parametric proportional-hazards baselines (Exponential, Weibull).

Event times follow S(t | x) = exp(-exp(w.x) * t^shape); the Exponential
family pins shape = 1, the Weibull family learns it.  Fit by maximizing
the censored log-likelihood with quasi-Newton descent over (w, log shape).
The result is a ``HazardModel`` with baseline H0(t) = t^shape, queried
through the functions in ``npglm``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .datasets import Dataset, Standardization
from .npglm import _CLAMP, PARAMETRIC_FAMILIES, HazardModel, augment

__all__ = ["fit_parametric"]


def _negative_ll(theta, xa, y, t, log_t, learn_shape):
    if learn_shape:
        w, log_a = theta[:-1], theta[-1]
    else:
        w, log_a = theta, 0.0
    a = np.exp(log_a)
    z = np.clip(xa @ w, -_CLAMP, _CLAMP)
    ta = t ** a
    ez_ta = np.exp(z) * ta
    ll = np.sum(y * (z + log_a + (a - 1.0) * log_t) - ez_ta)
    grad_w = xa.T @ (y - ez_ta)
    if learn_shape:
        grad_la = np.sum(y * (1.0 + a * log_t) - a * ez_ta * log_t)
        grad = np.concatenate([grad_w, [grad_la]])
    else:
        grad = grad_w
    return -float(ll), -grad


def fit_parametric(dataset: Dataset, family: str = "weibull",
                   max_steps: int = 500, grad_tol: float = 1e-8,
                   unit: str = "", standardize: bool = True) -> HazardModel:
    """Maximum-likelihood fit of one parametric family.

    Starts from zero coefficients and unit shape.  A dataset without a
    recorded feature transform is standardized first (unless disabled).
    """
    if family not in PARAMETRIC_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if dataset.n_observed == 0:
        raise ValueError("cannot fit: dataset has no observed samples")
    stats = dataset.standardization
    x = dataset.x
    if stats is None:
        if standardize:
            stats = Standardization.fit(x)
            x = stats.apply(x)
        else:
            stats = Standardization.identity(dataset.d)
    xa = augment(x)
    y = dataset.y.astype(float)
    t = dataset.t
    log_t = np.log(t)
    learn_shape = family == "weibull"
    theta0 = np.zeros(xa.shape[1] + (1 if learn_shape else 0))
    res = minimize(
        _negative_ll, theta0, args=(xa, y, t, log_t, learn_shape),
        jac=True, method="L-BFGS-B",
        options={"maxiter": max_steps, "gtol": grad_tol, "ftol": 1e-14},
    )
    if not np.isfinite(res.fun):
        raise FloatingPointError("non-finite likelihood while fitting baseline")
    if learn_shape:
        w, shape = res.x[:-1], float(np.exp(res.x[-1]))
    else:
        w, shape = res.x, 1.0
    return HazardModel(w=w, standardization=stats, family=family, shape=shape,
                       unit=unit)
