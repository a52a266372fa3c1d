"""Seeded synthetic survival datasets with known ground truth.

Features are standard normal; the event rate of sample i is
alpha_i = exp(w.x_i + b) with w, b themselves standard normal.  Times are
drawn by inverse transform from a Rayleigh (S = exp(-alpha t^2 / 2)) or
Gompertz (S = exp(-alpha (e^t - 1))) law, sorted ascending, and the
largest times are flagged censored while keeping their drawn values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

__all__ = ["SynthConfig", "SynthOutput", "generate", "draw_dataset", "save_truth"]

DISTRIBUTIONS = ("rayleigh", "gompertz")
CENSORING_POLICIES = ("tail", "random")


@dataclass(frozen=True)
class SynthConfig:
    n_observed: int
    n_censored: int
    d: int
    dist: str
    seed: int = 0

    def __post_init__(self):
        if self.n_observed < 1:
            raise ValueError("n_observed must be >= 1")
        if self.n_censored < 0:
            raise ValueError("n_censored must be >= 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {DISTRIBUTIONS}")

    @property
    def n(self) -> int:
        return self.n_observed + self.n_censored


@dataclass(frozen=True)
class SynthOutput:
    dataset: Dataset
    true_w: np.ndarray
    true_b: float


def _draw_times(dist: str, alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    if dist == "rayleigh":
        return np.sqrt(-2.0 * np.log(u) / alpha)
    return np.log1p(-np.log(u) / alpha)


def generate(config: SynthConfig, policy: str = "tail") -> SynthOutput:
    """Draw ground truth w, b, then one dataset from it; bit-for-bit
    reproducible from the seed.

    policy "tail" censors exactly the n_censored largest times; "random"
    censors a uniformly chosen subset instead.  Either way censored rows
    keep their drawn times.
    """
    rng = np.random.default_rng(config.seed)
    w = rng.standard_normal(config.d)
    b = float(rng.standard_normal())
    dataset = draw_dataset(rng, config, w, b, policy)
    return SynthOutput(dataset=dataset, true_w=w, true_b=b)


def draw_dataset(rng: np.random.Generator, config: SynthConfig, w: np.ndarray,
                 b: float, policy: str = "tail") -> Dataset:
    """Draw config.n rows from fixed ground truth w, b, sorted by time,
    censored by ``policy`` as in ``generate``."""
    if policy not in CENSORING_POLICIES:
        raise ValueError(f"policy must be one of {CENSORING_POLICIES}")
    n = config.n
    x = rng.standard_normal((n, config.d))
    alpha = np.exp(x @ w + b)
    u = rng.uniform(size=n)
    while np.any(u == 0.0):
        zero = u == 0.0
        u[zero] = rng.uniform(size=int(zero.sum()))
    t = _draw_times(config.dist, alpha, u)
    order = np.argsort(t, kind="stable")
    x, t = x[order], t[order]
    y = np.zeros(n, dtype=int)
    if policy == "tail":
        y[: config.n_observed] = 1
    else:
        censored = rng.choice(n, size=config.n_censored, replace=False)
        y[:] = 1
        y[censored] = 0
    pairs = [(i, i) for i in range(n)]
    return Dataset(x=x, y=y, t=t, pairs=pairs)


def save_truth(path, output: SynthOutput, config: SynthConfig) -> None:
    doc = {
        "w": output.true_w.tolist(),
        "b": output.true_b,
        "dist": config.dist,
        "seed": config.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
