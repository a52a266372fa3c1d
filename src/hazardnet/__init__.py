"""Predict when links form in temporal heterogeneous networks.

Pipeline: temporal graph -> windowed meta-path count features -> censored
survival dataset -> non-parametric or parametric proportional-hazards
GLM (one model type for both) -> probability/quantile/sampling queries
and ranking metrics.

Each module lists its public names in its own ``__all__``; the package
re-exports exactly those.
"""

from . import datasets, graph, metapaths, metrics, npglm, synthetic
from .datasets import *
from .graph import *
from .metapaths import *
from .metrics import *
from .npglm import *
from .synthetic import *

__version__ = "0.1.0"

__all__ = [*graph.__all__, *metapaths.__all__, *datasets.__all__, *npglm.__all__,
           *synthetic.__all__, *metrics.__all__, "__version__"]
