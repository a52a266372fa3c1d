"""Predict when links form in temporal heterogeneous networks.

Pipeline: temporal graph -> windowed meta-path count features -> censored
survival dataset -> non-parametric or parametric proportional-hazards
GLM (one model type for both) -> probability/quantile/sampling queries
and ranking metrics.
"""

from .graph import (
    GraphError,
    LinkType,
    Schema,
    TemporalGraph,
    load_graph,
    load_graph_file,
    load_schema,
    spmm,
    time_aware_adjacency,
)
from .metapaths import (
    MetaPath,
    MetaPathError,
    PairSeries,
    PrefixCache,
    SnapshotPlan,
    dynamic_series,
    endpoint_types,
    metapath_matrix,
    parse_metapath,
    read_metapath_file,
)
from .datasets import (
    Dataset,
    DatasetError,
    Standardization,
    WindowConfig,
    aggregate_expsmooth,
    aggregate_stack,
    build_dataset,
    candidate_pairs,
    label_pairs,
    load_dataset,
    save_dataset,
)
from .npglm import (
    FitConfig,
    HazardModel,
    TimeEstimate,
    compute_H,
    fit,
    link_g,
    loss,
    quantile,
    quantile_times,
    ranged_probability,
    sample_time,
)
from .baselines import fit_parametric
from .synthetic import SynthConfig, SynthOutput, generate
from .metrics import EvalReport, concordance_index, evaluate, point_metrics

__version__ = "0.1.0"

__all__ = [
    "GraphError", "LinkType", "Schema", "TemporalGraph",
    "load_graph", "load_graph_file", "load_schema", "spmm", "time_aware_adjacency",
    "MetaPath", "MetaPathError", "PairSeries", "PrefixCache", "SnapshotPlan",
    "dynamic_series", "endpoint_types", "metapath_matrix", "parse_metapath", "read_metapath_file",
    "Dataset", "DatasetError", "Standardization",
    "WindowConfig", "aggregate_expsmooth", "aggregate_stack", "build_dataset",
    "candidate_pairs", "label_pairs", "load_dataset", "save_dataset",
    "FitConfig", "HazardModel", "TimeEstimate", "compute_H", "fit",
    "link_g", "loss",
    "quantile", "quantile_times", "ranged_probability", "sample_time",
    "fit_parametric",
    "SynthConfig", "SynthOutput", "generate",
    "EvalReport", "concordance_index", "evaluate", "point_metrics",
    "__version__",
]
