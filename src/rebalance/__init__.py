"""Resampling strategies for imbalanced tabular data.

The package covers classification strategies (random under/over
sampling, importance sampling, Tomek links, CNN, one-sided selection,
ENN, neighbourhood cleaning, Gaussian-noise and smote synthesis) and
their regression counterparts driven by a relevance function over the
target.  Datasets are plain CSV files with numeric and nominal columns;
every strategy is deterministic for a fixed seed.
"""

from .classif import (
    ClassPercSpec,
    ResampleError,
    StrategyOutcome,
    cnn_classif,
    enn_classif,
    gauss_noise_classif,
    imp_samp_classif,
    ncl_classif,
    oss_classif,
    rand_over_classif,
    rand_under_classif,
    smote_classif,
    tomek_classif,
)
from .distance import (
    Metric,
    MetricContext,
    MetricError,
    build_context,
    knn_table,
    pairwise,
)
from .regress import (
    BumpPercSpec,
    ImpSampParams,
    gauss_noise_regress,
    imp_samp_regress,
    rand_over_regress,
    rand_under_regress,
    smoter,
)
from .relevance import (
    Bump,
    BumpPartition,
    ControlPoint,
    RelevanceError,
    RelevanceFn,
    build_relevance_extremes,
    build_relevance_range,
    find_bumps,
)
from .synthgen import gen_imbc, gen_imbr
from .tabular import (
    ClassCounts,
    Column,
    ColumnKind,
    Dataset,
    TabularError,
    class_counts,
    read_dataset,
    write_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Bump",
    "BumpPartition",
    "BumpPercSpec",
    "ClassCounts",
    "ClassPercSpec",
    "Column",
    "ColumnKind",
    "ControlPoint",
    "Dataset",
    "ImpSampParams",
    "Metric",
    "MetricContext",
    "MetricError",
    "RelevanceError",
    "RelevanceFn",
    "ResampleError",
    "StrategyOutcome",
    "TabularError",
    "build_context",
    "build_relevance_extremes",
    "build_relevance_range",
    "class_counts",
    "cnn_classif",
    "enn_classif",
    "find_bumps",
    "gauss_noise_classif",
    "gauss_noise_regress",
    "gen_imbc",
    "gen_imbr",
    "imp_samp_classif",
    "imp_samp_regress",
    "knn_table",
    "ncl_classif",
    "oss_classif",
    "pairwise",
    "rand_over_classif",
    "rand_over_regress",
    "rand_under_classif",
    "rand_under_regress",
    "read_dataset",
    "smote_classif",
    "smoter",
    "tomek_classif",
    "write_dataset",
    "__version__",
]
