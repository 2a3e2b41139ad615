"""Landscape analysis and algorithm selection over sampled designs.

The pipeline runs in stages, each a module of its own:

- :mod:`landsel.space` — mixed search spaces (continuous / integer /
  categorical variables with optional hierarchical conditions), builtin
  problem instances, exact objective transforms.
- :mod:`landsel.sampling` — initial designs (uniform, Latin hypercube,
  Sobol), evaluation, CSV round-trips.
- :mod:`landsel.preprocess` — one pass from an evaluated design to the unit
  cube: hierarchy relaxation, exact min-max objective normalization, then
  bound scaling or one-hot / target encoding of each variable.
- :mod:`landsel.ela` — the 45-feature landscape vector (summary models,
  objective distribution, dispersion, information content, nearest-better
  clustering, fitness-distance correlation).
- :mod:`landsel.fitmap` — feature-free representations: 2D fitness maps,
  PCA projections, multi-channel stacks with mean reduction, kNN clouds.
- :mod:`landsel.aas` — ERT tables, SBS/VBS baselines, and
  leave-one-group-out evaluation with gap-closure reporting; selectors are
  fitted and scored only inside ``cross_validate``.
- :mod:`landsel.cli` — the ``landsel`` batch command.
"""

from .aas import (
    ErtTable,
    PerformanceRecord,
    cross_validate,
    f1_macro,
    gap_closure,
    impute_table,
    sbs,
    vbs_performance,
)
from .ela import ElaConfig, FeatureVector, compute_all, feature_names
from .fitmap import FitnessMap, MapStack, knn_cloud, multichannel, rasterize_2d, reduce_mean
from .preprocess import ProcessedDesign, minmax_unit, preprocess_pipeline
from .sampling import Design, create_initial_design, design_from_csv, design_to_csv, evaluate_design
from .space import (
    ObjectiveTransform,
    Problem,
    SearchSpace,
    VariableSpec,
    apply_transform,
    builtin_problem,
)

__version__ = "0.1.0"

__all__ = [
    "Design",
    "ElaConfig",
    "ErtTable",
    "FeatureVector",
    "FitnessMap",
    "MapStack",
    "ObjectiveTransform",
    "PerformanceRecord",
    "Problem",
    "ProcessedDesign",
    "SearchSpace",
    "VariableSpec",
    "apply_transform",
    "builtin_problem",
    "compute_all",
    "create_initial_design",
    "cross_validate",
    "design_from_csv",
    "design_to_csv",
    "evaluate_design",
    "f1_macro",
    "feature_names",
    "gap_closure",
    "impute_table",
    "knn_cloud",
    "minmax_unit",
    "multichannel",
    "preprocess_pipeline",
    "rasterize_2d",
    "reduce_mean",
    "sbs",
    "vbs_performance",
    "__version__",
]
