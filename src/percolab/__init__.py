"""percolab: fractal percolation sets, their natural measure, and hole geometry.

The package simulates random recursive subdivision of the unit cube (each
k-adic child cell survives independently with probability p), exposes the
normalized cell-count martingale and the limit measure on dyadic grids, and
estimates multi-scale hole and porosity statistics along mass-biased zoom
paths and over importance-weighted tree ensembles.
"""

from .errors import (
    DeadSubtreeError,
    MemoryBudgetError,
    PercolabError,
    RejectionLimitError,
    ZeroMassError,
)
from .percolation import LazyTree, PercolationConfig, descendant_counts, dimension
from .holes import (
    ball_box,
    ball_porosities,
    cells_threshold,
    empty_block_sides,
    max_empty_block,
    restricted_max_empty_block,
    window_min_sweep,
)
from .qsampler import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_EPS_GRID,
    DEFAULT_PROBE_DEPTH,
    QPath,
    ReplicaView,
    WeightedMean,
    ensemble_view,
    importance_functional,
    replica_config,
    sample_qpath,
)
from .estimators import (
    CovarianceEstimate,
    PorosityExtremes,
    covariance_from_paths,
    path_average_bracket,
    porosity_extremes,
)
from .experiments import (
    DimensionSlope,
    SliceDecay,
    dimension_slope,
    ensemble_sweep_parallel,
    run_path_batch_partial,
    slice_decay,
)

__version__ = "0.1.0"

__all__ = [
    "PercolabError",
    "MemoryBudgetError",
    "DeadSubtreeError",
    "RejectionLimitError",
    "ZeroMassError",
    "PercolationConfig",
    "LazyTree",
    "descendant_counts",
    "dimension",
    "empty_block_sides",
    "max_empty_block",
    "restricted_max_empty_block",
    "window_min_sweep",
    "cells_threshold",
    "ball_box",
    "ball_porosities",
    "DEFAULT_PROBE_DEPTH",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_EPS_GRID",
    "QPath",
    "sample_qpath",
    "replica_config",
    "ReplicaView",
    "ensemble_view",
    "importance_functional",
    "WeightedMean",
    "path_average_bracket",
    "CovarianceEstimate",
    "covariance_from_paths",
    "PorosityExtremes",
    "porosity_extremes",
    "run_path_batch_partial",
    "ensemble_sweep_parallel",
    "DimensionSlope",
    "dimension_slope",
    "SliceDecay",
    "slice_decay",
    "__version__",
]
