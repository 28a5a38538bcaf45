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
    MissingParameterError,
    PercolabError,
    RejectionLimitError,
    ZeroMassError,
)
from .grids import MassGrid, OccupancyGrid
from .words import Word
from .percolation import LazyTree, PercolationConfig, descendant_counts
from .measure import dimension, expand_occupancy, mass_grid, slice_mass, x_estimate
from .holes import (
    ball_box,
    ball_mass_sweep,
    ball_measure_porosity,
    ball_porosities,
    ball_set_porosity,
    cells_threshold,
    discrepancy_indicator,
    empty_block_sides,
    hole_bracket,
    max_empty_block,
    measure_hole_indicator,
    min_window_sum,
    por_conversion,
    restricted_max_empty_block,
    window_min_sweep,
    window_sums,
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
    EnsembleEstimate,
    MeanPorositySeries,
    PorosityExtremes,
    covariance_from_paths,
    discrepancy_rate,
    mean_porosity_series,
    path_average_bracket,
    porosity_extremes,
    running_mean,
    x_tail_frequency,
)
from .experiments import (
    DimensionSlope,
    SliceDecay,
    covariance_experiment,
    dimension_slope,
    ensemble_mean_porosity,
    ensemble_sweep_parallel,
    run_path_batch,
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
    "MissingParameterError",
    "Word",
    "OccupancyGrid",
    "MassGrid",
    "PercolationConfig",
    "LazyTree",
    "descendant_counts",
    "dimension",
    "x_estimate",
    "expand_occupancy",
    "mass_grid",
    "slice_mass",
    "empty_block_sides",
    "max_empty_block",
    "restricted_max_empty_block",
    "window_sums",
    "min_window_sum",
    "window_min_sweep",
    "cells_threshold",
    "hole_bracket",
    "measure_hole_indicator",
    "discrepancy_indicator",
    "ball_box",
    "ball_set_porosity",
    "ball_mass_sweep",
    "ball_measure_porosity",
    "ball_porosities",
    "por_conversion",
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
    "running_mean",
    "MeanPorositySeries",
    "mean_porosity_series",
    "EnsembleEstimate",
    "ensemble_mean_porosity",
    "path_average_bracket",
    "CovarianceEstimate",
    "covariance_from_paths",
    "x_tail_frequency",
    "discrepancy_rate",
    "PorosityExtremes",
    "porosity_extremes",
    "run_path_batch",
    "run_path_batch_partial",
    "ensemble_sweep_parallel",
    "covariance_experiment",
    "DimensionSlope",
    "dimension_slope",
    "SliceDecay",
    "slice_decay",
    "__version__",
]
