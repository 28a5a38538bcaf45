"""Statistics assembled from paths and replica ensembles.

Two estimator families attack the same quantities from opposite ends:
per-path running averages (one tree, many scales) and importance-weighted
ensembles (many trees, scale zero).  Stationarity of the scale sequence
makes their targets coincide, so agreement between the two is the main
self-consistency check this package offers.  Every hole quantity is
reported as a lower/upper pair; the truth at infinite depth sits in
between, and no point estimate of it is ever produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .holes import cells_threshold, set_hole_indicators
from .percolation import PercolationConfig
from .qsampler import Z95, QPath, WeightedMean


# -- importance-weighted ensemble estimates ----------------------------------


def ensemble_from_sweep(
    config: PercolationConfig,
    alphas: Sequence[float],
    r: int,
    weights: np.ndarray,
    blocks: np.ndarray,
) -> List[Tuple[WeightedMean, WeightedMean]]:
    """(lower, upper) estimates for many alphas from one replica sweep.

    Only alive words carry weight, and every alive word's cell is occupied,
    so forcing any such center leaves the largest empty block unchanged;
    the per-word weighted sum therefore collapses to
    weight * [a_star >= threshold], which is what gets averaged.
    """
    side = config.k ** r
    out = []
    for alpha in alphas:
        pair = set_hole_indicators(blocks, cells_threshold(float(alpha), side))
        out.append(tuple(WeightedMean.from_values(weights * holes) for holes in pair))
    return out


# -- path-average estimates ---------------------------------------------------


def path_average_bracket(
    paths: Sequence[QPath], alpha: float
) -> Tuple[WeightedMean, WeightedMean]:
    """Across-path mean of the per-path hole frequencies, as a bracket.

    Each path contributes its own n-scale average, so the standard error
    reflects path-to-path spread and stays honest about within-path
    correlation.
    """
    lower_means = np.array([p.set_hole_lower(alpha).mean() for p in paths])
    upper_means = np.array([p.set_hole_upper(alpha).mean() for p in paths])
    return WeightedMean.from_values(lower_means), WeightedMean.from_values(upper_means)


# -- covariance probe ---------------------------------------------------------


@dataclass
class CovarianceEstimate:
    alpha: float
    r: int
    g: int
    lag: int
    replicas: int
    covariance: float
    se: float
    ci_low: float
    ci_high: float
    mean_first: float
    mean_second: float


def covariance_from_paths(
    paths: Sequence[QPath], alpha: float, lag: int
) -> CovarianceEstimate:
    """Plug-in covariance of the certified indicator at scales 1 and 1+lag.

    One pair per path keeps the pairs independent across replicas; using
    many pairs per path would entangle them through the shared tree and
    understate the error.  lag 0 degenerates to the variance q(1-q).
    """
    if lag < 0:
        raise ValueError("lag must be >= 0")
    if any(p.n < lag + 1 for p in paths):
        raise ValueError(f"paths must record at least {lag + 1} scales")
    lower = [p.set_hole_lower(alpha) for p in paths]
    a = np.array([float(h[0]) for h in lower])
    b = np.array([float(h[lag]) for h in lower])
    cov = float((a * b).mean() - a.mean() * b.mean())
    se = WeightedMean.from_values((a - a.mean()) * (b - b.mean())).se
    return CovarianceEstimate(
        alpha=float(alpha),
        r=paths[0].r,
        g=paths[0].g,
        lag=lag,
        replicas=len(paths),
        covariance=cov,
        se=se,
        ci_low=cov - Z95 * se,
        ci_high=cov + Z95 * se,
        mean_first=float(a.mean()),
        mean_second=float(b.mean()),
    )


# -- porosity extremes --------------------------------------------------------


@dataclass
class PorosityExtremes:
    """Running extremes of the per-scale ball porosities of one path."""

    set_min: np.ndarray  # (n,) nonincreasing
    set_max: np.ndarray  # (n,) nondecreasing
    meas_min: np.ndarray  # (n,) + eps shape
    meas_max: np.ndarray


def porosity_extremes(path: QPath, eps) -> PorosityExtremes:
    """Running extremes of one path; an eps sequence adds a last axis to the measure's."""
    set_por, meas_por = path.set_porosity, path.measure_porosity(eps)
    return PorosityExtremes(
        set_min=np.minimum.accumulate(set_por),
        set_max=np.maximum.accumulate(set_por),
        meas_min=np.minimum.accumulate(meas_por, axis=0),
        meas_max=np.maximum.accumulate(meas_por, axis=0),
    )
