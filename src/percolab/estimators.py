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
from .errors import MissingParameterError
from .qsampler import Z95, QPath, WeightedMean


def running_mean(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.cumsum(values) / np.arange(1, len(values) + 1)


@dataclass
class EnsembleEstimate:
    """Point estimate of one indicator mean with a normal 95% interval."""

    alpha: float
    r: int
    g: int
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    replicas: int
    kind: str  # "importance-weighted" | "path-average"


def _bracket(
    lower_values: np.ndarray, upper_values: np.ndarray, alpha: float, r: int, g: int, kind: str
) -> Tuple[EnsembleEstimate, EnsembleEstimate]:
    """Lower and upper estimates of one alpha from per-replica values."""
    pair = []
    for values in (lower_values, upper_values):
        mean = WeightedMean.from_values(values)
        pair.append(
            EnsembleEstimate(
                alpha=float(alpha),
                r=r,
                g=g,
                estimate=mean.estimate,
                se=mean.se,
                ci_low=mean.ci_low,
                ci_high=mean.ci_high,
                replicas=mean.replicas,
                kind=kind,
            )
        )
    return pair[0], pair[1]


# -- importance-weighted ensemble estimates ----------------------------------


def ensemble_from_sweep(
    config: PercolationConfig,
    alphas: Sequence[float],
    r: int,
    g: int,
    weights: np.ndarray,
    blocks: np.ndarray,
) -> List[Tuple[EnsembleEstimate, EnsembleEstimate]]:
    """Bracket estimates for many alphas from one replica sweep.

    Only alive words carry weight, and every alive word's cell is occupied,
    so forcing any such center leaves the largest empty block unchanged;
    the per-word weighted sum therefore collapses to
    weight * [a_star >= threshold], which is what gets averaged.
    """
    side = config.k ** r
    out = []
    for alpha in alphas:
        thr = cells_threshold(float(alpha), side)
        lower, upper = set_hole_indicators(blocks, thr)
        out.append(_bracket(weights * lower, weights * upper, alpha, r, g, "importance-weighted"))
    return out


# -- path-average estimates ---------------------------------------------------


def path_average_bracket(
    paths: Sequence[QPath], alpha: float
) -> Tuple[EnsembleEstimate, EnsembleEstimate]:
    """Across-path mean of the per-path hole frequencies, as a bracket.

    Each path contributes its own n-scale average, so the standard error
    reflects path-to-path spread and stays honest about within-path
    correlation.
    """
    lower_means = np.array([p.set_hole_lower(alpha).mean() for p in paths])
    upper_means = np.array([p.set_hole_upper(alpha).mean() for p in paths])
    return _bracket(lower_means, upper_means, alpha, paths[0].r, paths[0].g, "path-average")


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
    a = np.array([float(p.set_hole_lower(alpha)[0]) for p in paths])
    b = np.array([float(p.set_hole_lower(alpha)[lag]) for p in paths])
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


# -- per-path diagnostics ------------------------------------------------------


def discrepancy_rate(path: QPath, alpha: float, eps: float, delta: float) -> np.ndarray:
    """Running rate of measure holes the set bracket cannot account for."""
    return running_mean(path.discrepancy(alpha, eps, delta))


@dataclass
class PorosityExtremes:
    """Running extremes of the per-scale ball porosities of one path."""

    eps_grid: Tuple[float, ...]
    set_min: np.ndarray  # (n,) nonincreasing
    set_max: np.ndarray  # (n,) nondecreasing
    meas_min: np.ndarray  # (n, n_eps)
    meas_max: np.ndarray

    def for_eps(self, eps: float) -> Tuple[np.ndarray, np.ndarray]:
        for ie, entry in enumerate(self.eps_grid):
            if abs(entry - eps) <= 1e-12:
                return self.meas_min[:, ie], self.meas_max[:, ie]
        raise MissingParameterError(f"eps={eps} is not on the recorded grid {self.eps_grid}")


def porosity_extremes(path: QPath) -> PorosityExtremes:
    return PorosityExtremes(
        eps_grid=path.eps_grid,
        set_min=np.minimum.accumulate(path.set_por),
        set_max=np.maximum.accumulate(path.set_por),
        meas_min=np.minimum.accumulate(path.meas_por, axis=0),
        meas_max=np.maximum.accumulate(path.meas_por, axis=0),
    )
