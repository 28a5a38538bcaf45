"""Experiment drivers: replica sweeps, parallel maps, diagnostic fits.

Parallelism contract: replicas are mapped over a process pool in replica
order with chunk size 1 and merged by index, and every replica's randomness
comes from its own substream, so results are identical for any worker
count.  Worker functions take one picklable argument tuple and live at
module top level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import RejectionLimitError
from .measure import dimension
from .percolation import (
    LazyTree,
    PercolationConfig,
    descendant_counts,
    grid_from_digit_order,
)
from .qsampler import (
    DEFAULT_PROBE_DEPTH,
    QPath,
    WeightedMean,
    ensemble_config,
    ensemble_view,
    sample_qpath,
)
from .estimators import (
    CovarianceEstimate,
    EnsembleEstimate,
    covariance_from_paths,
    ensemble_from_sweep,
)


def _ordered_map(fn, argses: Sequence, workers: int) -> Iterator:
    """Yield fn(args) in input order, in this process or over a pool.

    A worker's exception is raised here when its result is reached, after
    every earlier result has been yielded; leaving the loop closes the pool.
    The pool never has more processes than there are tasks.
    """
    if workers <= 1 or len(argses) <= 1:
        yield from map(fn, argses)
        return
    with Pool(processes=min(workers, len(argses))) as pool:
        yield from pool.imap(fn, argses, chunksize=1)


# -- worker functions (top level for pickling) --------------------------------


def _path_worker(args) -> QPath:
    # args: config, n, r, g, eps_grid, replica, max_attempts
    return sample_qpath(*args)


def _sweep_worker(args) -> Tuple[float, int]:
    config, r, g, replica = args
    view = ensemble_view(config, r, g, replica)
    return float(view.word_weights.sum()), int(view.a_star)


def _profile_worker(args) -> List[int]:
    config, depth, replica = args
    cfg = ensemble_config(config, replica)
    tree = LazyTree(cfg)
    return tree.count_profile(cfg.root_word(), depth)


def _slice_worker(args) -> List[Tuple[int, int]]:
    config, resolutions, g, axis, position, replica = args
    cfg = ensemble_config(config, replica)
    tree = LazyTree(cfg)
    out = []
    for r in resolutions:
        counts = descendant_counts(tree, cfg.root_word(), r, g)
        grid = grid_from_digit_order(counts, cfg.m, cfg.k, r)
        index = [slice(None)] * cfg.m
        index[axis] = slice(position, position + 1)
        out.append((int(counts.sum()), int(grid[tuple(index)].sum())))
    return out


# -- batch drivers -------------------------------------------------------------


def run_path_batch(
    config: PercolationConfig,
    paths: int,
    n: int,
    r: int,
    g: int,
    eps_grid: Optional[Sequence[float]] = None,
    workers: int = 1,
    max_attempts: int = 1000,
) -> List[QPath]:
    """Sample ``paths`` independent mass-biased paths, in replica order."""
    done, err = run_path_batch_partial(
        config, paths, n, r, g, eps_grid, workers, max_attempts
    )
    if err is not None:
        raise err
    return done


def run_path_batch_partial(
    config: PercolationConfig,
    paths: int,
    n: int,
    r: int,
    g: int,
    eps_grid: Optional[Sequence[float]] = None,
    workers: int = 1,
    max_attempts: int = 1000,
) -> Tuple[List[QPath], Optional[RejectionLimitError]]:
    """Like run_path_batch, but keeps completed paths when rejection fails.

    Returns (paths, error).  error is None on full success; otherwise it is
    the first RejectionLimitError hit, and the list holds every path whose
    replica index precedes the failing one (ordered iteration guarantees
    the prefix is intact).
    """
    argses = [
        (config, n, r, g, eps_grid, replica, max_attempts)
        for replica in range(paths)
    ]
    done: List[QPath] = []
    try:
        for path in _ordered_map(_path_worker, argses, workers):
            done.append(path)
    except RejectionLimitError as exc:
        return done, exc
    return done, None


def ensemble_sweep_parallel(
    config: PercolationConfig, r: int, g: int, replicas: int, workers: int = 1
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-replica (deep root weight, largest empty block) pairs.

    One depth-(r+g) expansion per replica yields both the total word weight
    (the root martingale estimate at depth r+g) and the geometry needed for
    every alpha at once; hole indicators at any threshold are then pure
    arithmetic on these two arrays.
    """
    argses = [(config, r, g, i) for i in range(replicas)]
    rows = list(_ordered_map(_sweep_worker, argses, workers))
    weights = np.array([w for w, _ in rows])
    blocks = np.array([b for _, b in rows], dtype=np.int64)
    return weights, blocks


def ensemble_mean_porosity(
    config: PercolationConfig,
    alpha: Union[float, Sequence[float]],
    r: int,
    g: int = DEFAULT_PROBE_DEPTH,
    replicas: int = 1000,
) -> Union[
    Tuple[EnsembleEstimate, EnsembleEstimate],
    List[Tuple[EnsembleEstimate, EnsembleEstimate]],
]:
    """Importance-weighted bracket for the scale-0 hole frequency.

    Accepts one alpha or a whole ladder; the ladder reuses a single replica
    sweep, so asking for twenty alphas costs the same as one.
    """
    scalar = np.isscalar(alpha)
    alphas = [float(alpha)] if scalar else [float(a) for a in alpha]
    weights, blocks = ensemble_sweep_parallel(config, r, g, replicas)
    pairs = ensemble_from_sweep(config, alphas, r, g, weights, blocks)
    return pairs[0] if scalar else pairs


def covariance_experiment(
    config: PercolationConfig,
    alpha: float,
    r: int,
    g: int,
    lags: Sequence[int],
    replicas: int,
    workers: int = 1,
    max_attempts: int = 1000,
) -> List[CovarianceEstimate]:
    """Covariance probes for several lags from one shared path batch."""
    lags = sorted(set(int(l) for l in lags))
    n = max(lags) + 1
    paths = run_path_batch(
        config,
        paths=replicas,
        n=n,
        r=r,
        g=g,
        eps_grid=(),
        workers=workers,
        max_attempts=max_attempts,
    )
    return [covariance_from_paths(paths, alpha, lag) for lag in lags]


# -- diagnostic fits ------------------------------------------------------------


@dataclass
class DimensionSlope:
    """Box-counting style slope fit of retained populations vs depth."""

    slope: float
    dimension_value: float  # closed-form target m + log p / log k
    depths: Tuple[int, ...]
    mean_counts: np.ndarray
    log_means: np.ndarray  # base-k logs of the survivor means
    trees: int
    candidates: int  # replicas inspected to find the surviving trees


def dimension_slope(
    config: PercolationConfig,
    depths: Sequence[int] = tuple(range(4, 13)),
    trees: int = 200,
    workers: int = 1,
) -> DimensionSlope:
    """Fit the growth rate of survivor populations against depth.

    The mean retained count at depth j grows like k^(j d), so the base-k
    log of the survivor-conditioned means against j has slope close to d
    (conditioning on survival to the deepest queried level biases means by
    a depth-independent factor at these sizes).  Candidates are consumed in
    replica order until ``trees`` survivors are found, which keeps the
    selected set independent of the worker count; at most 20 * ``trees``
    candidates are inspected.
    """
    depths = tuple(sorted(int(j) for j in depths))
    if depths[0] < 1:
        raise ValueError("depths must be >= 1")
    max_depth = depths[-1]
    cap = 20 * trees
    profiles: List[List[int]] = []
    candidates = 0
    while len(profiles) < trees and candidates < cap:
        block = min(trees, cap - candidates)
        argses = [(config, max_depth, candidates + i) for i in range(block)]
        for profile in list(_ordered_map(_profile_worker, argses, workers)):
            candidates += 1
            if profile[max_depth] > 0:
                profiles.append(profile)
                if len(profiles) == trees:
                    break
    if len(profiles) < trees:
        raise RejectionLimitError(
            candidates,
            f"only {len(profiles)} of {trees} trees survived to depth "
            f"{max_depth} within {candidates} candidates",
        )
    counts = np.array([[prof[j] for j in depths] for prof in profiles], dtype=np.float64)
    mean_counts = counts.mean(axis=0)
    log_means = np.log(mean_counts) / math.log(config.k)
    slope = float(np.polyfit(depths, log_means, 1)[0])
    return DimensionSlope(
        slope=slope,
        dimension_value=dimension(config),
        depths=depths,
        mean_counts=mean_counts,
        log_means=log_means,
        trees=trees,
        candidates=candidates,
    )


@dataclass
class SliceDecay:
    """Mass caught by a one-cell slab, across resolutions."""

    resolutions: Tuple[int, ...]
    axis: int
    position: int
    trees: int
    surviving: Tuple[int, ...]  # trees with any retained nodes, per resolution
    mean_fraction: np.ndarray  # mean slab/total over surviving trees
    se: np.ndarray
    observed_ratios: np.ndarray  # consecutive-mean ratios, coarse over fine
    theory_ratios: np.ndarray  # k^((r2-r1)(d-(m-1))) per consecutive pair


def slice_decay(
    config: PercolationConfig,
    resolutions: Sequence[int] = (4, 8),
    trees: int = 1000,
    g: int = 2,
    axis: int = 0,
    position: int = 0,
    workers: int = 1,
) -> SliceDecay:
    """Estimate how fast one-cell-wide slabs lose mass as the grid refines.

    The slab fraction is a counts ratio (the common mass rescale cancels),
    evaluated at a fixed slab position; positions are exchangeable under
    relabeling of subcubes, so any fixed choice is representative.
    """
    resolutions = tuple(sorted(int(r) for r in resolutions))
    if not 0 <= axis < config.m:
        raise ValueError(f"axis {axis} out of range")
    if not 0 <= position < config.k ** resolutions[0]:
        raise ValueError("slab position outside the coarsest grid")
    argses = [
        (config, resolutions, g, axis, position, i) for i in range(trees)
    ]
    rows = list(_ordered_map(_slice_worker, argses, workers))
    fractions: List[np.ndarray] = []
    surviving = []
    for ri in range(len(resolutions)):
        vals = []
        for per_tree in rows:
            total, slab = per_tree[ri]
            if total > 0:
                vals.append(slab / total)
        fractions.append(np.array(vals))
        surviving.append(len(vals))
    stats = [WeightedMean.from_values(v) for v in fractions]
    mean_fraction = np.array([s.estimate for s in stats])
    se = np.array([s.se for s in stats])
    d = dimension(config)
    observed, theory = [], []
    for (r1, f1), (r2, f2) in zip(
        zip(resolutions, mean_fraction), zip(resolutions[1:], mean_fraction[1:])
    ):
        observed.append(f1 / f2 if f2 > 0 else math.inf)
        theory.append(float(config.k) ** ((r2 - r1) * (d - (config.m - 1))))
    return SliceDecay(
        resolutions=resolutions,
        axis=axis,
        position=position,
        trees=trees,
        surviving=tuple(surviving),
        mean_fraction=mean_fraction,
        se=se,
        observed_ratios=np.array(observed),
        theory_ratios=np.array(theory),
    )
