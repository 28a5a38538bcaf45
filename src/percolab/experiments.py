"""Experiment drivers: replica sweeps, parallel maps, diagnostic fits.

Parallelism contract: tasks are mapped over a process pool in replica
order with chunk size 1 and merged by index, and every replica's randomness
comes from its own substream, so results are identical for any worker
count.  A task is one replica, except in the ensemble sweep, where it is a
stack of consecutive replicas whose grids share one empty-block pass.
Worker functions take one picklable argument tuple and live at module top
level.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import RejectionLimitError
from .holes import max_empty_block
from .percolation import LazyTree, PercolationConfig, capped_power, dimension
from .qsampler import (
    DEFAULT_MAX_ATTEMPTS,
    QPath,
    WeightedMean,
    ensemble_config,
    ensemble_view,
    sample_qpath,
    stack_size,
)
from .rng import hash_kernel


@contextmanager
def _mapper(workers: int, tasks: int) -> Iterator[Callable]:
    """An ordered map for one run: ``map_(fn, argses)`` yields fn(args) in input order.

    It maps in this process, or over one pool of ``min(workers, tasks)``
    processes that every call shares, where ``tasks`` is the most any one
    call maps.  A worker's exception is raised when its result is reached,
    after every earlier result has been yielded; leaving the block closes
    the pool.
    """
    if workers <= 1 or tasks <= 1:
        yield map
        return
    hash_kernel()  # resolve the hashing loops here, so that forked workers inherit them
    with Pool(processes=min(workers, tasks)) as pool:
        yield functools.partial(pool.imap, chunksize=1)


# -- worker functions (top level for pickling) --------------------------------


def _path_worker(args) -> QPath:
    # args: config, n, r, g, replica, max_attempts
    return sample_qpath(*args)


def _sweep_worker(args) -> List[Tuple[float, int]]:
    # one stack of consecutive replicas: start .. stop - 1
    config, r, g, start, stop = args
    weights, grids = [], []
    for replica in range(start, stop):
        view = ensemble_view(config, r, g, replica)
        weights.append(float(view.word_weights.sum()))
        grids.append(view.grid)
    blocks = max_empty_block(np.stack(grids), config.m)
    return list(zip(weights, blocks.tolist()))


def _profile_worker(args) -> List[int]:
    config, depth, replica = args
    return LazyTree(ensemble_config(config, replica)).count_profile((), depth)


def _slice_worker(args) -> List[Tuple[int, int]]:
    config, resolutions, g, axis, position, replica = args
    out = []
    for r in resolutions:
        grid = ensemble_view(config, r, g, replica).grid
        out.append((int(grid.sum()), int(np.take(grid, position, axis).sum())))
    return out


# -- batch drivers -------------------------------------------------------------


def run_path_batch_partial(
    config: PercolationConfig,
    paths: int,
    n: int,
    r: int,
    g: int,
    workers: int = 1,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Tuple[List[QPath], Optional[RejectionLimitError]]:
    """Sample ``paths`` independent mass-biased paths, in replica order.

    Returns (paths, error).  error is None on full success; otherwise it is
    the first RejectionLimitError hit, and the list holds every path whose
    replica index precedes the failing one (ordered iteration guarantees
    the prefix is intact).
    """
    argses = [(config, n, r, g, replica, max_attempts) for replica in range(paths)]
    done: List[QPath] = []
    try:
        with _mapper(workers, paths) as map_:
            for path in map_(_path_worker, argses):
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
    arithmetic on these two arrays.  Consecutive replicas go to one task in
    stacks of at most ``stack_size(config, r)`` grids and at most a
    ``workers``-th of the replicas, so no worker is left idle, and one
    ``max_empty_block`` call reads every ``a_star`` of a stack.
    """
    size = max(1, min(stack_size(config, r), -(-replicas // max(1, workers))))
    argses = [(config, r, g, i, min(i + size, replicas)) for i in range(0, replicas, size)]
    with _mapper(workers, len(argses)) as map_:
        rows = [row for stack in map_(_sweep_worker, argses) for row in stack]
    weights = np.array([w for w, _ in rows])
    blocks = np.array([b for _, b in rows], dtype=np.int64)
    return weights, blocks


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
    depths: Sequence[int],
    trees: int = 200,
    workers: int = 1,
) -> DimensionSlope:
    """Fit the growth rate of survivor populations against depth.

    The mean retained count at depth j grows like k^(j d), so the base-k
    log of the survivor-conditioned means against j has slope close to d
    (conditioning on survival to the deepest queried level biases means by
    a depth-independent factor at these sizes); the fit needs two or more
    distinct depths.  Candidates are consumed in replica order until
    ``trees`` survivors are found, which keeps the selected set independent
    of the worker count; at most 20 * ``trees`` candidates are inspected.
    Each block of candidates is no larger than the number of survivors
    still missing, so no candidate past the last survivor needed is
    computed, and every block runs on one pool.
    """
    depths = tuple(sorted(int(j) for j in depths))
    if len(set(depths)) < 2:
        raise ValueError("a slope needs two or more distinct depths")
    if depths[0] < 1:
        raise ValueError("depths must be >= 1")
    if trees < 1:
        raise ValueError("trees must be >= 1")
    max_depth = depths[-1]
    cap = 20 * trees
    profiles: List[List[int]] = []
    candidates = 0
    # no block is larger than the first, so one pool that size serves them all
    with _mapper(workers, trees) as map_:
        while len(profiles) < trees and candidates < cap:
            block = min(trees - len(profiles), cap - candidates)
            argses = [(config, max_depth, candidates + i) for i in range(block)]
            for profile in map_(_profile_worker, argses):
                if profile[max_depth] > 0:
                    profiles.append(profile)
            candidates += block
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
    trees: int
    surviving: Tuple[int, ...]  # trees with any retained nodes, per resolution
    mean_fraction: np.ndarray  # mean slab/total over surviving trees
    se: np.ndarray
    observed_ratios: np.ndarray  # consecutive-mean ratios, coarse over fine; nan where fine is 0
    theory_ratios: np.ndarray  # k^((r2-r1)(d-(m-1))) per consecutive pair


def slice_decay(
    config: PercolationConfig,
    resolutions: Sequence[int],
    trees: int = 1000,
    g: int = 2,
    axis: int = 0,
    position: int = 0,
    workers: int = 1,
) -> SliceDecay:
    """Estimate how fast one-cell-wide slabs lose mass as the grid refines.

    The slab fraction is a counts ratio (the common mass rescale cancels),
    evaluated at a fixed slab position; positions are exchangeable under
    relabeling of subcubes, so any fixed choice is representative.  A
    resolution at which no tree survives raises RejectionLimitError.
    """
    resolutions = tuple(sorted(int(r) for r in resolutions))
    if not 0 <= axis < config.m:
        raise ValueError(f"axis {axis} out of range")
    if not 0 <= position < capped_power(config.k, resolutions[0], position):
        raise ValueError("slab position outside the coarsest grid")
    argses = [(config, resolutions, g, axis, position, i) for i in range(trees)]
    with _mapper(workers, trees) as map_:
        rows = list(map_(_slice_worker, argses))
    # (trees, resolutions, 2) -> one (resolutions, trees) array each
    totals, slabs = np.array(rows, dtype=np.int64).reshape(trees, len(resolutions), 2).T
    alive = totals > 0
    for r, survived in zip(resolutions, alive):  # coarsest first
        if not survived.any():
            raise RejectionLimitError(trees, f"no tree of {trees} survived at resolution {r}")
    stats = [WeightedMean.from_values(s[a] / t[a]) for s, t, a in zip(slabs, totals, alive)]
    mean_fraction = np.array([s.estimate for s in stats])
    se = np.array([s.se for s in stats])
    d = dimension(config)
    observed, theory = [], []
    for (r1, f1), (r2, f2) in zip(
        zip(resolutions, mean_fraction), zip(resolutions[1:], mean_fraction[1:])
    ):
        observed.append(f1 / f2 if f2 > 0 else math.nan)
        theory.append(float(config.k) ** ((r2 - r1) * (d - (config.m - 1))))
    return SliceDecay(
        resolutions=resolutions,
        trees=trees,
        surviving=tuple(alive.sum(axis=1).tolist()),
        mean_fraction=mean_fraction,
        se=se,
        observed_ratios=np.array(observed),
        theory_ratios=np.array(theory),
    )
