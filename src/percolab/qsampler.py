"""Size-biased path sampling and importance-weighted ensemble estimates.

A mass-biased pair (path, tree) is generated in two moves: draw a surviving
tree under the plain retention law (rejecting dead attempts), then descend
it one digit at a time, picking each child with probability proportional to
its truncated martingale estimate -- equivalently, to its retained
descendant count at the probe depth.  Chains of those ratios telescope into
cylinder-mass ratios, so the walk follows the natural measure as far as a
finite probe can see it.

What this leaves out is the mass-biasing of the tree itself; that part is
restored by the importance weight (the root's martingale estimate) carried
by every path and used by ``importance_functional``, which turns plain
ensemble averages into size-biased expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DeadSubtreeError, RejectionLimitError
from .holes import (
    ball_porosities,
    cells_threshold,
    max_empty_block,
    measure_hole_indicators,
    set_hole_indicators,
    window_min_sweep,
)
from .measure import mass_factor, x_estimate
from .percolation import (
    STREAM_ENSEMBLE,
    STREAM_PATH,
    STREAM_REPLICA,
    LazyTree,
    PercolationConfig,
    descendant_counts,
    grid_from_digit_order,
)
from .rng import child_key, substream, unit_draw
from .words import Word, cell_of_digits

DEFAULT_PROBE_DEPTH = 4
DEFAULT_ALPHA_GRID: Tuple[float, ...] = tuple(round(0.05 * t, 2) for t in range(1, 20)) + (1.0,)
DEFAULT_EPS_GRID: Tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)

_MAX_ATTEMPTS = 1000
Z95 = 1.96  # two-sided 95% normal quantile


def replica_config(config: PercolationConfig, replica: int, attempt: int = 0) -> PercolationConfig:
    """Config for one independent replica (and rejection attempt) of a run."""
    return replace(config, seed=substream(config.seed, STREAM_REPLICA, replica, attempt))


def ensemble_config(config: PercolationConfig, replica: int) -> PercolationConfig:
    """Config for the replica-th tree of a plain (unweighted-law) ensemble."""
    return replace(config, seed=substream(config.seed, STREAM_ENSEMBLE, replica))


def sample_step(counts: np.ndarray, u: float) -> int:
    """One descent step: a child digit drawn with mass-proportional odds.

    ``counts`` holds each child's retained descendant count at the probe
    depth (proportional to the truncated martingale estimates; the common
    k^-d rescale cancels in the ratio).  ``u`` is the uniform draw to
    consume -- callers own the stream so that reruns are exactly replayable.
    """
    total = int(counts.sum())
    if total == 0:
        raise DeadSubtreeError("no child is alive at the probe depth")
    cum = np.cumsum(counts)
    return int(np.searchsorted(cum, u * total, side="right"))


@dataclass
class QPath:
    """One mass-biased descent with per-scale geometry and porosity records.

    Arrays are indexed by scale (row j holds scale j+1); ``meas_por`` also
    by the eps grid the path was sampled with.  The path records geometry
    only: every hole indicator, for any alpha and eps, is read off the
    recorded ``a_star`` and minimum-window sweep by the accessors.

    The descent only enters children alive g levels down, so every center
    cell has a positive count and forcing it occupied changes no block:
    ``a_star`` is also the center-restricted statistic the certified lower
    indicator needs.
    """

    config: PercolationConfig
    tree_config: PercolationConfig
    replica: int
    attempts: int
    n: int
    r: int
    g: int
    eps_grid: Tuple[float, ...]
    digits: Tuple[int, ...]  # n + r digits of the descent
    centers: np.ndarray  # (n, m) cell of the path r levels below each scale
    x_hat: np.ndarray  # (n,) martingale estimate at each visited word
    a_star: np.ndarray  # (n,) largest empty block per scale grid
    window_sweep: np.ndarray  # (n, side+1) min window count per size; last = grid count
    total_mass: np.ndarray  # (n,) grid totals
    set_por: np.ndarray  # (n,) ball porosity of the occupancy pattern
    meas_por: np.ndarray  # (n, n_eps) ball porosity of the mass pattern
    weight: float  # root martingale estimate at probe depth g

    @property
    def side(self) -> int:
        return self.config.k ** self.r

    def _threshold(self, alpha: float) -> int:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        return cells_threshold(alpha, self.side)

    def set_hole_lower(self, alpha: float) -> np.ndarray:
        """Certified set-hole indicators per scale, for any alpha in (0, 1]."""
        return set_hole_indicators(self.a_star, self._threshold(alpha))[0]

    def set_hole_upper(self, alpha: float) -> np.ndarray:
        """Unrefuted set-hole indicators per scale, for any alpha in (0, 1]."""
        return set_hole_indicators(self.a_star, self._threshold(alpha))[1]

    def measure_hole(self, alpha: float, eps) -> np.ndarray:
        """Measure-hole indicators per scale; an eps sequence adds a last axis."""
        return measure_hole_indicators(self.window_sweep, self._threshold(alpha), eps)

    def discrepancy(self, alpha: float, eps: float, delta: float) -> np.ndarray:
        """Per-scale indicators of measure holes invisible to the set bracket."""
        if not 0.0 < delta < alpha:
            raise ValueError("delta must lie strictly between 0 and alpha")
        v = self.measure_hole(alpha, eps)
        up = self.set_hole_upper(alpha - delta)
        return (v & (1 - up)).astype(np.int8)


def sample_qpath(
    config: PercolationConfig,
    n: int,
    r: int,
    g: int = DEFAULT_PROBE_DEPTH,
    eps_grid: Optional[Sequence[float]] = None,
    replica: int = 0,
    max_attempts: int = _MAX_ATTEMPTS,
) -> QPath:
    """Sample one surviving mass-biased path and fill its scale records.

    The descent needs n + r digits (scale j's records are centered on the
    path's cell r levels below scale j).  It is one walk that expands each
    visited word once: the first r steps pick from one-level counts, then
    scale j's record grid also supplies step j + r - 1's counts, and the
    scale is recorded as soon as that step fixes its centre.  Whenever the
    walk hits a word with no alive children, the whole attempt -- tree and
    path stream both -- is thrown away and redrawn from the next attempt
    substream, which keeps the accepted sample a pure function of
    (seed, replica).
    """
    if n < 1 or r < 1 or g < 0:
        raise ValueError("need n >= 1, r >= 1, g >= 0")
    epss = DEFAULT_EPS_GRID if eps_grid is None else tuple(float(e) for e in eps_grid)
    m, k, fanout = config.m, config.k, config.branching
    side = k ** r
    child_mass = mass_factor(config, g)
    for attempt in range(max_attempts):
        tree_cfg = replica_config(config, replica, attempt)
        tree = LazyTree(tree_cfg)
        path_key = substream(tree_cfg.seed, STREAM_PATH)
        digits: List[int] = []
        centers = np.zeros((n, m), dtype=np.int64)
        x_hat = np.zeros(n)
        a_star = np.zeros(n, dtype=np.int64)
        sweeps = np.zeros((n, side + 1), dtype=np.int64)
        totals = np.zeros(n)
        set_por = np.zeros(n)
        meas_por = np.zeros((n, len(epss)))
        try:
            for step in range(n + r):
                # Scale j's grid counts depth r + g below word_j, which is
                # depth g below each child of word_{j+r-1}: step j + r - 1
                # picks among the k^m entries under digits[j : j+r-1].
                j = step - r + 1
                if j < 1:
                    counts = descendant_counts(tree, Word(m, k, tuple(digits)), 1, g)
                else:
                    scale = descendant_counts(tree, Word(m, k, tuple(digits[:j])), r, g)
                    counts = scale.reshape((fanout,) * r)[tuple(digits[j:])]
                digit = sample_step(counts, unit_draw(child_key(path_key, step)))
                digits.append(digit)
                if step < n:
                    # the chosen child's count is x_estimate(word_{step+1}, g)'s
                    x_hat[step] = counts[digit] * child_mass
                if j < 1:
                    continue
                grid = grid_from_digit_order(scale, m, k, r)
                center = cell_of_digits(digits[j:], m, k)
                centers[j - 1] = center
                totals[j - 1] = scale.sum() * mass_factor(config, j + r + g)
                a_star[j - 1] = max_empty_block(grid)
                sweeps[j - 1] = window_min_sweep(grid)
                set_por[j - 1], meas_por[j - 1] = ball_porosities(grid, center, epss)
        except DeadSubtreeError:
            continue
        return QPath(
            config=config,
            tree_config=tree_cfg,
            replica=replica,
            attempts=attempt + 1,
            n=n,
            r=r,
            g=g,
            eps_grid=epss,
            digits=tuple(digits),
            centers=centers,
            x_hat=x_hat,
            a_star=a_star,
            window_sweep=sweeps,
            total_mass=totals,
            set_por=set_por,
            meas_por=meas_por,
            weight=x_estimate(tree, config.root_word(), g),
        )
    raise RejectionLimitError(
        max_attempts,
        f"no attempt of {max_attempts} survived {n + r} mass-biased steps "
        f"(observed survival rate 0/{max_attempts}); the configuration is "
        f"likely subcritical or the walk too deep",
    )


class ReplicaView:
    """Depth-(r+g) snapshot of one plain replica, as functionals see it.

    Exposes the per-word weights of the expectation-transfer identity: a
    functional f of (word, configuration) has size-biased mean
    E[sum over depth-r words of k^(-rd) X_word f(word, .)], and the view
    hands f the retained counts (in digit order, and as the spatial count
    ``grid``) and weights it needs to evaluate that inner sum cheaply.
    """

    def __init__(self, tree: LazyTree, r: int, g: int):
        self.tree = tree
        self.config = tree.config
        self.r = r
        self.g = g
        self.counts = descendant_counts(tree, self.config.root_word(), r, g)
        self.grid = grid_from_digit_order(self.counts, self.config.m, self.config.k, r)
        self.word_weights = self.counts * mass_factor(self.config, r + g)

    @cached_property
    def weight(self) -> float:
        """Root martingale estimate at probe depth g."""
        return x_estimate(self.tree, self.config.root_word(), self.g)

    @cached_property
    def a_star(self) -> int:
        return max_empty_block(self.grid)


@dataclass
class WeightedMean:
    """Importance-weighted ensemble estimate with a normal 95% interval."""

    estimate: float
    se: float
    ci_low: float
    ci_high: float
    replicas: int
    values: np.ndarray  # per-replica weighted contributions, replica order

    @classmethod
    def from_values(cls, values: np.ndarray) -> "WeightedMean":
        values = np.asarray(values, dtype=np.float64)
        n = len(values)
        est = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(
            estimate=est,
            se=se,
            ci_low=est - Z95 * se,
            ci_high=est + Z95 * se,
            replicas=n,
            values=values,
        )


def ensemble_view(config: PercolationConfig, r: int, g: int, replica: int) -> ReplicaView:
    """The replica-th independent view for plain (unweighted-law) ensembles."""
    return ReplicaView(LazyTree(ensemble_config(config, replica)), r, g)


def importance_functional(
    config: PercolationConfig,
    r: int,
    g: int,
    replicas: int,
    f: Callable[[ReplicaView], object],
    mode: str = "word",
) -> WeightedMean:
    """Size-biased mean of a depth-r functional, by importance reweighting.

    mode="global": f(view) returns one number per configuration; each
    replica contributes weight * f, the root-level transfer identity.
    mode="word": f(view) returns one number per depth-r word (digit order,
    length (k^m)^r); each replica contributes the word-weighted sum.  Dead
    replicas carry zero weight and drag the estimate toward its honest
    unconditioned value -- no survival rejection happens here.
    """
    if mode not in ("global", "word"):
        raise ValueError(f"unknown mode {mode!r}")
    if replicas < 2:
        raise ValueError("need at least 2 replicas for an interval")
    values = np.zeros(replicas)
    for i in range(replicas):
        view = ensemble_view(config, r, g, i)
        if mode == "global":
            values[i] = view.weight * float(f(view))
        else:
            arr = np.asarray(f(view), dtype=np.float64)
            if arr.shape != view.word_weights.shape:
                raise ValueError(
                    f"word-mode functional returned shape {arr.shape}, "
                    f"expected {view.word_weights.shape}"
                )
            values[i] = float(view.word_weights @ arr)
    return WeightedMean.from_values(values)
