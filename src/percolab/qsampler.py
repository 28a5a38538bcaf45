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

from .errors import DeadSubtreeError, MissingParameterError, RejectionLimitError
from .holes import (
    ball_porosities,
    cells_threshold,
    max_empty_block,
    set_hole_indicators,
    window_min_sweep,
)
from .measure import count_grids, dimension, x_estimate
from .percolation import (
    STREAM_ENSEMBLE,
    STREAM_PATH,
    STREAM_REPLICA,
    LazyTree,
    PercolationConfig,
    descendant_counts,
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


def _pick_child(counts: np.ndarray, u: float) -> int:
    """Index drawn proportionally to ``counts`` using one uniform draw."""
    total = int(counts.sum())
    if total == 0:
        raise DeadSubtreeError("no child is alive at the probe depth")
    cum = np.cumsum(counts)
    return int(np.searchsorted(cum, u * total, side="right"))


def sample_step(tree: LazyTree, word: Word, probe_depth: int, u: float) -> int:
    """One descent step: a child digit drawn with mass-proportional odds.

    Children are weighted by their retained descendant counts probe_depth
    levels down (proportional to the truncated martingale estimates; the
    common k^-d rescale cancels in the ratio).  ``u`` is the uniform draw to
    consume -- callers own the stream so that reruns are exactly replayable.
    """
    return _pick_child(descendant_counts(tree, word, 1, probe_depth), u)


def _grid_index(grid: Tuple[float, ...], value: float, label: str) -> int:
    for i, entry in enumerate(grid):
        if abs(entry - value) <= 1e-12:
            return i
    raise MissingParameterError(
        f"{label}={value} was not recorded on this path (grid: {grid})"
    )


@dataclass
class QPath:
    """One mass-biased descent with per-scale hole and porosity records.

    Arrays are indexed by scale (row j holds scale j+1); indicator sheets
    additionally by the alpha and eps grids the path was sampled with.  The
    full minimum-window sweep per scale is kept so that measure-hole and
    discrepancy questions can be answered afterwards for parameters off the
    recorded grids.
    """

    config: PercolationConfig
    tree_config: PercolationConfig
    replica: int
    attempts: int
    n: int
    r: int
    g: int
    alpha_grid: Tuple[float, ...]
    eps_grid: Tuple[float, ...]
    digits: Tuple[int, ...]  # n + r digits of the descent
    centers: np.ndarray  # (n, m) cell of the path r levels below each scale
    x_hat: np.ndarray  # (n,) martingale estimate at each visited word
    a_star: np.ndarray  # (n,) largest empty block per scale grid
    restricted_a_star: np.ndarray  # (n,) same with the center cell forced occupied
    window_sweep: np.ndarray  # (n, side+1) min window mass per size
    total_mass: np.ndarray  # (n,) grid totals
    lower: np.ndarray  # (n, n_alpha) certified set-hole indicators
    upper: np.ndarray  # (n, n_alpha) unrefuted set-hole indicators
    measure_ind: np.ndarray  # (n, n_alpha, n_eps)
    set_por: np.ndarray  # (n,) ball porosity of the occupancy pattern
    meas_por: np.ndarray  # (n, n_eps) ball porosity of the mass pattern
    weight: float  # root martingale estimate at probe depth g

    @property
    def side(self) -> int:
        return self.config.k ** self.r

    def set_hole_lower(self, alpha: float) -> np.ndarray:
        return self.lower[:, _grid_index(self.alpha_grid, alpha, "alpha")]

    def set_hole_upper(self, alpha: float) -> np.ndarray:
        return self.upper[:, _grid_index(self.alpha_grid, alpha, "alpha")]

    def measure_hole(self, alpha: float, eps: float) -> np.ndarray:
        ia = _grid_index(self.alpha_grid, alpha, "alpha")
        ie = _grid_index(self.eps_grid, eps, "eps")
        return self.measure_ind[:, ia, ie]

    def measure_porosity(self, eps: float) -> np.ndarray:
        return self.meas_por[:, _grid_index(self.eps_grid, eps, "eps")]

    def upper_at(self, alpha: float) -> np.ndarray:
        """Upper set indicators for an arbitrary alpha (from stored a*)."""
        thr = cells_threshold(alpha, self.side)
        return set_hole_indicators(self.a_star, self.restricted_a_star, thr)[1]

    def lower_at(self, alpha: float) -> np.ndarray:
        """Certified set indicators for an arbitrary alpha (from stored a*)."""
        thr = cells_threshold(alpha, self.side)
        return set_hole_indicators(self.a_star, self.restricted_a_star, thr)[0]

    def measure_hole_at(self, alpha: float, eps: float) -> np.ndarray:
        """Measure-hole indicators for arbitrary (alpha, eps) via the sweeps."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        thr = cells_threshold(alpha, self.side)
        if thr == 0:
            return np.ones(self.n, dtype=np.int8)
        light = self.window_sweep[:, thr] <= eps * self.total_mass
        return light.astype(np.int8)

    def discrepancy(self, alpha: float, eps: float, delta: float) -> np.ndarray:
        """Per-scale indicators of measure holes invisible to the set bracket."""
        if not 0.0 < delta < alpha:
            raise ValueError("delta must lie strictly between 0 and alpha")
        v = self.measure_hole_at(alpha, eps)
        up = self.upper_at(alpha - delta)
        return (v & (1 - up)).astype(np.int8)


def sample_qpath(
    config: PercolationConfig,
    n: int,
    r: int,
    g: int = DEFAULT_PROBE_DEPTH,
    alpha_grid: Optional[Sequence[float]] = None,
    eps_grid: Optional[Sequence[float]] = None,
    replica: int = 0,
    max_attempts: int = _MAX_ATTEMPTS,
) -> QPath:
    """Sample one surviving mass-biased path and fill its scale records.

    The descent needs n + r digits (scale j's records are centered on the
    path's cell r levels below scale j).  Whenever the walk hits a word with
    no alive children, the whole attempt -- tree and path stream both -- is
    thrown away and redrawn from the next attempt substream, which keeps the
    accepted sample a pure function of (seed, replica).
    """
    if n < 1 or r < 1 or g < 0:
        raise ValueError("need n >= 1, r >= 1, g >= 0")
    alphas = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(float(a) for a in alpha_grid)
    epss = DEFAULT_EPS_GRID if eps_grid is None else tuple(float(e) for e in eps_grid)
    for attempt in range(max_attempts):
        tree_cfg = replica_config(config, replica, attempt)
        tree = LazyTree(tree_cfg)
        path_key = substream(tree_cfg.seed, STREAM_PATH)
        word = tree_cfg.root_word()
        digits: List[int] = []
        try:
            for step in range(n + r):
                u = unit_draw(child_key(path_key, step))
                digit = sample_step(tree, word, g, u)
                digits.append(digit)
                word = word.child(digit)
        except DeadSubtreeError:
            continue
        return _record_path(
            config, tree_cfg, tree, tuple(digits), n, r, g, alphas, epss,
            replica, attempt + 1,
        )
    raise RejectionLimitError(
        max_attempts,
        f"no attempt of {max_attempts} survived {n + r} mass-biased steps "
        f"(observed survival rate 0/{max_attempts}); the configuration is "
        f"likely subcritical or the walk too deep",
    )


def _record_path(
    config: PercolationConfig,
    tree_cfg: PercolationConfig,
    tree: LazyTree,
    digits: Tuple[int, ...],
    n: int,
    r: int,
    g: int,
    alphas: Tuple[float, ...],
    epss: Tuple[float, ...],
    replica: int,
    attempts: int,
) -> QPath:
    m, k = config.m, config.k
    side = k ** r
    thresholds = np.array([cells_threshold(a, side) for a in alphas], dtype=np.int64)

    centers = np.zeros((n, m), dtype=np.int64)
    x_hat = np.zeros(n)
    a_star = np.zeros(n, dtype=np.int64)
    sweeps = np.zeros((n, side + 1))
    totals = np.zeros(n)
    set_por = np.zeros(n)
    meas_por = np.zeros((n, len(epss)))

    for j in range(1, n + 1):
        word = Word(m, k, digits[:j])
        x_hat[j - 1] = x_estimate(tree, word, g)
        counts = descendant_counts(tree, word, r, g)
        occ, mass = count_grids(config, counts, word, r, g)
        center = cell_of_digits(digits[j : j + r], m, k)

        centers[j - 1] = center
        totals[j - 1] = mass.total
        a_star[j - 1] = max_empty_block(occ.cells)
        sweeps[j - 1] = window_min_sweep(mass.cells)
        set_por[j - 1], meas_por[j - 1] = ball_porosities(occ, mass, center, epss)

    # The descent only enters children alive g levels down, so every
    # center cell is occupied and forcing it occupied changes no block:
    # the restricted statistic equals a_star on every recorded scale.
    restricted = a_star
    lower, upper = set_hole_indicators(a_star[:, None], restricted[:, None], thresholds)
    light = sweeps[:, thresholds, None] <= np.asarray(epss) * totals[:, None, None]
    measure_ind = (light | (thresholds == 0)[:, None]).astype(np.int8)

    weight = x_estimate(tree, config.root_word(), g)
    return QPath(
        config=config,
        tree_config=tree_cfg,
        replica=replica,
        attempts=attempts,
        n=n,
        r=r,
        g=g,
        alpha_grid=alphas,
        eps_grid=epss,
        digits=digits,
        centers=centers,
        x_hat=x_hat,
        a_star=a_star,
        restricted_a_star=restricted,
        window_sweep=sweeps,
        total_mass=totals,
        lower=lower,
        upper=upper,
        measure_ind=measure_ind,
        set_por=set_por,
        meas_por=meas_por,
        weight=weight,
    )


class ReplicaView:
    """Depth-(r+g) snapshot of one plain replica, as functionals see it.

    Exposes the per-word weights of the expectation-transfer identity: a
    functional f of (word, configuration) has size-biased mean
    E[sum over depth-r words of k^(-rd) X_word f(word, .)], and the view
    hands f the retained counts, grids, and weights it needs to evaluate
    that inner sum cheaply.
    """

    def __init__(self, tree: LazyTree, r: int, g: int):
        self.tree = tree
        self.config = tree.config
        self.r = r
        self.g = g
        root = tree.config.root_word()
        self.counts = descendant_counts(tree, root, r, g)
        self.occupancy, self.mass = count_grids(tree.config, self.counts, root, r, g)
        d = dimension(tree.config)
        self.word_weights = self.counts * float(tree.config.k) ** (-(r + g) * d)

    @cached_property
    def weight(self) -> float:
        """Root martingale estimate at probe depth g."""
        return x_estimate(self.tree, self.config.root_word(), self.g)

    @cached_property
    def a_star(self) -> int:
        return max_empty_block(self.occupancy.cells)


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
    cfg = replace(config, seed=substream(config.seed, STREAM_ENSEMBLE, replica))
    return ReplicaView(LazyTree(cfg), r, g)


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
