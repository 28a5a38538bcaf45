"""Size-biased path sampling and importance-weighted ensemble estimates.

A mass-biased pair (path, tree) is generated in two moves: draw a surviving
tree under the plain retention law (rejecting dead attempts), then descend
it one digit at a time, picking each child with probability proportional to
its truncated martingale estimate -- equivalently, to its retained
descendant count at the probe depth.  Chains of those ratios telescope into
cylinder-mass ratios, so the walk follows the natural measure as far as a
finite probe can see it.

What this leaves out is the mass-biasing of the tree itself.  Ensembles
restore it through ``importance_functional``, which weighs every word of a
plain replica by its depth-(r+g) mass and so turns plain ensemble averages
into size-biased expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, Tuple

import numpy as np

from .errors import DeadSubtreeError, RejectionLimitError
from .holes import (
    cells_threshold,
    gap_porosity,
    max_empty_block,
    measure_hole_indicators,
    set_hole_indicators,
    stack_geometry,
)
from .percolation import (
    STREAM_ENSEMBLE,
    STREAM_PATH,
    STREAM_REPLICA,
    LazyTree,
    PercolationConfig,
    capped_power,
    cell_of_digits,
    descendant_counts,
    grid_from_digit_order,
    labels_fit,
    mass_factor,
)
from .rng import child_key, substream, unit_draw

DEFAULT_PROBE_DEPTH = 4
DEFAULT_ALPHA_GRID: Tuple[float, ...] = tuple(round(0.05 * t, 2) for t in range(1, 20)) + (1.0,)
DEFAULT_EPS_GRID: Tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)

# Grid cells a path stacks before it sweeps them: its geometry costs one
# summed-area table and one loop over window sides per stack, not per scale.
# A sweep holds about 20 bytes per stacked cell at once, so 1 << 15 cells
# (8 scales of a 64 x 64 or a 16^3 grid) take under 1 MB.
_STACK_CELLS = 1 << 15

DEFAULT_MAX_ATTEMPTS = 1000
Z95 = 1.96  # two-sided 95% normal quantile


def stack_size(config: PercolationConfig, r: int) -> int:
    """Grids of side k^r that one stack holds: as many as fit in ``_STACK_CELLS`` cells, at least one."""
    return max(1, _STACK_CELLS // capped_power(config.k, config.m * r, _STACK_CELLS))


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
    """One mass-biased descent with per-scale geometry records.

    Arrays are indexed by scale (row j holds scale j+1).  The path records
    geometry only: every hole indicator and ball porosity, for any alpha
    and eps, is read off the recorded ``a_star`` and window sweeps by the
    accessors.

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
    digits: Tuple[int, ...]  # n + r digits of the descent
    centers: np.ndarray  # (n, m) cell of the path r levels below each scale
    x_hat: np.ndarray  # (n,) martingale estimate at each visited word
    a_star: np.ndarray  # (n,) largest empty block per scale grid
    window_sweep: np.ndarray  # (n, side+1) min window count per size; last = grid count
    ball_sweep: np.ndarray  # (n, side//2 + 1) min window count of the ball's box, padded
    ball_count: np.ndarray  # (n,) retained count of the ball's box
    weight: float  # root martingale estimate at probe depth g

    @property
    def side(self) -> int:
        return self.config.k ** self.r

    @property
    def total_mass(self) -> np.ndarray:
        """Mass of each scale's grid: scale j's count times k^-((j + r + g) d)."""
        depth = self.r + self.g
        factors = [mass_factor(self.config, j + depth) for j in range(1, self.n + 1)]
        return self.window_sweep[:, -1] * np.array(factors)

    def _threshold(self, alpha: float) -> int:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        return cells_threshold(alpha, self.side)

    @staticmethod
    def _eps(eps) -> np.ndarray:
        eps = np.asarray(eps, dtype=np.float64)
        if not np.all(eps >= 0.0):
            raise ValueError("eps must be >= 0")
        return eps

    def set_hole_lower(self, alpha: float) -> np.ndarray:
        """Certified set-hole indicators per scale, for any alpha in (0, 1]."""
        return set_hole_indicators(self.a_star, self._threshold(alpha))[0]

    def set_hole_upper(self, alpha: float) -> np.ndarray:
        """Unrefuted set-hole indicators per scale, for any alpha in (0, 1]."""
        return set_hole_indicators(self.a_star, self._threshold(alpha))[1]

    def measure_hole(self, alpha: float, eps) -> np.ndarray:
        """Measure-hole indicators per scale, for eps >= 0; an eps sequence adds a last axis."""
        return measure_hole_indicators(self.window_sweep, self._threshold(alpha), self._eps(eps))

    @property
    def set_porosity(self) -> np.ndarray:
        """Ball porosity of the occupancy pattern per scale."""
        return gap_porosity(self.ball_sweep, 0, self.side / 4.0)

    def measure_porosity(self, eps) -> np.ndarray:
        """Ball porosity of the mass pattern per scale; an eps sequence adds a last axis.

        No window weighs more than the whole box, so an eps above 1 reads
        as 1, which keeps every limit below the sweeps' padding.
        """
        eps = self._eps(eps)
        limits = np.multiply.outer(self.ball_count, np.minimum(eps, 1.0))
        sweeps = self.ball_sweep.reshape((self.n,) + (1,) * eps.ndim + (-1,))
        return gap_porosity(sweeps, limits[..., None], self.side / 4.0)


def sample_qpath(
    config: PercolationConfig,
    n: int,
    r: int,
    g: int = DEFAULT_PROBE_DEPTH,
    replica: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> QPath:
    """Sample one surviving mass-biased path and fill its scale records.

    The descent needs n + r digits (scale j's records are centered on the
    path's cell r levels below scale j).  It is one walk through one
    labelled frontier that hashes every retained node's children at most
    once.  The root's g levels are hashed first (their last count is the
    path's weight); then every step hashes one more level.  The walk keeps
    only the nodes under word_1 after step 0 and deepens them one level per
    step, until they lie r + g levels below it; from there each step keeps
    the nodes under the next digit of the scale's word.  Step s picks among
    the children of word_s, whose counts are cells of the grid that its
    hashing counts each new child into; from step r on, that cell grid is
    the record of scale s - r + 1.  A step stores only the new children that
    the next step keeps: once the next step's digit is chosen (r >= 2, from
    step r on), those under it; none on the last step; all of them
    otherwise.  So a stored level holds at most the nodes under the next
    word.  Where the r + g digit labels would overflow int64, each step
    counts its word's cells afresh instead.  Each scale's count grid goes
    into a stack of at most ``_STACK_CELLS`` cells (at least one grid) as
    soon as its center is known, and ``stack_geometry`` sweeps the stack
    when it is full or the path ends: one summed-area table and one loop
    over window sides give every scale's window sweep, ball sweep and box
    count, and one ``max_empty_block`` call its ``a_star``.  Each stack's
    records are appended as it is swept.  Whenever the walk hits a word with
    no alive children, the whole attempt -- tree and path stream both -- is
    thrown away and redrawn from the next attempt substream, which keeps the
    accepted sample a pure function of (seed, replica).
    """
    if n < 1 or r < 1 or g < 0:
        raise ValueError("need n >= 1, r >= 1, g >= 0")
    sizes = LazyTree(config)  # the node budget, checked before anything is built
    sizes._budget(n)  # n scale records
    sizes._budget_grid(r)  # one scale's grid, before any k^m is built
    m, k, fanout = config.m, config.k, config.branching
    child_mass = mass_factor(config, g)
    # past int64 labels, each step counts its word's cells afresh instead
    streamed = labels_fit(fanout, r + g)
    # a cell counts at most fanout^g nodes, so a stack that holds every
    # scale's grid until its sweep can be of the narrowest type that fits
    stack_type = np.min_scalar_type(capped_power(k, m * g, 1 << 63))
    stack = np.empty((min(n, stack_size(config, r)),) + (k**r,) * m, stack_type)
    for attempt in range(max_attempts):
        tree_cfg = replica_config(config, replica, attempt)
        tree = LazyTree(tree_cfg)
        path_key = substream(tree_cfg.seed, STREAM_PATH)
        digits: List[int] = []
        centers = np.zeros((n, m), dtype=np.int64)
        x_hat = np.zeros(n)
        records = []  # stack_geometry's records of each swept stack, in scale order
        try:
            with tree.frontier((), r + g if streamed else 0) as front:
                weight = tree.expand_retained(front, g)[g] * child_mass
                word = 0  # the frontier lies below word_{word}
                for step in range(n + r):
                    # the word trails the step by r - 1 digits, and never
                    # stays above word_1 past step 0
                    if step and word < max(1, step - r + 1):
                        if streamed:
                            front.descend(digits[word])
                        word += 1
                    # step picks among the children of word_step: the cells
                    # `cells` digits below word_{word}, under digits[word:]
                    cells = step - word + 1
                    if not streamed:
                        cell_counts = descendant_counts(tree, tuple(digits[:word]), cells, g)
                    else:
                        # store what the next step keeps: it descends into
                        # digits[word] when word < step + 2 - r, and that
                        # digit is chosen when word < step
                        if step == n + r - 1:
                            keep = range(0)
                        elif word < min(step, step + 2 - r):
                            keep = range(digits[word], digits[word] + 1)
                        else:
                            keep = range(fanout)
                        cell_counts = np.zeros(fanout**cells, dtype=np.int64)
                        tree.expand_retained(front, 1, cell_counts, keep)
                    counts = cell_counts.reshape((fanout,) * cells)[tuple(digits[word:])]
                    digit = sample_step(counts, unit_draw(child_key(path_key, step)))
                    digits.append(digit)
                    if step < n:
                        # the chosen child's count is count_profile(word_{step+1}, g)[g],
                        # which mass_factor(config, g) turns into a mass
                        x_hat[step] = counts[digit] * child_mass
                    j = step - r + 1
                    if j < 1:
                        continue
                    # from step r on, word == j and cell_counts is scale j's grid
                    slot = (j - 1) % stack.shape[0]
                    stack[slot] = grid_from_digit_order(cell_counts, m, k, r)
                    centers[j - 1] = cell_of_digits(digits[j:], m, k)
                    if slot + 1 < stack.shape[0] and j < n:
                        continue
                    # the stack is full or the path ends: sweep scales j - slot .. j
                    records.append(stack_geometry(stack[: slot + 1], centers[j - 1 - slot : j]))
        except DeadSubtreeError:
            continue
        a_star, sweeps, ball_sweeps, ball_counts = map(np.concatenate, zip(*records))
        return QPath(
            config=config,
            tree_config=tree_cfg,
            replica=replica,
            attempts=attempt + 1,
            n=n,
            r=r,
            g=g,
            digits=tuple(digits),
            centers=centers,
            x_hat=x_hat,
            a_star=a_star,
            window_sweep=sweeps,
            ball_sweep=ball_sweeps,
            ball_count=ball_counts,
            weight=weight,
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
        self.counts = descendant_counts(tree, (), r, g)
        self.grid = grid_from_digit_order(self.counts, self.config.m, self.config.k, r)
        self.word_weights = self.counts * mass_factor(self.config, r + g)

    @cached_property
    def a_star(self) -> int:
        return max_empty_block(self.grid)


@dataclass
class WeightedMean:
    """Mean of per-replica values with a normal 95% interval.

    The one estimate type: importance-weighted ensembles, path averages and
    slab fractions all report one.
    """

    estimate: float
    se: float
    ci_low: float
    ci_high: float
    replicas: int

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
) -> WeightedMean:
    """Size-biased mean of a depth-r functional, by importance reweighting.

    f(view) returns one number per depth-r word (digit order, length
    (k^m)^r), or one number for the whole configuration, which stands for
    every word.  Each replica contributes the word-weighted sum, so a
    single number is weighed by the word-weight total, the root estimate at
    depth r + g.  Dead replicas carry zero weight and drag the estimate
    toward its honest unconditioned value -- no survival rejection happens
    here.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas for an interval")
    values = np.zeros(replicas)
    for i in range(replicas):
        view = ensemble_view(config, r, g, i)
        arr = np.asarray(f(view), dtype=np.float64)
        if arr.shape not in ((), view.word_weights.shape):
            raise ValueError(
                f"functional returned shape {arr.shape}, expected () or "
                f"{view.word_weights.shape}"
            )
        values[i] = float(view.word_weights @ np.broadcast_to(arr, view.word_weights.shape))
    return WeightedMean.from_values(values)
